"""Unit tests for the cluster-wide remote-memory lease ledger."""

import pytest

from repro.cluster import Cluster, ClusterSpec, LeaseLedger, NodeSpec, StorageSpec
from repro.sim import Environment, RngFactory

KIB = 1024


def make_cluster(n_nodes=3, memory=64 * KIB):
    spec = ClusterSpec(
        nodes=n_nodes,
        node=NodeSpec(
            cores=4,
            memory_bytes=memory,
            memory_bandwidth=1e8,
            memory_channels=2,
            nic_bandwidth=1e7,
            nic_latency=1e-6,
        ),
        storage=StorageSpec(
            servers=2, server_bandwidth=1e6, request_overhead=1e-3,
            stripe_size=256,
        ),
    )
    return Cluster(Environment(), spec, RngFactory(7))


class TestGrant:
    def test_grant_commits_lender_memory(self):
        cluster = make_cluster()
        ledger = cluster.memory_ledger
        before = cluster.node_of(1).memory.free_available
        lease = ledger.grant(1, borrower_rank=5, nbytes=8 * KIB, now=0.0, term=1.0)
        assert lease is not None and lease.active
        assert lease.lender_node == 1 and lease.borrower_rank == 5
        assert cluster.node_of(1).memory.free_available == before - 8 * KIB
        assert ledger.granted == 1
        assert ledger.outstanding == 1
        assert ledger.outstanding_bytes == 8 * KIB

    def test_cluster_owns_one_shared_ledger(self):
        cluster = make_cluster()
        assert isinstance(cluster.memory_ledger, LeaseLedger)
        assert cluster.memory_ledger is cluster.memory_ledger

    def test_denied_when_lender_too_poor(self):
        cluster = make_cluster()
        ledger = cluster.memory_ledger
        cluster.node_of(0).memory.set_available(4 * KIB)
        assert ledger.grant(0, 1, 8 * KIB, now=0.0, term=1.0) is None
        assert ledger.denied == 1
        assert ledger.outstanding == 0

    def test_denied_when_headroom_unmet(self):
        cluster = make_cluster()
        ledger = cluster.memory_ledger
        cluster.node_of(0).memory.set_available(10 * KIB)
        assert ledger.grant(0, 1, 8 * KIB, now=0.0, term=1.0, headroom=4 * KIB) is None
        assert ledger.grant(0, 1, 8 * KIB, now=0.0, term=1.0, headroom=2 * KIB) is not None

    def test_denied_when_lender_failed(self):
        cluster = make_cluster()
        cluster.node_of(2).fail()
        assert cluster.memory_ledger.grant(2, 1, KIB, now=0.0, term=1.0) is None
        assert cluster.memory_ledger.denied == 1

    def test_denied_on_empty_request_or_term(self):
        cluster = make_cluster()
        ledger = cluster.memory_ledger
        assert ledger.grant(0, 1, 0, now=0.0, term=1.0) is None
        assert ledger.grant(0, 1, KIB, now=0.0, term=0.0) is None
        assert ledger.denied == 2


class TestLifecycle:
    def test_release_frees_lender_memory(self):
        cluster = make_cluster()
        ledger = cluster.memory_ledger
        before = cluster.node_of(1).memory.free_available
        lease = ledger.grant(1, 3, 8 * KIB, now=0.0, term=1.0)
        ledger.release(lease, now=0.5)
        assert cluster.node_of(1).memory.free_available == before
        assert lease.state == "released"
        assert ledger.released == 1 and ledger.outstanding == 0
        # idempotent
        ledger.release(lease, now=0.6)
        assert ledger.released == 1

    def test_revoke_frees_memory_and_records_reason(self):
        cluster = make_cluster()
        ledger = cluster.memory_ledger
        before = cluster.node_of(0).memory.free_available
        lease = ledger.grant(0, 3, 4 * KIB, now=0.0, term=1.0)
        ledger.revoke(lease, now=0.2, reason="lender-failed")
        assert cluster.node_of(0).memory.free_available == before
        assert lease.state == "revoked"
        assert lease.outcome_reason == "lender-failed"
        assert ledger.revoked == 1 and ledger.outstanding == 0

    def test_expired_reason_counts_as_expiry(self):
        cluster = make_cluster()
        ledger = cluster.memory_ledger
        lease = ledger.grant(0, 3, KIB, now=0.0, term=1.0)
        ledger.revoke(lease, now=2.0, reason="expired")
        assert lease.state == "expired"
        assert ledger.expired == 1 and ledger.revoked == 0

    def test_renew_extends_active_lease_only(self):
        cluster = make_cluster()
        ledger = cluster.memory_ledger
        lease = ledger.grant(0, 3, KIB, now=0.0, term=1.0)
        assert ledger.renew(lease, now=0.6, term=1.0)
        assert lease.expires_at == pytest.approx(1.6)
        assert ledger.renewed == 1
        ledger.release(lease, now=0.7)
        assert not ledger.renew(lease, now=0.8, term=1.0)
        assert ledger.renewed == 1

    def test_renew_refuses_unsound_lease(self):
        cluster = make_cluster()
        ledger = cluster.memory_ledger
        lease = ledger.grant(2, 3, KIB, now=0.0, term=1.0)
        cluster.node_of(2).fail()
        assert not ledger.renew(lease, now=0.5, term=1.0)


class TestSoundness:
    def test_healthy_lease_is_sound(self):
        cluster = make_cluster()
        ledger = cluster.memory_ledger
        lease = ledger.grant(0, 3, KIB, now=0.0, term=1.0)
        assert ledger.soundness(lease, now=0.5) is None

    def test_lender_failure_detected(self):
        cluster = make_cluster()
        ledger = cluster.memory_ledger
        lease = ledger.grant(1, 3, KIB, now=0.0, term=1.0)
        cluster.node_of(1).fail()
        assert ledger.soundness(lease, now=0.5) == "lender-failed"

    def test_memory_squeeze_detected(self):
        cluster = make_cluster()
        ledger = cluster.memory_ledger
        node = cluster.node_of(1)
        lease = ledger.grant(1, 3, 8 * KIB, now=0.0, term=1.0)
        node.memory.apply_shock(node.memory.available)
        assert ledger.soundness(lease, now=0.5) == "memory-squeeze"

    def test_term_expiry_detected(self):
        cluster = make_cluster()
        ledger = cluster.memory_ledger
        lease = ledger.grant(1, 3, KIB, now=0.0, term=1.0)
        assert ledger.soundness(lease, now=0.999) is None
        assert ledger.soundness(lease, now=1.0) == "expired"

    def test_inactive_lease_reports_outcome(self):
        cluster = make_cluster()
        ledger = cluster.memory_ledger
        lease = ledger.grant(1, 3, KIB, now=0.0, term=1.0)
        ledger.revoke(lease, now=0.1, reason="memory-squeeze")
        assert ledger.soundness(lease, now=0.2) == "memory-squeeze"


class TestLedgerViews:
    def test_active_leases_track_grant_order(self):
        cluster = make_cluster()
        ledger = cluster.memory_ledger
        assert ledger.active_leases() == []
        a = ledger.grant(0, 1, KIB, now=0.0, term=1.0)
        b = ledger.grant(1, 2, 2 * KIB, now=0.0, term=1.0)
        assert ledger.active_leases() == [a, b]
        assert ledger.outstanding_bytes == 3 * KIB
        ledger.release(a, now=0.5)
        assert ledger.active_leases() == [b]
        assert ledger.outstanding_bytes == 2 * KIB

    def test_listeners_see_lifecycle_events(self):
        cluster = make_cluster()
        ledger = cluster.memory_ledger
        events = []
        ledger.add_listener(lambda lease, event: events.append((lease.lease_id, event)))
        a = ledger.grant(0, 1, KIB, now=0.0, term=1.0)
        ledger.renew(a, now=0.5, term=1.0)
        ledger.release(a, now=0.6)
        b = ledger.grant(1, 2, KIB, now=0.7, term=1.0)
        ledger.revoke(b, now=0.8, reason="lender-failed")
        c = ledger.grant(1, 2, KIB, now=0.9, term=1.0)
        ledger.revoke(c, now=3.0, reason="expired")
        assert events == [
            (a.lease_id, "grant"),
            (a.lease_id, "renew"),
            (a.lease_id, "release"),
            (b.lease_id, "grant"),
            (b.lease_id, "revoke"),
            (c.lease_id, "grant"),
            (c.lease_id, "expire"),
        ]

    def test_history_retains_retired_leases(self):
        cluster = make_cluster()
        ledger = cluster.memory_ledger
        a = ledger.grant(0, 1, KIB, now=0.0, term=1.0)
        ledger.release(a, now=0.5)
        assert a in ledger.history
        assert ledger.active_leases() == []
