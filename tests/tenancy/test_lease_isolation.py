"""Regression: one tenant's lease churn must not invalidate another's plans.

Before tenancy, the lease ledger was cluster-wide and every engine
listened to every grant/revoke/expire — correct with one job, but with
N tenants a busy borrower would stale every *other* tenant's persistent
handles on each lease event.  These tests pin the filter rule, observed
through each engine's plan-invalidation feed: a lease tagged with
tenant T only invalidates engines owned by T; untagged leases and
untenanted engines keep the old everyone-invalidates behaviour.
"""

from __future__ import annotations

from repro.core import MCIOConfig, MemoryConsciousCollectiveIO
from repro.mpi import SimComm

from tests.helpers import make_stack

KIB = 1024


def _cfg() -> MCIOConfig:
    return MCIOConfig(
        msg_ind=4 * 1024 * 1024, mem_min=0, nah=4, cb_buffer_size=64 * KIB,
    )


def _reasons(engine) -> list:
    """Invalidation reasons `engine` publishes from now on."""
    seen: list = []
    engine.add_invalidation_listener(seen.append)
    return seen


def _two_tenant_stack():
    """One cluster, two engines with distinct tenant tags."""
    stack = make_stack(n_ranks=8, n_nodes=4, cores=2)
    comm_b = SimComm(stack.env, stack.cluster, [0, 0, 1, 1, 2, 2, 3, 3])
    engine_a = MemoryConsciousCollectiveIO(
        stack.comm, stack.pfs, _cfg(), tenant="A"
    )
    engine_b = MemoryConsciousCollectiveIO(
        comm_b, stack.pfs, _cfg(), tenant="B"
    )
    return stack, engine_a, engine_b


def _grant(stack, tenant):
    lease = stack.cluster.memory_ledger.grant(
        lender_node=0, borrower_rank=0, nbytes=64 * KIB,
        now=stack.env.now, term=10.0, tenant=tenant,
    )
    assert lease is not None
    return lease


class TestLeaseTenantTag:
    def test_lease_carries_tenant(self):
        stack = make_stack(n_ranks=4, n_nodes=2, cores=2)
        lease = _grant(stack, "A")
        assert lease.tenant == "A"
        assert _grant(stack, None).tenant is None


class TestCrossTenantIsolation:
    def test_foreign_grant_leaves_cache_alone(self):
        stack, engine_a, engine_b = _two_tenant_stack()
        hits_a, hits_b = _reasons(engine_a), _reasons(engine_b)
        _grant(stack, "B")
        assert hits_a == []
        assert hits_b == ["lease-grant"]

    def test_foreign_revoke_leaves_handles_alone(self):
        stack, engine_a, engine_b = _two_tenant_stack()
        hits_a, hits_b = [], []
        engine_a.add_invalidation_listener(hits_a.append)
        engine_b.add_invalidation_listener(hits_b.append)
        lease = _grant(stack, "B")
        stack.cluster.memory_ledger.revoke(lease, now=stack.env.now, reason="test")
        assert hits_a == []
        assert [r for r in hits_b if r.startswith("lease-")]

    def test_untagged_lease_invalidates_everyone(self):
        stack, engine_a, engine_b = _two_tenant_stack()
        hits_a, hits_b = _reasons(engine_a), _reasons(engine_b)
        _grant(stack, None)
        assert hits_a == ["lease-grant"]
        assert hits_b == ["lease-grant"]

    def test_untenanted_engine_sees_tagged_leases(self):
        """Single-job setups (tenant=None) keep the old behaviour."""
        stack = make_stack(n_ranks=8, n_nodes=4, cores=2)
        engine = MemoryConsciousCollectiveIO(stack.comm, stack.pfs, _cfg())
        hits = _reasons(engine)
        _grant(stack, "A")
        assert hits == ["lease-grant"]

    def test_renew_release_never_invalidate(self):
        """Only grant/revoke/expire change placement inputs."""
        stack, engine_a, engine_b = _two_tenant_stack()
        lease = _grant(stack, "A")
        hits_a = _reasons(engine_a)
        ledger = stack.cluster.memory_ledger
        ledger.renew(lease, now=stack.env.now, term=10.0)
        ledger.release(lease, now=stack.env.now)
        assert hits_a == []
