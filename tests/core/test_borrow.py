"""Remote-memory borrowing: placement, lease protocol, failure semantics.

The scenario throughout: a 3-node cluster where two nodes are
memory-poor and one is memory-rich.  Under ``placement_policy="borrow"``
or ``"hybrid"`` the placer keeps aggregators wide by leasing buffer
capacity from the rich node; under ``"remerge"`` (the default) it folds
domains exactly as before this feature existed.
"""

import numpy as np
import pytest

from tests.helpers import make_stack, rank_payload

from repro.core import (
    ConservationAuditor,
    MCIOConfig,
    MemoryConsciousCollectiveIO,
)
from repro.core import borrow
from repro.core.request import AccessPattern, StridedSegment
from repro.obs import Tracer

KIB = 1024
N_RANKS = 12
N_NODES = 3
NBYTES = 4 * KIB
RICH = 2


def make_borrow_stack(rich_bytes=10**9, poor_bytes=6000):
    stack = make_stack(n_ranks=N_RANKS, n_nodes=N_NODES, cores=4)
    for node in stack.cluster.nodes:
        node.memory.set_available(
            rich_bytes if node.node_id == RICH else poor_bytes
        )
    return stack


def mcio_cfg(policy="remerge", **overrides):
    base = dict(
        placement_policy=policy,
        adaptive_buffer=False,
        mem_min=0,
        cb_buffer_size=8 * KIB,
        msg_ind=4 * KIB,
        msg_group=1 << 30,
        nah=2,
        min_buffer=1,
        failover=True,
    )
    base.update(overrides)
    return MCIOConfig(**base)


def block_patterns(nbytes=NBYTES):
    return [
        AccessPattern((StridedSegment(r * nbytes, nbytes, nbytes, 1),))
        for r in range(N_RANKS)
    ]


def run_write(stack, engine, patterns, payloads, fault=None, fault_at=None):
    def main(ctx):
        if fault is not None and ctx.rank == 0:
            def saboteur():
                yield ctx.env.sleep(fault_at)
                fault()
            ctx.spawn(saboteur(), name="saboteur")
        yield from engine.write(ctx, patterns[ctx.rank], payloads[ctx.rank])

    stack.run_spmd(main)
    return engine.history[-1]


def assert_image(stack, patterns, payloads):
    for r, p in enumerate(patterns):
        got = stack.pfs.datastore.read(p.start, p.nbytes)
        assert np.array_equal(got, payloads[r]), f"rank {r} image mismatch"


class TestPlacement:
    def test_remerge_policy_never_assigns_lenders(self):
        stack = make_borrow_stack()
        engine = MemoryConsciousCollectiveIO(
            stack.comm, stack.pfs, mcio_cfg("remerge")
        )
        mem = {n.node_id: n.memory.free_available for n in stack.cluster.nodes}
        plan = engine.plan(block_patterns(), dict(mem))
        assert all(d.lender_node is None for d in plan.domains)

    def test_borrow_policy_assigns_rich_lender(self):
        stack = make_borrow_stack()
        engine = MemoryConsciousCollectiveIO(
            stack.comm, stack.pfs, mcio_cfg("borrow")
        )
        mem = {n.node_id: n.memory.free_available for n in stack.cluster.nodes}
        plan = engine.plan(block_patterns(), dict(mem))
        borrowed = [d for d in plan.domains if d.lender_node is not None]
        assert borrowed, "expected at least one borrowed domain"
        assert all(d.lender_node == RICH for d in borrowed)
        # a lender never lends to an aggregator on its own host
        for d in borrowed:
            assert stack.comm.placement[d.aggregator_rank] != d.lender_node

    def test_hybrid_without_viable_lender_matches_remerge(self):
        """Uniformly poor cluster: hybrid finds no lender and remerges."""
        stack = make_borrow_stack(rich_bytes=6000)  # rich node also poor
        mem = {n.node_id: n.memory.free_available for n in stack.cluster.nodes}
        plans = {}
        for policy in ("remerge", "hybrid"):
            engine = MemoryConsciousCollectiveIO(
                stack.comm, stack.pfs, mcio_cfg(policy)
            )
            plans[policy] = engine.plan(block_patterns(), dict(mem))
        assert plans["hybrid"].domains == plans["remerge"].domains


class TestByteEquivalence:
    @pytest.mark.parametrize("policy", ["remerge", "borrow", "hybrid"])
    def test_write_image_identical_across_policies(self, policy):
        stack = make_borrow_stack()
        engine = MemoryConsciousCollectiveIO(
            stack.comm, stack.pfs, mcio_cfg(policy)
        )
        patterns = block_patterns()
        payloads = [rank_payload(r, NBYTES) for r in range(N_RANKS)]
        stats = run_write(stack, engine, patterns, payloads)
        assert_image(stack, patterns, payloads)
        if policy == "remerge":
            assert stats.leases_granted == 0 and stats.borrow_bytes == 0
        else:
            assert stats.leases_granted > 0 and stats.borrow_bytes > 0
        assert stack.cluster.memory_ledger.outstanding == 0

    @pytest.mark.parametrize("policy", ["borrow", "hybrid"])
    def test_read_payloads_identical_to_remerge(self, policy):
        def read_all(policy):
            stack = make_borrow_stack()
            patterns = block_patterns()
            for r, p in enumerate(patterns):
                stack.pfs.datastore.write(p.start, rank_payload(r, NBYTES))
            engine = MemoryConsciousCollectiveIO(
                stack.comm, stack.pfs, mcio_cfg(policy)
            )
            out = {}

            def main(ctx):
                out[ctx.rank] = yield from engine.read(ctx, patterns[ctx.rank])

            stack.run_spmd(main)
            return out

        baseline = read_all("remerge")
        got = read_all(policy)
        for r in range(N_RANKS):
            assert np.array_equal(got[r], baseline[r]), f"rank {r} read diverged"


class TestLeaseProtocolObservability:
    def test_counters_and_spans_on_healthy_borrow(self):
        stack = make_borrow_stack()
        tracer = Tracer(capacity=1 << 18)
        tracer.install(stack.env)
        engine = MemoryConsciousCollectiveIO(
            stack.comm, stack.pfs, mcio_cfg("borrow")
        )
        patterns = block_patterns()
        payloads = [rank_payload(r, NBYTES) for r in range(N_RANKS)]
        stats = run_write(stack, engine, patterns, payloads)
        ledger = stack.cluster.memory_ledger
        assert stats.leases_granted == ledger.granted > 0
        assert stats.leases_revoked == 0 and stats.borrow_fallbacks == 0
        assert ledger.released == ledger.granted
        names = {ev.name for ev in tracer.events()}
        assert "borrow.acquire" in names
        assert "borrow.stage" in names
        assert "borrow.release" in names
        assert "borrow.abort" not in names

    def test_lease_renewal_on_long_collective(self, monkeypatch):
        """A lease term shorter than the run forces mid-flight renewals.

        The term is sized from a fault-free probe so a round boundary
        lands inside the renewal window (less than half a term left)
        while the lease is still sound: the borrower must renew rather
        than expire.
        """
        probe_stack = make_borrow_stack()
        probe = MemoryConsciousCollectiveIO(
            probe_stack.comm, probe_stack.pfs, mcio_cfg("borrow")
        )
        patterns = block_patterns()
        payloads = [rank_payload(r, NBYTES) for r in range(N_RANKS)]
        elapsed = run_write(probe_stack, probe, patterns, payloads).elapsed

        monkeypatch.setattr(borrow, "LEASE_TERM", elapsed * 0.8)
        stack = make_borrow_stack()
        engine = MemoryConsciousCollectiveIO(
            stack.comm, stack.pfs, mcio_cfg("borrow")
        )
        stats = run_write(stack, engine, patterns, payloads)
        assert stats.leases_renewed > 0
        assert stats.leases_expired == 0
        assert stats.borrow_fallbacks == 0
        assert_image(stack, patterns, payloads)


class TestLenderFailure:
    def probe_elapsed(self, policy="borrow"):
        stack = make_borrow_stack()
        engine = MemoryConsciousCollectiveIO(
            stack.comm, stack.pfs, mcio_cfg(policy)
        )
        patterns = block_patterns()
        payloads = [rank_payload(r, NBYTES) for r in range(N_RANKS)]
        return run_write(stack, engine, patterns, payloads).elapsed

    def test_lender_crash_mid_round_degrades_to_remerge(self):
        fault_at = self.probe_elapsed() * 0.4
        stack = make_borrow_stack()
        tracer = Tracer(capacity=1 << 18)
        tracer.install(stack.env)
        engine = MemoryConsciousCollectiveIO(
            stack.comm, stack.pfs, mcio_cfg("borrow")
        )
        auditor = ConservationAuditor().attach(engine)
        patterns = block_patterns()
        payloads = [rank_payload(r, NBYTES) for r in range(N_RANKS)]
        stats = run_write(
            stack, engine, patterns, payloads,
            fault=lambda: stack.cluster.node_of(RICH).fail(),
            fault_at=fault_at,
        )
        # no hang, deterministic degradation, no lost bytes
        assert stats.tier == "remerge"
        assert stats.borrow_fallbacks == 1
        assert stats.leases_revoked >= 1
        assert "lender-failed" in stats.extra.get("borrow_fallback_reason", "")
        assert_image(stack, patterns, payloads)
        auditor.verify(patterns)
        assert stack.cluster.memory_ledger.outstanding == 0
        names = {ev.name for ev in tracer.events()}
        assert "borrow.abort" in names

    def test_memory_shock_revokes_leases_mid_round(self):
        fault_at = self.probe_elapsed() * 0.4
        stack = make_borrow_stack()
        engine = MemoryConsciousCollectiveIO(
            stack.comm, stack.pfs, mcio_cfg("borrow")
        )
        auditor = ConservationAuditor().attach(engine)
        patterns = block_patterns()
        payloads = [rank_payload(r, NBYTES) for r in range(N_RANKS)]
        node = stack.cluster.node_of(RICH)
        stats = run_write(
            stack, engine, patterns, payloads,
            fault=lambda: node.memory.apply_shock(node.memory.available),
            fault_at=fault_at,
        )
        assert stats.tier == "remerge"
        assert stats.borrow_fallbacks == 1
        assert stats.leases_revoked >= 1
        assert "memory-squeeze" in stats.extra.get("borrow_fallback_reason", "")
        assert_image(stack, patterns, payloads)
        auditor.verify(patterns)
        assert stack.cluster.memory_ledger.outstanding == 0

    def test_fault_free_borrow_needs_single_attempt(self):
        stack = make_borrow_stack()
        engine = MemoryConsciousCollectiveIO(
            stack.comm, stack.pfs, mcio_cfg("borrow")
        )
        auditor = ConservationAuditor().attach(engine)
        patterns = block_patterns()
        payloads = [rank_payload(r, NBYTES) for r in range(N_RANKS)]
        run_write(stack, engine, patterns, payloads)
        record = auditor.verify(patterns)
        assert record.attempts == 1


class TestAcquisitionContention:
    """A contender squeezes the lender *between* planning and acquisition.

    The planner reads per-node memory in the planning allgather; lease
    acquisition happens a few microseconds later.  A contender that
    allocates inside that window invalidates the plan's assumption
    without changing the plan itself — exactly the race the retry/backoff
    loop exists for.  The window bounds come from a fault-free probe's
    trace (memory snapshot = last planning allgather, acquisition =
    first ``borrow.acquire`` span).
    """

    def acquire_window(self):
        """(memory-snapshot time, acquisition time) from a probe trace."""
        stack = make_borrow_stack()
        tracer = Tracer(capacity=1 << 18)
        tracer.install(stack.env)
        engine = MemoryConsciousCollectiveIO(
            stack.comm, stack.pfs, mcio_cfg("borrow")
        )
        patterns = block_patterns()
        payloads = [rank_payload(r, NBYTES) for r in range(N_RANKS)]
        run_write(stack, engine, patterns, payloads)
        events = list(tracer.events())
        acquire_ts = min(
            ev.ts for ev in events if ev.name == "borrow.acquire"
        )
        snapshot_ts = max(
            ev.ts
            for ev in events
            if ev.name == "coll.allgather" and ev.ts < acquire_ts
        )
        assert snapshot_ts < acquire_ts
        return snapshot_ts, acquire_ts

    def contended_run(self, release_at=None):
        """Run a borrow write whose lender is squeezed pre-acquisition."""
        snapshot_ts, acquire_ts = self.acquire_window()
        stack = make_borrow_stack()
        node = stack.cluster.node_of(RICH)
        engine = MemoryConsciousCollectiveIO(
            stack.comm, stack.pfs, mcio_cfg("borrow")
        )
        patterns = block_patterns()
        payloads = [rank_payload(r, NBYTES) for r in range(N_RANKS)]

        def main(ctx):
            if ctx.rank == 0:
                def contender():
                    # land after the planner's memory snapshot but
                    # before the first grant attempt
                    yield ctx.env.sleep((snapshot_ts + acquire_ts) / 2)
                    blob = node.memory.alloc(
                        node.memory.free_available - 4 * KIB,
                        label="contender",
                    )
                    if release_at is not None:
                        yield ctx.env.sleep(release_at)
                        node.memory.free(blob)
                ctx.spawn(contender(), name="contender")
            yield from engine.write(ctx, patterns[ctx.rank], payloads[ctx.rank])

        stack.run_spmd(main)
        return stack, engine.history[-1], patterns, payloads

    def test_backoff_retry_wins_after_contender_releases(self):
        # released inside the capped-backoff window (~1.5 ms for the
        # default base 1e-4 / limit 4), so a later retry sees free memory
        stack, stats, patterns, payloads = self.contended_run(release_at=3e-4)
        assert stats.leases_granted > 0
        assert stack.cluster.memory_ledger.denied > 0
        assert stats.borrow_fallbacks == 0
        assert stack.cluster.memory_ledger.outstanding == 0
        assert_image(stack, patterns, payloads)

    def test_exhausted_retries_degrade_before_any_byte_moves(self):
        stack, stats, patterns, payloads = self.contended_run(release_at=None)
        assert stats.borrow_fallbacks == 1
        assert stats.extra.get("borrow_fallback_round") == -1
        assert "acquire-exhausted" in stats.extra.get(
            "borrow_fallback_reason", ""
        )
        assert stats.borrow_bytes == 0
        assert stack.cluster.memory_ledger.denied > 0
        assert stack.cluster.memory_ledger.outstanding == 0
        assert_image(stack, patterns, payloads)
