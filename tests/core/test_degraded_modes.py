"""Graceful degradation: the paged last resort and chaos determinism."""

import numpy as np

from repro.cluster.background import BackgroundLoad
from repro.core import (
    ConservationAuditor,
    MCIOConfig,
    MemoryConsciousCollectiveIO,
    TwoPhaseCollectiveIO,
    TwoPhaseConfig,
)
from repro.core.request import AccessPattern, Extent, StridedSegment
from repro.faults import FaultInjector, FaultSchedule

from tests.helpers import make_stack, rank_payload

KIB = 1024
MIB = 1024 * 1024


def make_engine(stack, **kw):
    defaults = dict(
        msg_group=64 * MIB, msg_ind=64 * MIB, mem_min=0, nah=2,
        cb_buffer_size=64 * KIB,
    )
    defaults.update(kw)
    return MemoryConsciousCollectiveIO(
        stack.comm, stack.pfs, MCIOConfig(**defaults)
    )


def contiguous_patterns(n, width):
    return [AccessPattern.contiguous(r * width, width) for r in range(n)]


def roundtrip_write(stack, engine, make_pattern):
    payloads = {}

    def main(ctx):
        pattern = make_pattern(ctx.rank)
        payloads[ctx.rank] = rank_payload(ctx.rank, pattern.nbytes)
        yield from engine.write(ctx, pattern, payloads[ctx.rank].copy())

    stack.run_spmd(main)
    return payloads


def verify_contiguous(stack, payloads, width):
    for rank, payload in payloads.items():
        got = stack.pfs.datastore.read(rank * width, width)
        np.testing.assert_array_equal(
            got, payload, err_msg=f"rank {rank} data corrupt"
        )


class TestPlanFailurePaths:
    def test_paged_fallback_enabled_plans_anyway(self):
        stack = make_stack()
        engine = make_engine(stack)
        patterns = contiguous_patterns(stack.comm.size, 1 * MIB)
        memory = {n: 1024 for n in range(3)}
        plan = engine.plan(patterns, memory)
        assert any(d.paged for d in plan.domains)

    def test_failed_nodes_soft_excluded(self):
        stack = make_stack()
        engine = make_engine(stack)
        patterns = contiguous_patterns(stack.comm.size, 256 * KIB)
        memory = {n: 10**8 for n in range(3)}
        plan = engine.plan(patterns, memory, failed_nodes=frozenset({0}))
        for d in plan.domains:
            assert stack.comm.placement[d.aggregator_rank] != 0

    def test_every_node_failed_pages_every_aggregator(self):
        """No live host at all: the paged placement is the last resort,
        so the write still plans, runs lockstep and round-trips."""
        stack = make_stack()
        for node in stack.cluster.nodes:
            node.fail()
        engine = make_engine(stack)
        width = 256 * KIB
        payloads = roundtrip_write(
            stack, engine, lambda r: AccessPattern.contiguous(r * width, width)
        )
        stats = engine.history[-1]
        assert stats.path.driver == "lockstep"
        assert stats.degraded_tier is None
        assert stats.agg_buffer_bytes
        assert stats.paged_aggregators == len(stats.agg_buffer_bytes)
        verify_contiguous(stack, payloads, width)


class TestExactUnionAtScale:
    def test_large_window_union_is_exact(self):
        """One lockstep window of 240,000 interleaved blocks with a hole:
        the aggregator writes exactly the requested bytes, never a
        covering extent over the hole, and the data round-trips."""
        stack = make_stack()
        n = stack.comm.size
        chunk, count, hole = 4, 10_000, 4 * KIB
        period = n * chunk * count

        def pattern(rank):
            # two tiled runs of `count` blocks per rank, `hole` bytes apart
            return AccessPattern((
                StridedSegment(rank * chunk, chunk, n * chunk, count),
                StridedSegment(
                    period + hole + rank * chunk, chunk, n * chunk, count
                ),
            ))

        assert n * pattern(0).block_count > 200_000
        # one aggregator whose buffer holds the whole file region: a
        # single window carries every block
        engine = TwoPhaseCollectiveIO(
            stack.comm, stack.pfs,
            TwoPhaseConfig(cb_buffer_size=4 * period, cb_nodes=1),
        )
        auditor = ConservationAuditor()
        auditor.attach(engine)
        payloads = roundtrip_write(stack, engine, pattern)

        stats = engine.history[-1]
        assert stats.total_bytes == 2 * period
        assert auditor.records[-1].extents == [
            Extent(0, period),
            Extent(period + hole, period),
        ]
        # rank r owns block r of every n-block period, in both runs
        want = np.empty((2 * count, n, chunk), dtype=np.uint8)
        for rank, payload in payloads.items():
            want[:, rank, :] = payload.reshape(2 * count, chunk)
        want = want.reshape(2, period)
        store = stack.pfs.datastore
        np.testing.assert_array_equal(store.read(0, period), want[0])
        np.testing.assert_array_equal(store.read(period + hole, period), want[1])


class TestChaosDeterminism:
    """Same seed => byte-identical stats, even under background churn
    and injected faults."""

    WIDTH = 256 * KIB

    def _chaos_run(self, seed):
        stack = make_stack(seed=seed, memory_bytes=10**7)
        load = BackgroundLoad(
            stack.cluster, mean_bytes=8 * 10**6, sigma_bytes=10**6,
            period=0.05,
        )
        load.start()
        schedule = FaultSchedule.generate(
            seed,
            horizon=5.0,
            n_servers=len(stack.pfs.servers),
            n_nodes=3,
            server_slowdown_rate=0.5,
            server_outage_rate=0.2,
            memory_shock_rate=0.5,
            node_failure_rate=0.2,
            failure_duration=1.0,
            spare_nodes=(2,),
        )
        injector = FaultInjector(stack.env, stack.cluster, stack.pfs, schedule)
        injector.start()
        from repro.pfs import RetryPolicy

        stack.pfs.retry = RetryPolicy(
            request_timeout=30.0, backoff_base=0.01, backoff_cap=0.2,
            max_retries=25,
        )
        engine = make_engine(stack, nah=4)
        roundtrip_write(
            stack, engine, lambda r: AccessPattern.contiguous(
                r * self.WIDTH, self.WIDTH)
        )
        injector.stop()
        load.stop()
        return engine.history[-1]

    def test_same_seed_identical_stats(self):
        a = self._chaos_run(11)
        b = self._chaos_run(11)
        assert a == b

    def test_different_seed_differs(self):
        a = self._chaos_run(11)
        b = self._chaos_run(12)
        assert a != b
