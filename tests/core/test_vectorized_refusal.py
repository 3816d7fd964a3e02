"""Mode auto-selection negative paths: when vectorization must refuse.

A collective with an active fault schedule, a currently failed node,
or a data plane cannot be simulated at node level without changing
behaviour — the path decision must refuse, fall back to
per-rank coroutines and record ``"vectorized:<reason>"`` in
``CollectiveStats.path``.  And the fallback itself must be *exactly* the
run a plain per-rank engine would have produced.
"""

from __future__ import annotations

import pytest

from repro.core import MCIOConfig, MemoryConsciousCollectiveIO
from repro.core.path import PathDecision
from repro.core.request import AccessPattern
from repro.core.vectorized import run_vectorized_collective
from repro.faults import FaultEvent, FaultInjector, FaultSchedule

from tests.helpers import assert_stats_equivalent, make_stack

N_RANKS = 12
BASE = dict(
    msg_group=16 * 1024,
    msg_ind=2 * 1024,
    mem_min=0,
    nah=2,
    min_buffer=1,
)


def patterns():
    return [AccessPattern.contiguous(r * 4096, 4096) for r in range(N_RANKS)]


def refused(reason: str) -> PathDecision:
    """The fallback ran lockstep after the node-level driver refused."""
    return PathDecision("lockstep", (f"vectorized:{reason}",))


def vec_config(**overrides) -> MCIOConfig:
    kwargs = dict(BASE, execution_mode="vectorized")
    kwargs.update(overrides)
    return MCIOConfig(**kwargs)


class TestRefusalReasons:
    def test_data_plane(self):
        stack = make_stack(n_ranks=N_RANKS, with_data=True)
        engine = MemoryConsciousCollectiveIO(stack.comm, stack.pfs, vec_config())
        stats = run_vectorized_collective(engine, patterns(), "write")
        assert stats.path == refused("data-plane")
        assert stats.execution_mode == "per-rank"

    def test_payloads_alone_refuse(self):
        """Even without a datastore, real payload buffers force per-rank."""
        import numpy as np

        stack = make_stack(n_ranks=N_RANKS, with_data=False)
        engine = MemoryConsciousCollectiveIO(stack.comm, stack.pfs, vec_config())
        payloads = [np.zeros(4096, dtype=np.uint8) for _ in range(N_RANKS)]
        stats = run_vectorized_collective(
            engine, patterns(), "write", payloads=payloads
        )
        assert stats.path == refused("data-plane")

    def test_fault_schedule(self):
        stack = make_stack(n_ranks=N_RANKS, with_data=False)
        engine = MemoryConsciousCollectiveIO(stack.comm, stack.pfs, vec_config())
        schedule = FaultSchedule(
            [FaultEvent(time=1e9, kind="node_failure", target=0)]
        )
        injector = FaultInjector(stack.env, stack.cluster, stack.pfs, schedule)
        engine.watch_faults(injector)
        stats = run_vectorized_collective(engine, patterns(), "write")
        assert stats.path == refused("fault-schedule")

    def test_empty_fault_schedule_does_not_refuse(self):
        """Watching an injector with no events keeps vectorization on."""
        stack = make_stack(n_ranks=N_RANKS, with_data=False)
        engine = MemoryConsciousCollectiveIO(stack.comm, stack.pfs, vec_config())
        injector = FaultInjector(
            stack.env, stack.cluster, stack.pfs, FaultSchedule()
        )
        engine.watch_faults(injector)
        stats = run_vectorized_collective(engine, patterns(), "write")
        assert stats.path == PathDecision("vectorized")
        assert stats.execution_mode == "vectorized"

    @pytest.mark.parametrize("failover", [False, True])
    def test_failed_node(self, failover):
        """A crippled host (with or without mid-run failover armed) is
        per-rank territory: degraded-mode timing and the failover
        machinery live in rank coroutines."""
        stack = make_stack(n_ranks=N_RANKS, with_data=False)
        engine = MemoryConsciousCollectiveIO(
            stack.comm, stack.pfs, vec_config(failover=failover)
        )
        stack.cluster.nodes[1].fail()
        stats = run_vectorized_collective(engine, patterns(), "write")
        assert stats.path == refused("failed-nodes")

    def test_failover_config_alone_does_not_refuse(self):
        """failover=True with a healthy cluster stays vectorized — the
        per-rank failover check is event-free when nothing failed."""
        stack = make_stack(n_ranks=N_RANKS, with_data=False)
        engine = MemoryConsciousCollectiveIO(
            stack.comm, stack.pfs, vec_config(failover=True)
        )
        stats = run_vectorized_collective(engine, patterns(), "write")
        assert stats.path == PathDecision("vectorized")


class TestFallbackFidelity:
    """The refused run must equal a pure per-rank run of the scenario."""

    def test_failed_node_fallback_matches_per_rank(self):
        def scenario(mode):
            stack = make_stack(n_ranks=N_RANKS, with_data=False)
            stack.cluster.nodes[1].fail()
            engine = MemoryConsciousCollectiveIO(
                stack.comm, stack.pfs, vec_config(execution_mode=mode)
            )
            if mode == "vectorized":
                run_vectorized_collective(engine, patterns(), "write")
            else:
                pats = patterns()

                def main(ctx):
                    yield from engine.write(ctx, pats[ctx.rank])

                stack.run_spmd(main)
            return engine.history[-1], stack

        got, got_stack = scenario("vectorized")
        want, want_stack = scenario("per-rank")
        assert_stats_equivalent(want, got)
        # bit-identical timing too: the fallback IS the per-rank path
        assert float(got_stack.env.now).hex() == float(want_stack.env.now).hex()
        assert got.elapsed == want.elapsed


class TestModeSelection:
    def test_vectorized_mode_dispatches_through_harness(self):
        """execution_mode="vectorized" routes run_collective to the driver."""
        from repro.cluster import ClusterSpec, NodeSpec, StorageSpec
        from repro.experiments.harness import Platform, run_collective

        spec = ClusterSpec(
            nodes=3,
            node=NodeSpec(
                cores=4,
                memory_bytes=10**9,
                memory_bandwidth=1e8,
                memory_channels=2,
                nic_bandwidth=1e7,
                nic_latency=1e-6,
            ),
            storage=StorageSpec(
                servers=4,
                server_bandwidth=1e6,
                request_overhead=1e-3,
                stripe_size=256,
            ),
        )
        platform = Platform.build(spec, N_RANKS, with_data=False)
        engine = MemoryConsciousCollectiveIO(
            platform.comm, platform.pfs, vec_config()
        )
        stats = run_collective(platform, engine, patterns(), ops=("write",))
        assert stats[0].path == PathDecision("vectorized")

    @pytest.mark.parametrize("mode", ['auto', 'sharded'])
    def test_retired_modes_rejected(self, mode):
        """Only "per-rank" and "vectorized" remain valid spellings."""
        with pytest.raises(ValueError, match="execution_mode"):
            MCIOConfig(**BASE, execution_mode=mode)

    def test_per_rank_mode_ignores_driver(self):
        """The default mode runs SPMD exactly as before this feature."""
        stack = make_stack(n_ranks=N_RANKS, with_data=False)
        engine = MemoryConsciousCollectiveIO(
            stack.comm, stack.pfs, MCIOConfig(**BASE)
        )
        pats = patterns()

        def main(ctx):
            yield from engine.write(ctx, pats[ctx.rank])

        stack.run_spmd(main)
        stats = engine.history[-1]
        assert stats.path == PathDecision("lockstep")
        assert stats.execution_mode == "per-rank"

    def test_bad_op_rejected(self):
        stack = make_stack(n_ranks=N_RANKS, with_data=False)
        engine = MemoryConsciousCollectiveIO(stack.comm, stack.pfs, vec_config())
        with pytest.raises(ValueError, match="op must be"):
            run_vectorized_collective(engine, patterns(), "append")

    def test_bad_execution_mode_rejected(self):
        with pytest.raises(ValueError, match="execution_mode"):
            MCIOConfig(execution_mode="warp", **BASE)


class TestNoLeak:
    def test_raising_fallback_leaves_no_refusal_behind(self):
        """A refused collective that raises records nothing on the engine:
        the next collective carries its own decision and no other."""
        import numpy as np

        stack = make_stack(n_ranks=N_RANKS, with_data=False)
        engine = MemoryConsciousCollectiveIO(stack.comm, stack.pfs, vec_config())
        short = [np.zeros(10, dtype=np.uint8) for _ in range(N_RANKS)]
        with pytest.raises(ValueError, match="payload"):
            run_vectorized_collective(engine, patterns(), "write", payloads=short)
        stats = run_vectorized_collective(engine, patterns(), "write")
        assert stats.path == PathDecision("vectorized")
