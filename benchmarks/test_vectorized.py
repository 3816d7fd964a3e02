"""Benchmark tier for the node-level vectorized execution mode.

Two cells pin the scaling story on the trajectory:

* the *same* 10^4-rank workload through the vectorized driver — the
  headline cost of simulating a collective at node granularity;
* planning alone at 10^5 ranks over a :class:`PatternArray`, the
  array-speed path the driver depends on.

Run with::

    PYTHONPATH=src python -m pytest benchmarks -q --benchmark-json=BENCH_FULL.json

Functional results are asserted so a silent fast-path regression fails
loudly rather than just slowly.
"""

from repro.cluster import MIB
from repro.core import MCIOConfig, MemoryConsciousCollectiveIO
from repro.core.pattern_array import PatternArray
from repro.core.vectorized import run_vectorized_collective
from repro.experiments.harness import Platform
from repro.experiments.scale_sweep import build_spec

RANKS_PER_NODE = 64
BYTES_PER_RANK = 256 * 1024


def _vec_engine(n_ranks):
    n_nodes = -(-n_ranks // RANKS_PER_NODE)
    platform = Platform.build(build_spec(n_nodes, RANKS_PER_NODE), n_ranks)
    engine = MemoryConsciousCollectiveIO(
        platform.comm,
        platform.pfs,
        MCIOConfig(
            msg_group=1 << 40,
            msg_ind=64 * MIB,
            mem_min=0,
            nah=4,
            cb_buffer_size=64 * MIB,
            min_buffer=1 * MIB,
            execution_mode="vectorized",
        ),
    )
    return engine, PatternArray.tiled(n_ranks, BYTES_PER_RANK)


def test_vectorized_collective_10k(benchmark):
    """One full 10^4-rank collective write at node-level granularity."""
    engine, patterns = _vec_engine(10_000)

    def run():
        stats = run_vectorized_collective(engine, patterns, "write")
        assert stats.execution_mode == "vectorized"
        return stats.total_bytes

    assert benchmark(run) == 10_000 * BYTES_PER_RANK


def test_vectorized_planning_100k(benchmark):
    """Array-speed MCIO planning alone at 10^5 ranks (no execution)."""
    engine, patterns = _vec_engine(100_000)
    avail = {
        node.node_id: node.memory.free_available
        for node in engine.comm.cluster.nodes
    }

    def run():
        return len(engine.plan(patterns, dict(avail)).domains)

    assert benchmark(run) > 0
