"""Micro-benchmarks of the hot component paths.

Unlike the figure benchmarks (one full simulated collective per round),
these run many iterations and track the library's own performance:
extent algebra, partition-tree construction, group division, planning,
and raw discrete-event throughput.
"""

import numpy as np

from repro.cluster import Cluster, ClusterSpec, NodeSpec, block_placement
from repro.core import MCIOConfig, MemoryConsciousCollectiveIO, TwoPhaseCollectiveIO
from repro.core.engine import ExecutionPlan
from repro.core.filedomain import FileDomain, even_domains
from repro.core.group_division import divide_groups
from repro.core.partition_tree import PartitionTree
from repro.core.pattern_array import FileViewIndex
from repro.core.request import AccessPattern, Extent, StridedSegment, window_union
from repro.mpi import SimComm, subarray_view_3d
from repro.pfs import ParallelFileSystem
from repro.sim import Environment, RngFactory
from repro.workloads import CollPerfWorkload, IORWorkload, pattern_bytes


def test_strided_bytes_in(benchmark):
    seg = StridedSegment(offset=0, block=4096, stride=1 << 20, count=4096)

    def run():
        total = 0
        for i in range(1000):
            total += seg.bytes_in(i * 1000, i * 1000 + 500_000)
        return total

    assert benchmark(run) > 0


def test_pattern_clip_3d(benchmark):
    view = subarray_view_3d((256, 256, 256), (64, 64, 64), (64, 64, 64), 4)

    def run():
        total = 0
        for i in range(100):
            q = view.clip(i * 100_000, i * 100_000 + 5_000_000)
            total += q.nbytes
        return total

    benchmark(run)


def test_window_union_million_blocks(benchmark):
    """One aggregator window holding 10^6 blocks from 100 senders: the
    exact block-array union, with one hole per 100-block period."""
    n, count, block = 100, 10_000, 8
    stride = (n + 1) * block
    patterns = [
        AccessPattern((StridedSegment(r * block, block, stride, count),))
        for r in range(n)
    ]
    window = Extent(0, count * stride)

    def run():
        return len(window_union(patterns, range(n), window))

    assert benchmark(run) == count


def test_file_view_queries(benchmark):
    """The planner's and the drivers' window queries over the
    fig6-collperf views (coll_perf 128x128x1024 x 4 B on 120 ranks):
    index the views once, grow one partition tree on the group-bytes
    query, then take every leaf's senders and window union."""
    patterns = CollPerfWorkload(array_shape=(128, 128, 1024), n_ranks=120).patterns()
    lo = min(p.start for p in patterns)
    region = Extent(lo, max(p.end for p in patterns) - lo)

    def run():
        views = FileViewIndex(patterns)
        tree = PartitionTree(
            region, views.sum_bytes_in, msg_ind=1 << 20, stripe_size=1 << 16
        )
        covered = 0
        for leaf in tree.leaves():
            window = leaf.extent
            senders = views.senders_in(window.offset, window.end)
            covered += sum(e.length for e in window_union(views, senders, window))
        return tree.n_leaves, covered

    # the array tiles the file: every leaf's union is the whole leaf
    assert benchmark(run) == (64, region.length)


def test_partition_tree_build(benchmark):
    region = Extent(0, 1 << 30)

    def run():
        tree = PartitionTree(region, lambda lo, hi: hi - lo, msg_ind=1 << 22,
                             stripe_size=1 << 20)
        return tree.n_leaves

    assert benchmark(run) == 256


def test_group_division_1080_ranks(benchmark):
    workload = IORWorkload(n_ranks=1080, block_size=1 << 19, segments=4)
    patterns = workload.patterns()
    placement = [r // 12 for r in range(1080)]

    def run():
        return len(divide_groups(patterns, placement, msg_group=96 << 20,
                                 stripe_size=1 << 20))

    assert benchmark(run) > 1


def test_execution_plan_build_1080_ranks(benchmark):
    """Sender lists for the Figure 8 interleaved IOR pattern: 1080
    ranks, 90 domains, each rank's blocks in only a few of them."""
    workload = IORWorkload(n_ranks=1080, block_size=1 << 19, segments=2)
    patterns = workload.patterns()
    lo = min(p.start for p in patterns)
    hi = max(p.end for p in patterns)
    domains = [
        FileDomain(extent, aggregator_rank=i * 12, buffer_bytes=4 << 20)
        for i, extent in enumerate(even_domains(lo, hi, 90, 1 << 20))
    ]

    def run():
        return sum(map(len, ExecutionPlan.build(domains, patterns).senders))

    assert benchmark(run) >= 1080


def test_mcio_planning_120_ranks(benchmark):
    workload = CollPerfWorkload(array_shape=(256, 256, 256), n_ranks=120)
    patterns = workload.patterns()
    env = Environment()
    spec = ClusterSpec(nodes=10, node=NodeSpec())
    cluster = Cluster(env, spec, RngFactory(0))
    comm = SimComm(env, cluster, block_placement(120, 10, 12))
    pfs = ParallelFileSystem(env, spec.storage)
    engine = MemoryConsciousCollectiveIO(
        comm, pfs,
        MCIOConfig(msg_group=16 << 20, msg_ind=4 << 20, mem_min=0, nah=2),
    )
    avail = {i: 1 << 30 for i in range(10)}

    def run():
        return len(engine.plan(patterns, dict(avail)).domains)

    assert benchmark(run) > 0


def test_two_phase_planning_120_ranks(benchmark):
    workload = CollPerfWorkload(array_shape=(256, 256, 256), n_ranks=120)
    patterns = workload.patterns()
    env = Environment()
    spec = ClusterSpec(nodes=10, node=NodeSpec())
    cluster = Cluster(env, spec, RngFactory(0))
    comm = SimComm(env, cluster, block_placement(120, 10, 12))
    pfs = ParallelFileSystem(env, spec.storage)
    engine = TwoPhaseCollectiveIO(comm, pfs)

    def run():
        return len(engine.plan(patterns).domains)

    assert benchmark(run) == 10


def test_event_engine_throughput(benchmark):
    """Raw DES throughput: ping-pong processes exchanging events."""

    def run():
        env = Environment()
        counter = [0]

        def ping(env, n):
            for _ in range(n):
                yield env.timeout(1.0)
                counter[0] += 1

        for _ in range(10):
            env.process(ping(env, 500))
        env.run()
        return counter[0]

    assert benchmark(run) == 5000


def test_workload_generation_paper_scale(benchmark):
    """Generating the 32 GB coll_perf pattern set must stay cheap."""

    def run():
        w = CollPerfWorkload.paper()
        patterns = w.patterns()
        return sum(p.nbytes for p in patterns)

    assert benchmark(run) == 32 * 1024**3


def test_pattern_bytes_500k(benchmark):
    """One 500 kB checkpoint block of verifiable payload bytes."""
    out = benchmark(pattern_bytes, 500_000, 5 * 97 + 13)
    assert out.shape == (500_000,) and out[251] == out[0]
