"""Kernel-tier micro-benchmarks for the fast-path optimisations.

Four groups, matching the optimised layers:

* **event loop** — raw discrete-event throughput of the simulation
  kernel on a long chain of unit delays.  The chain uses
  ``Environment.sleep`` (the pooled, allocation-free fast path) when
  the tree provides it and falls back to ``Environment.timeout`` on
  older trees, so running this same file on an earlier commit measures
  the end-to-end win of the fast path;
* **shuffle round** — one lockstep exchange round (every member sends
  to every aggregator), one simulated message per pair, as the per-rank
  engine exchanges it;
* **remerge-heavy planning** — MCIO planning under memory pressure,
  where aggregator placement restarts repeatedly remerge the partition
  tree and re-query subtree extents;
* **storage burst** — many clients issuing contiguous extents against
  16 I/O servers at once: the NIC and server-request holds behind every
  aggregator write and read.

Run with::

    PYTHONPATH=src python -m pytest benchmarks -q --benchmark-json=BENCH_2.json

The resulting ``BENCH_2.json`` is the trajectory artifact compared
across PRs; these tests also assert functional results so a silent
fast-path regression fails loudly rather than just slowly.
"""

from repro.cluster import Cluster, ClusterSpec, NodeSpec, StorageSpec, block_placement
from repro.core import MCIOConfig, MemoryConsciousCollectiveIO
from repro.core.request import AccessPattern, Extent, StridedSegment
from repro.mpi import SimComm
from repro.pfs import ParallelFileSystem, SparseFile
from repro.sim import Environment, RngFactory


# ---------------------------------------------------------------------------
# event-loop throughput
# ---------------------------------------------------------------------------
def _spin(n_steps):
    env = Environment()

    def ticker(env, n):
        # pooled-sleep fast path where available, plain timeouts otherwise
        delay = getattr(env, "sleep", env.timeout)
        for _ in range(n):
            yield delay(1.0)

    env.process(ticker(env, n_steps))
    env.run()
    return env.now


def test_event_loop_chain(benchmark):
    """A 20k-step chain of unit delays: pure kernel event throughput."""
    assert benchmark(_spin, 20_000) == 20_000.0


def _spin_with_tracer(n_steps, tracer_factory):
    env = Environment()
    tracer_factory().install(env)

    def ticker(env, n):
        delay = getattr(env, "sleep", env.timeout)
        for _ in range(n):
            yield delay(1.0)

    env.process(ticker(env, n_steps))
    env.run()
    return env.now


def test_event_loop_chain_tracer_off(benchmark):
    """The same chain with a *disabled* tracer installed.

    This is the zero-cost-when-disabled claim in benchmark form: every
    instrumentation site guards on ``tracer.enabled``, so the median here
    must track ``test_event_loop_chain`` closely (CI compares the two via
    ``compact_bench.py overhead``, warn-only, 5% threshold).
    """
    from repro.obs import Tracer

    result = benchmark(
        _spin_with_tracer, 20_000, lambda: Tracer(enabled=False)
    )
    assert result == 20_000.0


def test_event_loop_chain_traced(benchmark):
    """The same chain with tracing *enabled* (ring-buffer recording on).

    Not part of the overhead gate — it bounds what enabling tracing
    costs on the kernel's hottest path, for the DESIGN.md numbers.
    """
    from repro.obs import Tracer

    result = benchmark(
        _spin_with_tracer, 20_000, lambda: Tracer(capacity=1024)
    )
    assert result == 20_000.0


# ---------------------------------------------------------------------------
# shuffle round: one message per (member, aggregator) pair
# ---------------------------------------------------------------------------
N_RANKS, N_NODES, CORES = 48, 12, 4


def _shuffle_stack():
    env = Environment()
    spec = ClusterSpec(
        nodes=N_NODES,
        node=NodeSpec(
            cores=CORES,
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
    cluster = Cluster(env, spec, RngFactory(42))
    comm = SimComm(env, cluster, block_placement(N_RANKS, N_NODES, CORES))
    pfs = ParallelFileSystem(env, spec.storage, datastore=SparseFile())
    return env, comm, pfs


MSG_BYTES = 1024


class _ShuffleRoundBench:
    """One lockstep shuffle round: every member sends to every aggregator.

    This isolates the exchange machinery (the O(members x aggregators)
    message pattern of two-phase I/O) from planning, request algebra,
    and the PFS — those have their own benchmarks.  The timed unit is
    one full round: the sends, the aggregators' receives, and the
    closing barrier.
    """

    def __init__(self):
        self.env, self.comm, _ = _shuffle_stack()
        #: One aggregator per node: its first rank.
        self.aggs = [self.comm.ranks_on_node(nid)[0] for nid in range(N_NODES)]
        self.round_no = 0

    def run_round(self):
        comm, aggs = self.comm, self.aggs
        agg_set = frozenset(aggs)
        tag = ("sh", self.round_no)
        self.round_no += 1
        n_senders = comm.size - len(aggs)
        received = [0]

        def main(ctx):
            if ctx.rank in agg_set:
                for _ in range(n_senders):
                    yield from comm.recv(ctx, tag=tag)
                    received[0] += 1
            else:
                for agg in aggs:
                    yield from comm.send(ctx, agg, MSG_BYTES, tag=tag)
            yield from comm.barrier(ctx)

        comm.run_spmd(main)
        return received[0]


def test_shuffle_round_per_message(benchmark):
    """One simulated message per (member, aggregator) pair."""
    bench = _ShuffleRoundBench()
    assert benchmark(bench.run_round) == (N_RANKS - N_NODES) * N_NODES


# ---------------------------------------------------------------------------
# storage burst: contiguous extents from many clients on 16 servers
# ---------------------------------------------------------------------------
BURST_NODES, BURST_CLIENTS, BURST_SERVERS = 32, 256, 16
BURST_STRIPE = 1 << 20
#: Per client: four 2.5-stripe extents, written and then read back.
BURST_EXTENTS, BURST_EXTENT_BYTES = 4, 5 * BURST_STRIPE // 2


def _pfs_extent_burst():
    env = Environment()
    spec = ClusterSpec(
        nodes=BURST_NODES,
        node=NodeSpec(
            cores=8,
            memory_bytes=10**9,
            memory_bandwidth=1e10,
            memory_channels=2,
            nic_bandwidth=5e9,
            nic_latency=1e-6,
        ),
        storage=StorageSpec(
            servers=BURST_SERVERS,
            server_bandwidth=5e8,
            request_overhead=3e-3,
            stripe_size=BURST_STRIPE,
        ),
    )
    cluster = Cluster(env, spec, RngFactory(0))
    pfs = ParallelFileSystem(env, spec.storage)

    def client(c):
        node = cluster.nodes[c % BURST_NODES]
        extents = [
            Extent((c * BURST_EXTENTS + i) * BURST_EXTENT_BYTES, BURST_EXTENT_BYTES)
            for i in range(BURST_EXTENTS)
        ]
        for ext in extents:
            yield from pfs.write_extent(node, ext)
        for ext in extents:
            yield from pfs.read_extent(node, ext)

    for c in range(BURST_CLIENTS):
        env.process(client(c))
    env.run()
    return pfs.bytes_written, pfs.bytes_read, sum(
        requests for _, _, requests in pfs.server_stats()
    )


def test_pfs_extent_burst(benchmark):
    """256 clients, 2,048 contiguous extents on 16 servers: each extent
    is one NIC hold plus a request on each of the 3 servers it touches."""
    total = BURST_CLIENTS * BURST_EXTENTS * BURST_EXTENT_BYTES
    ops = 2 * BURST_CLIENTS * BURST_EXTENTS
    assert benchmark(_pfs_extent_burst) == (total, total, 3 * ops)


# ---------------------------------------------------------------------------
# remerge-heavy planning
# ---------------------------------------------------------------------------
def test_remerge_heavy_planning(benchmark):
    """MCIO planning under memory pressure: placement restarts + remerges."""
    n_ranks, n_nodes, cores = 64, 8, 8
    env = Environment()
    spec = ClusterSpec(nodes=n_nodes, node=NodeSpec(cores=cores))
    cluster = Cluster(env, spec, RngFactory(0))
    comm = SimComm(env, cluster, block_placement(n_ranks, n_nodes, cores))
    pfs = ParallelFileSystem(env, spec.storage)
    engine = MemoryConsciousCollectiveIO(
        comm,
        pfs,
        MCIOConfig(
            msg_group=1 << 22,
            msg_ind=1 << 14,  # fine leaves: deep trees, many remerges
            mem_min=0,
            nah=2,
            min_buffer=1,
        ),
    )
    block = 1 << 13
    stride = block * n_ranks
    patterns = [
        AccessPattern((StridedSegment(r * block, block, stride, 16),))
        for r in range(n_ranks)
    ]
    # skewed availability forces placement restarts (and thus remerging)
    avail = {i: (1 << 16) if i % 2 else (1 << 24) for i in range(n_nodes)}

    def run():
        return len(engine.plan(patterns, dict(avail)).domains)

    assert benchmark(run) > 0


# ---------------------------------------------------------------------------
# cold planning through engine.plan, as every blocking collective
# ---------------------------------------------------------------------------
def _planning_workload():
    """The remerge-heavy setup above, planned cold."""
    n_ranks, n_nodes, cores = 64, 8, 8
    env = Environment()
    spec = ClusterSpec(nodes=n_nodes, node=NodeSpec(cores=cores))
    cluster = Cluster(env, spec, RngFactory(0))
    comm = SimComm(env, cluster, block_placement(n_ranks, n_nodes, cores))
    pfs = ParallelFileSystem(env, spec.storage)
    engine = MemoryConsciousCollectiveIO(
        comm,
        pfs,
        MCIOConfig(
            msg_group=1 << 22,
            msg_ind=1 << 14,
            mem_min=0,
            nah=2,
            min_buffer=1,
        ),
    )
    block = 1 << 13
    stride = block * n_ranks
    patterns = [
        AccessPattern((StridedSegment(r * block, block, stride, 16),))
        for r in range(n_ranks)
    ]
    avail = {i: (1 << 16) if i % 2 else (1 << 24) for i in range(n_nodes)}
    return engine, patterns, avail


def test_plan_cold(benchmark):
    """Every collective re-runs the full four-component pipeline."""
    engine, patterns, avail = _planning_workload()

    def run():
        return len(engine.plan(patterns, dict(avail)).domains)

    assert benchmark(run) > 0
