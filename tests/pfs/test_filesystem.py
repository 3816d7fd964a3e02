"""Tests for the parallel file system facade (timing + data integrity)."""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterSpec, NodeSpec, StorageSpec
from repro.core.request import AccessPattern, Extent, StridedSegment
from repro.pfs import ParallelFileSystem, SparseFile
from repro.sim import Environment, RngFactory


def make_pfs(
    servers=4,
    server_bandwidth=100.0,
    request_overhead=1.0,
    stripe_size=100,
    with_data=True,
    nic_bandwidth=1e6,
):
    env = Environment()
    spec = ClusterSpec(
        nodes=2,
        node=NodeSpec(
            cores=4,
            memory_bytes=10**9,
            memory_bandwidth=1e9,
            memory_channels=2,
            nic_bandwidth=nic_bandwidth,
            nic_latency=0.0,
        ),
        storage=StorageSpec(
            servers=servers,
            server_bandwidth=server_bandwidth,
            request_overhead=request_overhead,
            stripe_size=stripe_size,
        ),
    )
    cluster = Cluster(env, spec, RngFactory(0))
    store = SparseFile() if with_data else None
    pfs = ParallelFileSystem(env, spec.storage, datastore=store)
    return env, cluster, pfs


def run(env, gen):
    p = env.process(gen)
    env.run()
    return p.value


def test_write_then_read_extent_data():
    env, cluster, pfs = make_pfs()
    node = cluster.nodes[0]
    data = np.arange(250, dtype=np.uint8)

    def proc():
        yield from pfs.write_extent(node, Extent(30, 250), data)
        got = yield from pfs.read_extent(node, Extent(30, 250))
        return got

    got = run(env, proc())
    assert (got == data).all()
    assert pfs.bytes_written == 250
    assert pfs.bytes_read == 250


def test_extent_costs_one_request_per_touched_server():
    env, cluster, pfs = make_pfs(servers=4, request_overhead=1.0, stripe_size=100)
    node = cluster.nodes[0]

    def proc():
        yield from pfs.write_extent(node, Extent(0, 400))
        return env.now

    t = run(env, proc())
    # 4 servers in parallel: each 1 request overhead + 100/100 = 2s
    assert t == pytest.approx(2.0, rel=1e-3)
    for _, b, r in pfs.server_stats():
        assert b == 100 and r == 1


def test_noncontiguous_pattern_pays_per_block_overhead():
    env, cluster, pfs = make_pfs(servers=1, request_overhead=1.0, stripe_size=10**6)
    node = cluster.nodes[0]
    # 10 blocks of 10 bytes: 10 requests x 1s + 100/100 s
    pattern = AccessPattern((StridedSegment(0, 10, 100, 10),))

    def proc():
        yield from pfs.write_pattern(node, pattern)
        return env.now

    t = run(env, proc())
    assert t == pytest.approx(11.0, rel=1e-3)


def test_pattern_on_one_server_is_charged_exactly_at_scale():
    """70,000 blocks that all stripe onto server 0: every block is a
    request on that server, however many blocks the pattern has."""
    env, cluster, pfs = make_pfs(servers=4, request_overhead=1.0, stripe_size=100)
    node = cluster.nodes[0]
    count = 70_000
    pattern = AccessPattern((StridedSegment(0, 10, 100 * 4, count),))

    def proc():
        yield from pfs.write_pattern(node, pattern)
        return env.now

    t = run(env, proc())
    # count requests x 1 s + 10 * count B / 100 B/s, all on one server
    assert t == pytest.approx(count * 1.0 + 10 * count / 100.0, rel=1e-9)
    assert pfs.server_stats() == [
        (0, 10 * count, count), (1, 0, 0), (2, 0, 0), (3, 0, 0)
    ]


def test_contiguous_beats_noncontiguous_same_bytes():
    """The core premise: merged large requests are faster than many small."""

    def time_noncontig():
        env, cluster, pfs = make_pfs(servers=2, request_overhead=0.5, with_data=False)
        node = cluster.nodes[0]
        pattern = AccessPattern((StridedSegment(0, 10, 50, 40),))

        def proc():
            yield from pfs.write_pattern(node, pattern)
            return env.now

        return run(env, proc())

    def time_contig():
        env, cluster, pfs = make_pfs(servers=2, request_overhead=0.5, with_data=False)
        node = cluster.nodes[0]

        def proc():
            yield from pfs.write_extent(node, Extent(0, 400))
            return env.now

        return run(env, proc())

    assert time_contig() < time_noncontig() / 3


def test_pattern_data_roundtrip():
    env, cluster, pfs = make_pfs()
    node = cluster.nodes[0]
    pattern = AccessPattern((StridedSegment(7, 5, 20, 6),))
    payload = (np.arange(pattern.nbytes) % 251).astype(np.uint8)

    def proc():
        yield from pfs.write_pattern(node, pattern, payload)
        got = yield from pfs.read_pattern(node, pattern)
        return got

    got = run(env, proc())
    assert (got == payload).all()
    # and the bytes landed at the right file offsets
    assert (pfs.datastore.read(7, 5) == payload[:5]).all()
    assert (pfs.datastore.read(27, 5) == payload[5:10]).all()


def test_server_queue_serializes_concurrent_clients():
    env, cluster, pfs = make_pfs(servers=1, request_overhead=0.0, stripe_size=10**6)
    times = []

    def client(node):
        yield from pfs.write_extent(node, Extent(0, 1000))
        times.append(env.now)

    env.process(client(cluster.nodes[0]))
    env.process(client(cluster.nodes[1]))
    env.run()
    # each write takes 10s of server time; they serialize
    assert sorted(times) == pytest.approx([10.0, 20.0], rel=1e-3)


def test_client_nic_can_be_bottleneck():
    env, cluster, pfs = make_pfs(
        servers=8, server_bandwidth=1e9, request_overhead=0.0, nic_bandwidth=100.0
    )
    node = cluster.nodes[0]

    def proc():
        yield from pfs.write_extent(node, Extent(0, 1000))
        return env.now

    t = run(env, proc())
    assert t == pytest.approx(10.0, rel=1e-3)  # 1000 B / 100 B/s NIC


def test_zero_length_ops_complete_instantly():
    env, cluster, pfs = make_pfs()
    node = cluster.nodes[0]

    def proc():
        yield from pfs.write_extent(node, Extent(10, 0))
        got = yield from pfs.read_pattern(node, AccessPattern(()))
        return (env.now, got)

    t, got = run(env, proc())
    assert t == 0.0
    assert got is not None and len(got) == 0


def test_payload_length_mismatch_rejected():
    env, cluster, pfs = make_pfs()
    node = cluster.nodes[0]

    def proc():
        yield from pfs.write_extent(node, Extent(0, 10), np.zeros(5, dtype=np.uint8))

    env.process(proc())
    with pytest.raises(Exception):
        env.run()


def test_without_datastore_reads_return_none():
    env, cluster, pfs = make_pfs(with_data=False)
    node = cluster.nodes[0]

    def proc():
        got = yield from pfs.read_extent(node, Extent(0, 100))
        return got

    assert run(env, proc()) is None
