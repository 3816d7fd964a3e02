"""Tests for the simulated MPI communicator."""

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeSpec, block_placement
from repro.mpi import ANY_SOURCE, ANY_TAG, SimComm
from repro.sim import Environment, RngFactory


def make_comm(n_ranks=4, n_nodes=2, cores=4, **node_kwargs):
    env = Environment()
    defaults = dict(
        cores=cores,
        memory_bytes=10**9,
        memory_bandwidth=1e9,
        memory_channels=2,
        nic_bandwidth=1e8,
        nic_latency=1e-6,
    )
    defaults.update(node_kwargs)
    spec = ClusterSpec(nodes=n_nodes, node=NodeSpec(**defaults))
    cluster = Cluster(env, spec, RngFactory(7))
    placement = block_placement(n_ranks, n_nodes, cores)
    return env, cluster, SimComm(env, cluster, placement)


def test_send_recv_payload():
    env, cluster, comm = make_comm()

    def main(ctx):
        if ctx.rank == 0:
            yield from comm.send(ctx, dest=1, nbytes=100, tag=5, payload={"x": 1})
            return None
        if ctx.rank == 1:
            msg = yield from comm.recv(ctx, source=0, tag=5)
            return (msg.source, msg.tag, msg.nbytes, msg.payload)
        return None
        yield  # pragma: no cover

    results = comm.run_spmd(main)
    assert results[1] == (0, 5, 100, {"x": 1})


def test_recv_wildcards():
    env, cluster, comm = make_comm()

    def main(ctx):
        if ctx.rank in (0, 2):
            yield from comm.send(ctx, dest=1, nbytes=10, tag=ctx.rank)
            return None
        if ctx.rank == 1:
            a = yield from comm.recv(ctx, source=ANY_SOURCE, tag=ANY_TAG)
            b = yield from comm.recv(ctx, source=ANY_SOURCE, tag=ANY_TAG)
            return sorted([a.source, b.source])
        return None
        yield  # pragma: no cover

    results = comm.run_spmd(main)
    assert results[1] == [0, 2]


def test_recv_tag_filtering_leaves_other_messages():
    env, cluster, comm = make_comm()

    def main(ctx):
        if ctx.rank == 0:
            yield from comm.send(ctx, dest=1, nbytes=10, tag=7, payload="seven")
            yield from comm.send(ctx, dest=1, nbytes=10, tag=9, payload="nine")
            return None
        if ctx.rank == 1:
            nine = yield from comm.recv(ctx, source=0, tag=9)
            seven = yield from comm.recv(ctx, source=0, tag=7)
            return (nine.payload, seven.payload)
        return None
        yield  # pragma: no cover

    results = comm.run_spmd(main)
    assert results[1] == ("nine", "seven")


def test_recv_posted_before_send():
    env, cluster, comm = make_comm()

    def main(ctx):
        if ctx.rank == 1:
            msg = yield from comm.recv(ctx, source=0)
            return msg.payload
        if ctx.rank == 0:
            yield ctx.env.timeout(5.0)  # make sure rank 1 posts first
            yield from comm.send(ctx, dest=1, nbytes=10, payload="late")
        return None

    results = comm.run_spmd(main)
    assert results[1] == "late"


def test_isend_overlaps():
    env, cluster, comm = make_comm()

    def main(ctx):
        if ctx.rank == 0:
            reqs = [
                comm.isend(ctx, dest=1, nbytes=10, tag=i, payload=i) for i in range(3)
            ]
            yield ctx.env.all_of(reqs)
            return None
        if ctx.rank == 1:
            got = []
            for _ in range(3):
                msg = yield from comm.recv(ctx, source=0)
                got.append(msg.payload)
            return sorted(got)
        return None
        yield  # pragma: no cover

    results = comm.run_spmd(main)
    assert results[1] == [0, 1, 2]


def test_send_invalid_dest():
    env, cluster, comm = make_comm()

    def main(ctx):
        if ctx.rank == 0:
            yield from comm.send(ctx, dest=99, nbytes=1)
        return None
        yield  # pragma: no cover

    with pytest.raises(Exception):
        comm.run_spmd(main)


def test_barrier_synchronizes():
    env, cluster, comm = make_comm()

    def main(ctx):
        yield ctx.env.timeout(float(ctx.rank))  # stagger arrivals
        yield from comm.barrier(ctx)
        return ctx.env.now

    results = comm.run_spmd(main)
    # everyone leaves the barrier at (same) time >= slowest arrival
    assert len(set(results)) == 1
    assert results[0] >= 3.0


def test_allgather():
    env, cluster, comm = make_comm()

    def main(ctx):
        return (yield from comm.allgather(ctx, ctx.rank**2))

    assert comm.run_spmd(main) == [[0, 1, 4, 9]] * 4


def test_collective_sequence_matching():
    """Successive collectives match in order."""
    env, cluster, comm = make_comm()

    def main(ctx):
        first = yield from comm.allgather(ctx, ("a", ctx.rank))
        second = yield from comm.allgather(ctx, ("b", ctx.rank))
        return (first[0][0], second[0][0])

    assert comm.run_spmd(main) == [("a", "b")] * 4


def test_intra_node_send_avoids_nic():
    env, cluster, comm = make_comm(n_ranks=4, n_nodes=2, cores=4)

    def main(ctx):
        if ctx.rank == 0:
            yield from comm.send(ctx, dest=1, nbytes=1000)  # same node (block)
        elif ctx.rank == 1:
            yield from comm.recv(ctx, source=0)
        return None

    comm.run_spmd(main)
    assert cluster.network.inter_node_bytes == 0
    assert cluster.network.intra_node_bytes == 1000


def test_determinism_same_seed_same_times():
    def run():
        env, cluster, comm = make_comm(n_ranks=8, n_nodes=2, cores=4)

        def main(ctx):
            for dest in range(ctx.size):
                if dest != ctx.rank:
                    comm.isend(ctx, dest, nbytes=1000 + ctx.rank, tag=1)
            got = []
            for _ in range(ctx.size - 1):
                msg = yield from comm.recv(ctx, tag=1)
                got.append(msg.source)
            yield from comm.barrier(ctx)
            return (ctx.env.now, tuple(got))

        return comm.run_spmd(main)

    assert run() == run()


def test_allgather_result_shared_once_per_rendezvous():
    """Every rank gets the same list object, in rank order; a later
    allgather never aliases an earlier one's result."""
    env, cluster, comm = make_comm(n_ranks=6, n_nodes=2, cores=4)

    def main(ctx):
        world_a = yield from comm.allgather(ctx, ("a", ctx.rank))
        world_b = yield from comm.allgather(ctx, ("b", ctx.rank))
        return world_a, world_b

    results = comm.run_spmd(main)
    world_a = [r[0] for r in results]
    world_b = [r[1] for r in results]
    assert all(x is world_a[0] for x in world_a)
    assert all(x is world_b[0] for x in world_b)
    assert world_a[0] is not world_b[0]
    assert world_a[0] == [("a", r) for r in range(6)]
    assert world_b[0] == [("b", r) for r in range(6)]
