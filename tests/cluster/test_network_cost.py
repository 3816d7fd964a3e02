"""The single shared link-cost model: estimate == simulated, multi-message == closed form.

:meth:`Network.transfer` (the simulated data path) and
:meth:`Network.estimate_transfer_time` (the planning estimate) both
derive their arithmetic from :meth:`Network.link_cost`, so on an
*uncontended* link the estimate must match the simulated completion
time exactly — full float equality, not approximately.  These tests pin
that, plus the closed-form serialization model of a multi-message
:meth:`Network.transfer` (``messages > 1``).
"""

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeSpec
from repro.sim import Environment, RngFactory

#: Power-of-two bandwidths/sizes so chunked summation is float-exact.
NIC_BW = 16.0
UPLINK_BW = 4.0


def make_cluster(n_nodes=2, rack_size=None, uplink=None, chunk_bytes=None):
    env = Environment()
    spec = ClusterSpec(
        nodes=n_nodes,
        node=NodeSpec(
            cores=4,
            memory_bytes=1 << 20,
            memory_bandwidth=128.0,
            memory_channels=2,
            nic_bandwidth=NIC_BW,
            nic_latency=0.5,
        ),
        rack_size=rack_size,
        uplink_bandwidth=uplink,
    )
    cluster = Cluster(env, spec, RngFactory(0))
    if chunk_bytes is not None:
        cluster.network.chunk_bytes = chunk_bytes
    return env, cluster


def simulate_transfer(env, cluster, src, dst, nbytes, messages=1):
    def proc():
        yield from cluster.network.transfer(
            cluster.nodes[src], cluster.nodes[dst], nbytes, messages=messages
        )
        return env.now

    p = env.process(proc())
    env.run()
    return p.value


@pytest.mark.parametrize("nbytes", [0, 1, 64, 4096, 1 << 20])
def test_estimate_matches_simulated_uncontended_inter_node(nbytes):
    env, cluster = make_cluster()
    net = cluster.network
    estimate = net.estimate_transfer_time(
        cluster.nodes[0], cluster.nodes[1], nbytes
    )
    elapsed = simulate_transfer(env, cluster, 0, 1, nbytes)
    assert elapsed == estimate  # exact: both sides share link_cost()


@pytest.mark.parametrize("nbytes", [0, 64, 4096])
def test_estimate_matches_simulated_uncontended_intra_node(nbytes):
    env, cluster = make_cluster()
    net = cluster.network
    estimate = net.estimate_transfer_time(
        cluster.nodes[0], cluster.nodes[0], nbytes
    )
    elapsed = simulate_transfer(env, cluster, 0, 0, nbytes)
    assert elapsed == estimate


def test_estimate_matches_simulated_across_racks():
    """Cross-rack paths narrow to uplink speed in both estimate and sim."""
    env, cluster = make_cluster(n_nodes=4, rack_size=2, uplink=UPLINK_BW)
    net = cluster.network
    nbytes = 4096
    estimate = net.estimate_transfer_time(
        cluster.nodes[0], cluster.nodes[2], nbytes
    )
    assert estimate == 0.5 + nbytes / UPLINK_BW
    elapsed = simulate_transfer(env, cluster, 0, 2, nbytes)
    assert elapsed == estimate


def test_estimate_matches_multi_chunk_transfer():
    """Chunked wire movement sums to the closed-form time (exact floats)."""
    env, cluster = make_cluster(chunk_bytes=1024)
    nbytes = 8 * 1024  # 8 equal power-of-two chunks: float-exact summation
    estimate = cluster.network.estimate_transfer_time(
        cluster.nodes[0], cluster.nodes[1], nbytes
    )
    elapsed = simulate_transfer(env, cluster, 0, 1, nbytes)
    assert elapsed == estimate


def test_link_cost_returns_uplinks_only_across_racks():
    _, cluster = make_cluster(n_nodes=4, rack_size=2, uplink=UPLINK_BW)
    net = cluster.network
    lat, bw, uplinks = net.link_cost(cluster.nodes[0], cluster.nodes[1])
    assert (lat, bw, uplinks) == (0.5, NIC_BW, [])
    lat, bw, uplinks = net.link_cost(cluster.nodes[0], cluster.nodes[3])
    assert bw == UPLINK_BW
    assert len(uplinks) == 2


# ---------------------------------------------------------------------------
# multi-message transfers: closed-form serialization
# ---------------------------------------------------------------------------
def test_multi_message_transfer_charges_latency_per_message():
    env, cluster = make_cluster()
    sizes = [64, 128, 256, 64]
    elapsed = simulate_transfer(env, cluster, 0, 1, sum(sizes), len(sizes))
    # closed form: n x latency up front, then the summed bytes at wire bw
    assert elapsed == len(sizes) * 0.5 + sum(sizes) / NIC_BW
    assert cluster.network.inter_node_bytes == sum(sizes)
    assert cluster.network.inter_node_messages == len(sizes)


def test_multi_message_transfer_intra_node():
    env, cluster = make_cluster()
    sizes = [64, 64]
    elapsed = simulate_transfer(env, cluster, 0, 0, sum(sizes), len(sizes))
    assert cluster.network.intra_node_bytes == sum(sizes)
    assert cluster.network.inter_node_messages == 0
    assert elapsed > 0


def test_negative_transfer_rejected():
    _, cluster = make_cluster()
    with pytest.raises(ValueError):
        # drive the generator directly: validation happens on first step
        next(
            cluster.network.transfer(
                cluster.nodes[0], cluster.nodes[1], -1, messages=2
            )
        )


def test_multi_message_matches_back_to_back_serial_transfers():
    """Uncontended, the closed form equals n back-to-back transfers.

    Folding messages into one transfer removes per-message simulation
    events and contention points, never modelled cost — so on an idle
    link the times agree.
    """
    sizes = [256] * 8

    env_a, cluster_a = make_cluster()

    def serial():
        for s in sizes:
            yield from cluster_a.network.transfer(
                cluster_a.nodes[0], cluster_a.nodes[1], s
            )
        return env_a.now

    p = env_a.process(serial())
    env_a.run()
    serial_time = p.value

    env_b, cluster_b = make_cluster()
    folded_time = simulate_transfer(env_b, cluster_b, 0, 1, sum(sizes), len(sizes))
    assert folded_time == serial_time  # back-to-back == closed form here
    # byte/message accounting identical either way
    assert (
        cluster_b.network.inter_node_bytes,
        cluster_b.network.inter_node_messages,
    ) == (
        cluster_a.network.inter_node_bytes,
        cluster_a.network.inter_node_messages,
    )
