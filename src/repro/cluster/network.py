"""Interconnect model: α–β links with per-node NIC contention.

By default the fabric is full-bisection (the paper's testbed is a
full-cross-section DDR InfiniBand cluster), so the only network contention
points are the NICs: each node can inject one message at a time and eject
one message at a time.  A transfer costs::

    latency + nbytes / min(src_bw, dst_bw)

holding both endpoints' NIC engines for the duration, so many-to-one
shuffle traffic (everyone sending to an aggregator) serializes at the
aggregator's ejection engine — exactly the hotspot two-phase I/O creates.

Intra-node "transfers" (ranks co-located on one node) bypass the NIC and
cost a memory-system copy instead, which is why restricting aggregation
traffic inside a node/group is cheaper — the mechanism MCIO exploits.

Optionally the network models a **two-level (racked) topology**: nodes
are grouped into racks of ``rack_size``; transfers crossing rack
boundaries additionally serialize on both racks' *uplinks* of
``uplink_bandwidth``.  With oversubscribed uplinks (uplink slower than
the sum of the rack's NICs), containing shuffle traffic within a
rack-aligned aggregation group has a direct, measurable payoff — the
extreme-scale regime the paper targets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.sim import Environment, Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .node import Node

__all__ = ["Network"]


class Network:
    """Point-to-point transfer engine over a set of nodes.

    Parameters
    ----------
    env:
        Simulation environment.
    nodes:
        The cluster's nodes, indexed by ``node_id``.
    intra_node_latency:
        Fixed cost of an intra-node handoff (shared-memory queue), seconds.
    """

    def __init__(
        self,
        env: Environment,
        nodes: list["Node"],
        intra_node_latency: float = 0.3e-6,
        chunk_bytes: int = 4 * 1024 * 1024,
        rack_size: Optional[int] = None,
        uplink_bandwidth: Optional[float] = None,
    ):
        if chunk_bytes < 1:
            raise ValueError("chunk_bytes must be >= 1")
        if (rack_size is None) != (uplink_bandwidth is None):
            raise ValueError("rack_size and uplink_bandwidth go together")
        if rack_size is not None and rack_size < 1:
            raise ValueError("rack_size must be >= 1")
        if uplink_bandwidth is not None and uplink_bandwidth <= 0:
            raise ValueError("uplink_bandwidth must be positive")
        self.env = env
        self.nodes = nodes
        self.intra_node_latency = float(intra_node_latency)
        #: Messages move in chunks of this size so concurrent transfers
        #: interleave fairly at the NICs instead of convoying whole
        #: messages (an engine is still exclusive per chunk).
        self.chunk_bytes = int(chunk_bytes)
        self.rack_size = rack_size
        self.uplink_bandwidth = uplink_bandwidth
        self._uplinks: list[Resource] = []
        if rack_size is not None:
            n_racks = -(-len(nodes) // rack_size)
            self._uplinks = [
                Resource(env, capacity=1, name=f"rack{i}.uplink")
                for i in range(n_racks)
            ]
        #: Total bytes moved across NICs (inter-node only).
        self.inter_node_bytes = 0
        #: Total bytes moved through shared memory (intra-node).
        self.intra_node_bytes = 0
        #: Number of inter-node messages.
        self.inter_node_messages = 0
        #: Bytes that crossed rack uplinks (0 without a racked topology).
        self.inter_rack_bytes = 0

    def rack_of(self, node: "Node") -> Optional[int]:
        """The rack holding `node` (None in flat topologies)."""
        if self.rack_size is None:
            return None
        return node.node_id // self.rack_size

    def link_cost(
        self, src: "Node", dst: "Node"
    ) -> tuple[float, float, list[Resource]]:
        """The single shared cost model for a ``src -> dst`` wire.

        Returns ``(latency, wire_bandwidth, uplinks)``: the per-message
        injection latency, the effective bytes/second of the path (NIC
        speeds, narrowed to the uplink speed when the transfer crosses
        rack boundaries), and the uplink resources the transfer must hold
        (empty in flat topologies or within a rack).

        Both :meth:`transfer` (the simulated data path) and
        :meth:`estimate_transfer_time` (the planning estimate) derive
        their arithmetic from this one function, so the two can never
        drift apart.
        """
        wire_bw = min(src.spec.nic_bandwidth, dst.spec.nic_bandwidth)
        uplinks: list[Resource] = []
        src_rack, dst_rack = self.rack_of(src), self.rack_of(dst)
        if src_rack is not None and src_rack != dst_rack:
            wire_bw = min(wire_bw, self.uplink_bandwidth)
            # acquire in rack-id order (uniform hierarchy: no deadlock)
            lo, hi = sorted((src_rack, dst_rack))
            uplinks = [self._uplinks[lo], self._uplinks[hi]]
        return src.spec.nic_latency, wire_bw, uplinks

    def transfer(
        self, src: "Node", dst: "Node", nbytes: int, paged_dst: bool = False,
        messages: int = 1,
    ):
        """Process generator: move `nbytes` from `src` to `dst`.

        Parameters
        ----------
        src, dst:
            Endpoint nodes; equal nodes take the shared-memory path.
        nbytes:
            Message size in bytes (0 is allowed and costs only latency).
        paged_dst:
            If true, an endpoint buffer spilled past available memory; the
            wire is throttled by the destination's paging penalty (the NIC
            cannot move data faster than the memory system pages it).
        messages:
            How many back-to-back messages the `nbytes` stand for: the
            closed-form serialization model for aggregated shuffle
            traffic.  The transfer charges every message's injection
            latency once up front (``latency * messages``), then streams
            the bytes through the chunked NIC/uplink machinery once.
            Byte and message accounting match `messages` individual
            transfers; what disappears is the per-message simulation
            events, not the cost.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if src.node_id == dst.node_id:
            self.intra_node_bytes += nbytes
            yield self.env.sleep(self.intra_node_latency * messages)
            yield from src.memcopy(nbytes, paged=paged_dst)
            return
        self.inter_node_bytes += nbytes
        self.inter_node_messages += messages
        latency, wire_bw, uplinks = self.link_cost(src, dst)
        if uplinks:
            self.inter_rack_bytes += nbytes
        env = self.env
        yield env.sleep(latency * messages)
        chunk_bytes = self.chunk_bytes
        sent = 0
        while sent < nbytes or (nbytes == 0 and sent == 0):
            chunk = min(chunk_bytes, max(0, nbytes - sent))
            wire_time = chunk / wire_bw
            if paged_dst:
                wire_time *= dst.memory.current_paging_factor
            # a failed endpoint cannot source/sink data at wire speed: the
            # transfer crawls at the slower endpoint's degraded pace
            if src.failed:
                wire_time *= src.failure_slowdown
            if dst.failed:
                wire_time *= dst.failure_slowdown
            # receiver-side ejection engine first, then the injection
            # engine, then the uplinks: a fixed class order, so a transfer
            # never parks an engine waiting for the other side beyond one
            # chunk and the hierarchy is deadlock-free
            rx = dst.nic_rx.request()
            yield rx
            held = [(dst.nic_rx, rx)]
            try:
                tx = src.nic_tx.request()
                yield tx
                held.append((src.nic_tx, tx))
                for uplink in uplinks:
                    req = uplink.request()
                    yield req
                    held.append((uplink, req))
                yield env.sleep(wire_time)
            finally:
                for resource, req in reversed(held):
                    resource.release(req)
            sent += chunk
            if nbytes == 0:
                break

    def estimate_transfer_time(self, src: "Node", dst: "Node", nbytes: int) -> float:
        """Uncontended transfer time (no queueing), for planning/tuning.

        Built on :meth:`link_cost`, the same arithmetic the simulated
        data path uses, so an uncontended :meth:`transfer` takes exactly
        this long.
        """
        if src.node_id == dst.node_id:
            return self.intra_node_latency + nbytes / src.channel_bandwidth
        latency, wire_bw, _uplinks = self.link_cost(src, dst)
        return latency + nbytes / wire_bw
