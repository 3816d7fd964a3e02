"""Cluster assembly: nodes + network + memory-availability setup."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.sim import Environment, RngFactory

from .memory import LeaseLedger
from .network import Network
from .node import Node
from .spec import ClusterSpec, MIB

__all__ = ["Cluster"]


class Cluster:
    """A simulated platform built from a :class:`~repro.cluster.spec.ClusterSpec`.

    Parameters
    ----------
    env:
        Simulation environment the cluster lives in.
    spec:
        Hardware description.
    rng:
        Seeded stream factory; the ``"memory"`` stream drives availability
        sampling in :meth:`sample_memory_availability`.

    Attributes
    ----------
    nodes:
        ``spec.nodes`` :class:`~repro.cluster.node.Node` objects.
    network:
        The interconnect shared by the nodes.
    """

    def __init__(self, env: Environment, spec: ClusterSpec, rng: Optional[RngFactory] = None):
        self.env = env
        self.spec = spec
        self.rng = rng if rng is not None else RngFactory(0)
        self._failed_ids: set[int] = set()
        self.nodes = [
            Node(
                env, node_id=i, spec=spec.node,
                paging_penalty=spec.paging_penalty, failed_ids=self._failed_ids,
            )
            for i in range(spec.nodes)
        ]
        self.network = Network(
            env,
            self.nodes,
            rack_size=spec.rack_size,
            uplink_bandwidth=spec.uplink_bandwidth,
        )
        #: Shared remote-memory lease registry (borrowed aggregation buffers).
        self.memory_ledger = LeaseLedger(self.nodes)

    def node_of(self, node_id: int) -> Node:
        """Return the node with the given id."""
        return self.nodes[node_id]

    @property
    def any_failed(self) -> bool:
        """True while at least one node is failed — O(1), no node scan."""
        return bool(self._failed_ids)

    @property
    def failed_node_ids(self) -> frozenset:
        """Ids of the currently failed nodes."""
        return frozenset(self._failed_ids)

    # ------------------------------------------------------------------
    # memory availability (the paper's variance environment)
    # ------------------------------------------------------------------
    def set_memory_availability(self, available_bytes: Sequence[int]) -> None:
        """Pin each node's available memory explicitly (bytes, one per node)."""
        if len(available_bytes) != len(self.nodes):
            raise ValueError(
                f"got {len(available_bytes)} values for {len(self.nodes)} nodes"
            )
        for node, avail in zip(self.nodes, available_bytes):
            node.memory.set_available(int(avail))

    def sample_memory_availability(
        self,
        mean_bytes: float,
        sigma_bytes: float = 50 * MIB,
        floor_bytes: float = 1 * MIB,
    ) -> np.ndarray:
        """Draw per-node available memory ~ N(mean, sigma), clipped.

        This reproduces the paper's evaluation setup: "the memory buffer
        sizes for processes were set up as random variables following a
        normal distribution [...] the standard deviation was set as 50"
        (interpreted as 50 MB around the nominal aggregation-buffer size).

        Returns
        -------
        numpy.ndarray
            The sampled availability per node (also applied to the nodes).
        """
        if mean_bytes <= 0:
            raise ValueError("mean_bytes must be positive")
        if sigma_bytes < 0:
            raise ValueError("sigma_bytes must be >= 0")
        gen = self.rng.stream("memory")
        draws = gen.normal(loc=mean_bytes, scale=sigma_bytes, size=len(self.nodes))
        draws = np.clip(draws, floor_bytes, self.spec.node.memory_bytes)
        self.set_memory_availability(draws.astype(np.int64))
        return draws

    # ------------------------------------------------------------------
    # convenience metrics
    # ------------------------------------------------------------------
    def memory_availability(self) -> np.ndarray:
        """Current available memory per node, bytes."""
        return np.array([n.memory.available for n in self.nodes], dtype=np.int64)

    def peak_committed(self) -> np.ndarray:
        """Peak committed memory per node, bytes."""
        return np.array([n.memory.peak_committed for n in self.nodes], dtype=np.int64)
