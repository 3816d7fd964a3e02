"""Rank-to-node placement policies.

MPI launchers place ranks on nodes either *block*-wise (fill node 0, then
node 1, ...) or *round-robin* (cyclic).  Group division in MCIO reasons
about node boundaries in the linearized rank order, so placement is a
first-class input to every experiment.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["block_placement", "round_robin_placement", "ranks_on_node", "validate_placement"]


def block_placement(n_ranks: int, n_nodes: int, cores_per_node: int) -> list[int]:
    """Fill nodes in order: ranks 0..c-1 on node 0, c..2c-1 on node 1, ...

    Raises
    ------
    ValueError
        If the ranks do not fit on the cluster.
    """
    _check(n_ranks, n_nodes, cores_per_node)
    return [rank // cores_per_node for rank in range(n_ranks)]


def round_robin_placement(n_ranks: int, n_nodes: int, cores_per_node: int) -> list[int]:
    """Cyclic placement: rank r on node ``r % n_nodes``."""
    _check(n_ranks, n_nodes, cores_per_node)
    placement = [rank % n_nodes for rank in range(n_ranks)]
    return placement


def ranks_on_node(placement: Sequence[int], node_id: int) -> list[int]:
    """Return the ranks placed on `node_id`, in rank order."""
    return [rank for rank, nid in enumerate(placement) if nid == node_id]


def validate_placement(placement: Sequence[int], n_nodes: int, cores_per_node: int) -> None:
    """Check a placement maps into the cluster and respects core counts.

    Raises
    ------
    ValueError
        On out-of-range node ids or oversubscribed nodes.
    """
    nodes = np.asarray(placement, dtype=np.int64)
    invalid = np.flatnonzero((nodes < 0) | (nodes >= n_nodes))
    if invalid.size:
        rank = int(invalid[0])
        raise ValueError(f"rank {rank} placed on invalid node {placement[rank]}")
    counts = np.bincount(nodes, minlength=n_nodes)
    over = counts > cores_per_node
    if over.any():
        # the first rank on any oversubscribed node names the node that
        # appears first in rank order
        nid = int(nodes[over[nodes].argmax()])
        raise ValueError(
            f"node {nid} oversubscribed: {int(counts[nid])} ranks > "
            f"{cores_per_node} cores"
        )


def _check(n_ranks: int, n_nodes: int, cores_per_node: int) -> None:
    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    if n_ranks > n_nodes * cores_per_node:
        raise ValueError(
            f"{n_ranks} ranks do not fit on {n_nodes} nodes x {cores_per_node} cores"
        )
