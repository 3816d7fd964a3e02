"""Simulated HPC cluster: nodes, memory, interconnect, placement.

Substitutes for the paper's 640-node Xeon/InfiniBand testbed (see DESIGN.md
§2).  Exposes hardware specs (including the Table 1 exascale projections),
node-level memory/bandwidth models, and the interconnect.
"""

from .background import BackgroundLoad
from .cluster import Cluster
from .memory import Allocation, MemoryModel
from .network import Network
from .node import Node
from .placement import (
    block_placement,
    ranks_on_node,
    round_robin_placement,
    validate_placement,
)
from .spec import (
    GIB,
    KIB,
    MIB,
    TABLE1_ROWS,
    TIB,
    ClusterSpec,
    NodeSpec,
    StorageSpec,
    exascale_2018,
    memory_per_core_factor,
    petascale_2010,
    ross13_testbed,
)

__all__ = [
    "Allocation",
    "BackgroundLoad",
    "Cluster",
    "ClusterSpec",
    "GIB",
    "KIB",
    "MIB",
    "MemoryModel",
    "Network",
    "Node",
    "NodeSpec",
    "StorageSpec",
    "TABLE1_ROWS",
    "TIB",
    "block_placement",
    "exascale_2018",
    "memory_per_core_factor",
    "petascale_2010",
    "ranks_on_node",
    "ross13_testbed",
    "round_robin_placement",
    "validate_placement",
]
