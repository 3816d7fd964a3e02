"""The paper's contribution: collective-I/O strategies and their pieces.

Public surface:

* :class:`~repro.core.two_phase.TwoPhaseCollectiveIO` — the ROMIO-style
  baseline;
* :class:`~repro.core.mcio.MemoryConsciousCollectiveIO` — the paper's
  memory-conscious strategy;
* the planning building blocks (extent algebra, group division, partition
  tree, aggregator placement) for users who want to compose their own
  strategy.
"""

from .aggregator_selection import PlacementError, candidate_hosts, place_aggregators
from .audit import AuditRecord, ConservationAuditor, ConservationError
from .config import MCIOConfig, TwoPhaseConfig
from .engine import ExecutionPlan, execute_collective
from .failover import FailoverDecision, replace_failed_domains
from .filedomain import FileDomain, even_domains, rounds_for
from .group_division import AggregationGroup, divide_groups
from .mcio import MemoryConsciousCollectiveIO
from .metrics import CollectiveStats, StatsCollector
from .partition_tree import PartitionNode, PartitionTree
from .pattern_array import FileViewIndex, FileViews, PatternArray, file_views
from .persistent import PersistentCollective
from .request import AccessPattern, Extent, StridedSegment, coalesce_extents
from .request import block_arrays, union_blocks, window_union
from .two_phase import TwoPhaseCollectiveIO, default_aggregators

__all__ = [
    "AccessPattern",
    "AggregationGroup",
    "AuditRecord",
    "CollectiveStats",
    "ConservationAuditor",
    "ConservationError",
    "ExecutionPlan",
    "Extent",
    "FailoverDecision",
    "FileDomain",
    "FileViewIndex",
    "FileViews",
    "MCIOConfig",
    "MemoryConsciousCollectiveIO",
    "PartitionNode",
    "PartitionTree",
    "PatternArray",
    "PersistentCollective",
    "PlacementError",
    "StatsCollector",
    "StridedSegment",
    "TwoPhaseCollectiveIO",
    "TwoPhaseConfig",
    "block_arrays",
    "candidate_hosts",
    "coalesce_extents",
    "default_aggregators",
    "divide_groups",
    "even_domains",
    "execute_collective",
    "file_views",
    "place_aggregators",
    "replace_failed_domains",
    "rounds_for",
    "union_blocks",
    "window_union",
]
