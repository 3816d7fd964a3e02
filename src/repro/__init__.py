"""repro — Memory-Conscious Collective I/O for extreme-scale HPC systems.

A from-scratch reproduction of Lu, Chen, Zhuang & Thakur's
*Memory-Conscious Collective I/O* (SC '12 poster / ROSS '13), including
every substrate the paper runs on: a deterministic discrete-event cluster
simulator, an MPI-like runtime, and a Lustre-like striped parallel file
system.  See DESIGN.md for the system inventory and EXPERIMENTS.md for
the paper-vs-measured record.

Quick start
-----------
>>> from repro import (
...     Cluster, ClusterSpec, SimComm, ParallelFileSystem, SparseFile,
...     Environment, RngFactory, block_placement,
...     TwoPhaseCollectiveIO, MemoryConsciousCollectiveIO,
... )
>>> # build a platform, launch SPMD rank processes, run collectives —
>>> # see examples/quickstart.py for the full walkthrough

Package map
-----------
``repro.sim``
    Discrete-event kernel (environment, processes, resources, RNG).
``repro.cluster``
    Nodes, memory model, interconnect, placement, hardware presets.
``repro.mpi``
    Simulated communicator and MPI-datatype file views.
``repro.pfs``
    Striped parallel file system with optional byte-accurate store.
``repro.faults``
    Seeded fault schedules and the injector driving them.
``repro.core``
    The collective-I/O strategies and their planning components.
``repro.workloads``
    coll_perf and IOR access-pattern generators, job arrivals, payloads.
``repro.experiments``
    Table 1 / Figures 6-8 reproductions, memory-pressure and ablation
    studies.
"""

from repro.cluster import (
    Cluster,
    ClusterSpec,
    NodeSpec,
    StorageSpec,
    block_placement,
    exascale_2018,
    petascale_2010,
    ross13_testbed,
    round_robin_placement,
)
from repro.core import (
    AccessPattern,
    CollectiveStats,
    Extent,
    MCIOConfig,
    MemoryConsciousCollectiveIO,
    StridedSegment,
    TwoPhaseCollectiveIO,
    TwoPhaseConfig,
)
from repro.faults import FaultEvent, FaultInjector, FaultSchedule
from repro.mpi import (
    RankContext,
    SimComm,
    SimFile,
    block_decompose_3d,
    contiguous_view,
    hindexed_view,
    subarray_view_3d,
    vector_view,
)
from repro.pfs import ParallelFileSystem, RetryPolicy, SparseFile
from repro.sim import Environment, RngFactory
from repro.workloads import CollPerfWorkload, IORWorkload

__version__ = "1.0.0"

__all__ = [
    "AccessPattern",
    "Cluster",
    "ClusterSpec",
    "CollPerfWorkload",
    "CollectiveStats",
    "Environment",
    "Extent",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "IORWorkload",
    "MCIOConfig",
    "MemoryConsciousCollectiveIO",
    "NodeSpec",
    "ParallelFileSystem",
    "RankContext",
    "RetryPolicy",
    "RngFactory",
    "SimComm",
    "SimFile",
    "SparseFile",
    "StorageSpec",
    "StridedSegment",
    "TwoPhaseCollectiveIO",
    "TwoPhaseConfig",
    "__version__",
    "block_decompose_3d",
    "block_placement",
    "contiguous_view",
    "exascale_2018",
    "hindexed_view",
    "petascale_2010",
    "ross13_testbed",
    "round_robin_placement",
    "subarray_view_3d",
    "vector_view",
]
