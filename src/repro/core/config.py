"""Configuration dataclasses for the collective-I/O engines.

Two engines, two configs:

* :class:`TwoPhaseConfig` — ROMIO-style baseline: fixed aggregator set
  (one process per node by default), even file-domain split, fixed
  collective-buffer size, memory-oblivious.
* :class:`MCIOConfig` — memory-conscious collective I/O: the paper's four
  tuning parameters (``msg_group``, ``msg_ind``, ``mem_min``, ``nah``)
  plus the same nominal buffer size the evaluation sweeps.

Per-rank runs send one shuffle message per (sending rank, aggregator,
round), like the real protocol, and run ROMIO's lockstep rounds.
Node-level aggregation of shuffle traffic (one wire transfer per
source node and aggregator) lives only in the vectorized driver
(``MCIOConfig.execution_mode="vectorized"``, DESIGN.md §11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

from repro.cluster.spec import MIB

__all__ = [
    "TwoPhaseConfig",
    "MCIOConfig",
    "ExecutionMode",
]

ExecutionMode = Literal["per-rank", "vectorized"]


def _check_common(cb_buffer_size: int) -> None:
    if cb_buffer_size < 1:
        raise ValueError("cb_buffer_size must be >= 1")


@dataclass(frozen=True)
class TwoPhaseConfig:
    """ROMIO two-phase collective I/O parameters.

    Parameters
    ----------
    cb_buffer_size:
        Collective (aggregation) buffer per aggregator, bytes.  ROMIO
        default is 16 MB; the paper sweeps 2-128 MB.
    cb_nodes:
        Number of aggregators; ``None`` = ROMIO default of exactly one
        process per node.

    File domains are always stripe-aligned (the PFS layout's stripe
    size).
    """

    cb_buffer_size: int = 16 * MIB
    cb_nodes: Optional[int] = None

    def __post_init__(self) -> None:
        _check_common(self.cb_buffer_size)
        if self.cb_nodes is not None and self.cb_nodes < 1:
            raise ValueError("cb_nodes must be >= 1")


@dataclass(frozen=True)
class MCIOConfig:
    """Memory-conscious collective I/O parameters (paper §3).

    Parameters
    ----------
    msg_group:
        Optimal aggregation-group message size: target bytes of file
        region per aggregation group (``Msg_group``).
    msg_ind:
        Optimal per-aggregator message size: the partition tree bisects a
        group's file region until each leaf carries at most this many
        requested bytes (``Msg_ind``).
    mem_min:
        Minimum memory a host must have available to serve as an
        aggregator host at full performance (``Mem_min``).
    nah:
        Maximum aggregators hosted by one physical node (``N_ah``).
    cb_buffer_size:
        Nominal aggregation buffer per aggregator, bytes — the quantity
        the paper's evaluation sweeps.  The effective buffer of a domain
        is ``min(cb_buffer_size, domain bytes)``.
    memory_oblivious:
        Ablation switch: plan as if every node had its full physical
        memory available (disables the memory-aware part of aggregator
        location while keeping group division and the partition tree).
    adaptive_buffer:
        When even the best candidate host cannot supply the full nominal
        buffer, shrink the aggregation buffer to what the host has
        (paying extra rounds instead of paging).  This is the
        memory-conscious behaviour for workloads whose aggregation group
        lives on a single node, where relocation is impossible.
    min_buffer:
        Smallest buffer the adaptive path accepts; below this the domain
        is remerged, or placed paged on the best host as the last resort.
    failover:
        Degraded-mode execution: when an aggregator's host fails
        mid-operation, re-place the orphaned domains on the next-best
        live hosts between lockstep rounds.  With no faults injected
        this is timing-neutral.
    execution_mode:
        How collectives are simulated (DESIGN.md §11):

        * ``"per-rank"`` — every rank is a DES coroutine; the reference
          fidelity level and the default (bit-identical to prior
          releases);
        * ``"vectorized"`` — co-located ranks are folded into one
          node-level process carrying numpy-backed per-rank accounting.
          :func:`~repro.core.path.resolve_path` still *refuses*
          vectorization per collective whenever faults, failed hosts,
          or a live data plane demand per-rank behaviour;
          the collective then runs per-rank and the refusal is recorded
          in :attr:`~repro.core.metrics.CollectiveStats.path`.

        Process parallelism lives one level up, across independent
        sweep cells (``--jobs``, DESIGN.md §12), never inside a
        collective.
    """

    msg_group: int = 256 * MIB
    msg_ind: int = 32 * MIB
    mem_min: int = 32 * MIB
    nah: int = 2
    cb_buffer_size: int = 16 * MIB
    memory_oblivious: bool = False
    adaptive_buffer: bool = True
    min_buffer: int = 1 * MIB
    failover: bool = True
    execution_mode: ExecutionMode = "per-rank"

    def __post_init__(self) -> None:
        _check_common(self.cb_buffer_size)
        if self.msg_group < 1:
            raise ValueError("msg_group must be >= 1")
        if self.msg_ind < 1:
            raise ValueError("msg_ind must be >= 1")
        if self.msg_ind > self.msg_group:
            raise ValueError("msg_ind cannot exceed msg_group")
        if self.mem_min < 0:
            raise ValueError("mem_min must be >= 0")
        if self.nah < 1:
            raise ValueError("nah must be >= 1")
        if self.min_buffer < 1:
            raise ValueError("min_buffer must be >= 1")
        if self.execution_mode not in ("per-rank", "vectorized"):
            raise ValueError(f"bad execution_mode {self.execution_mode!r}")
