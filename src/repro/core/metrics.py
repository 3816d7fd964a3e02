"""Instrumentation for collective-I/O runs.

A :class:`StatsCollector` is threaded through an engine run; after the run
it folds into a :class:`CollectiveStats` summary carrying exactly the
quantities the paper argues about:

* end-to-end time and effective bandwidth;
* per-aggregator buffer memory (peak, mean, variance across aggregators) —
  the "memory pressure" and "memory variance" claims;
* paged aggregator count — how often aggregation buffers spilled;
* shuffle traffic split intra-node / inter-node;
* round and request counts.

The collector keeps plain numbers: ints, a peak-per-rank dict for the
buffer and overcommit sizes and a set of paged ranks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from repro.core.path import PathDecision

__all__ = ["StatsCollector", "CollectiveStats"]

#: JSON-safe scalar types kept when serializing ``extra`` (runtime objects
#: like partition trees are dropped, matching the persistence contract).
_SCALARS = (int, float, str, bool)


@dataclass
class CollectiveStats:
    """Summary of one collective read or write operation."""

    strategy: str
    op: str
    total_bytes: int
    elapsed: float
    n_ranks: int
    n_aggregators: int
    aggregator_ranks: tuple[int, ...]
    #: peak aggregation-buffer bytes per aggregator rank
    agg_buffer_bytes: dict[int, int]
    #: bytes by which each aggregator's host memory was overcommitted at
    #: buffer-allocation time (0 for healthy placements)
    agg_overcommit_bytes: dict[int, int]
    paged_aggregators: int
    rounds_total: int
    shuffle_intra_node_bytes: int
    shuffle_inter_node_bytes: int
    n_groups: int = 1
    extra: dict = field(default_factory=dict)
    #: Always None; kept so stored documents and benchmark records keep
    #: their shape.
    degraded_tier: Optional[str] = None
    #: PFS client retries / abandoned requests during this operation.
    io_retries: int = 0
    io_abandons: int = 0
    #: Aggregator failovers performed mid-operation (failed host replaced).
    failovers: int = 0
    #: Which driver ran this collective and every refusal on the way
    #: (:func:`~repro.core.path.resolve_path`).
    path: PathDecision = PathDecision()

    @property
    def execution_mode(self) -> str:
        """``"vectorized"`` (node-level driver) or ``"per-rank"``."""
        return "vectorized" if self.path.driver == "vectorized" else "per-rank"

    @property
    def bandwidth(self) -> float:
        """Effective bytes/second of the collective operation."""
        return self.total_bytes / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def bandwidth_mib(self) -> float:
        """Effective MiB/second (the unit the paper's figures use)."""
        return self.bandwidth / (1024.0**2)

    @property
    def agg_memory_mean(self) -> float:
        """Mean aggregation-buffer bytes across aggregators."""
        if not self.agg_buffer_bytes:
            return 0.0
        return float(np.mean(list(self.agg_buffer_bytes.values())))

    @property
    def agg_memory_peak(self) -> int:
        """Largest aggregation buffer any aggregator held."""
        if not self.agg_buffer_bytes:
            return 0
        return max(self.agg_buffer_bytes.values())

    @property
    def overcommit_mean(self) -> float:
        """Mean host-memory overcommit across aggregators (bytes).

        This is the paper's "memory pressure": how far aggregation
        buffers spilled past what their hosts actually had.
        """
        if not self.agg_overcommit_bytes:
            return 0.0
        return float(np.mean(list(self.agg_overcommit_bytes.values())))

    @property
    def overcommit_std(self) -> float:
        """Spread of host-memory overcommit across aggregators.

        The paper's "variance among processes" claim: memory-conscious
        placement should flatten this to ~zero.
        """
        if not self.agg_overcommit_bytes:
            return 0.0
        return float(np.std(list(self.agg_overcommit_bytes.values())))

    @property
    def overcommit_peak(self) -> int:
        """Worst single-aggregator overcommit (bytes)."""
        if not self.agg_overcommit_bytes:
            return 0
        return max(self.agg_overcommit_bytes.values())

    def summary(self) -> str:
        """One-line human-readable digest."""
        resilience = ""
        if self.io_retries or self.failovers or self.io_abandons:
            resilience = (
                f", {self.io_retries} retries, {self.failovers} failovers"
            )
        return (
            f"{self.strategy} {self.op}: {self.bandwidth_mib:8.1f} MiB/s  "
            f"({self.total_bytes / 1024 / 1024:.0f} MiB in {self.elapsed:.3f} s, "
            f"{self.n_aggregators} aggs, {self.paged_aggregators} paged, "
            f"{self.rounds_total} rounds{resilience})"
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """Serialize to plain JSON types (the one canonical encoding).

        Dict keys become strings (JSON objects), tuples become lists and
        ``extra`` is filtered to scalar values — runtime objects stashed
        there (trees, plans) are not representable and are dropped.
        """
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "extra":
                value = {k: v for k, v in value.items() if isinstance(v, _SCALARS)}
            elif isinstance(value, dict):
                value = {str(k): v for k, v in value.items()}
            elif isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, PathDecision):
                value = {"driver": value.driver, "refusals": list(value.refusals)}
            out[f.name] = value
        return out

    @classmethod
    def from_json(cls, d: dict) -> "CollectiveStats":
        """Rebuild from :meth:`to_json` output.

        Fields missing from `d` (older files) fall back to the dataclass
        defaults, so documents written before a field existed still load;
        keys of retired fields are ignored.
        """
        kwargs = {"agg_overcommit_bytes": {}}
        for f in fields(cls):
            if f.name not in d:
                continue
            value = d[f.name]
            if f.name in ("agg_buffer_bytes", "agg_overcommit_bytes"):
                value = {int(k): v for k, v in value.items()}
            elif f.name == "aggregator_ranks":
                value = tuple(value)
            elif f.name == "extra":
                value = dict(value)
            elif f.name == "path":
                value = PathDecision(value["driver"], tuple(value["refusals"]))
            kwargs[f.name] = value
        if "path" not in d and d.get("execution_mode") == "vectorized":
            # documents from before the decision record kept only the mode
            kwargs["path"] = PathDecision("vectorized")
        return cls(**kwargs)


class StatsCollector:
    """Mutable accumulator shared by all rank processes during one run.

    Every counted quantity is a plain attribute that :meth:`finalize`
    and live readers (the :class:`~repro.core.audit.ConservationAuditor`)
    read directly, so both see the same numbers by construction.
    Counters keep the exact integers they are given — the golden-trace
    suite compares collective summaries bit-for-bit.
    """

    def __init__(self, strategy: str, op: str, n_ranks: int):
        self.strategy = strategy
        self.op = op
        self.n_ranks = n_ranks
        #: Bytes moved to/from the file system.
        self.total_bytes = 0
        #: Aggregator round executions.
        self.rounds_total = 0
        #: Aggregator failovers performed mid-operation.
        self.failovers = 0
        #: Shuffle bytes that stayed on / left their sender's node.
        self.shuffle_intra_node_bytes = 0
        self.shuffle_inter_node_bytes = 0
        #: Peak aggregation-buffer bytes per aggregator rank.
        self.agg_buffer_bytes: dict[int, int] = {}
        #: Peak host-memory overcommit per aggregator rank.
        self.agg_overcommit_bytes: dict[int, int] = {}
        #: Ranks whose aggregation buffers spilled to paging.
        self.paged_aggregators: set[int] = set()
        #: Driver decision for this collective (DESIGN.md §11).
        self.path = PathDecision()
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self.n_groups = 1
        self.extra: dict = {}
        self.degraded_tier: Optional[str] = None
        self._pfs = None
        self._pfs_retries0 = 0
        self._pfs_abandons0 = 0
        #: Optional :class:`~repro.core.audit.ConservationAuditor`; when
        #: set, engines report attempts and I/O extents through it.
        self.auditor = None

    # ------------------------------------------------------------------
    def mark_start(self, now: float) -> None:
        """Record the earliest entry time across ranks."""
        if self.start_time is None or now < self.start_time:
            self.start_time = now

    def mark_end(self, now: float) -> None:
        """Record the latest exit time across ranks."""
        if self.end_time is None or now > self.end_time:
            self.end_time = now

    def record_aggregator(
        self, rank: int, buffer_bytes: int, paged: bool, overcommit_bytes: int = 0
    ) -> None:
        """Register an aggregator's buffer commitment."""
        held = self.agg_buffer_bytes.get(rank)
        if held is None or buffer_bytes > held:
            self.agg_buffer_bytes[rank] = buffer_bytes
        overcommit_bytes = int(overcommit_bytes)
        held = self.agg_overcommit_bytes.get(rank)
        if held is None or overcommit_bytes > held:
            self.agg_overcommit_bytes[rank] = overcommit_bytes
        if paged:
            self.paged_aggregators.add(rank)

    def record_shuffle(self, nbytes: int, same_node: bool) -> None:
        """Account shuffle bytes (one message, or a node's batch of them)."""
        if same_node:
            self.shuffle_intra_node_bytes += nbytes
        else:
            self.shuffle_inter_node_bytes += nbytes

    def record_rounds(self, rounds: int) -> None:
        """Add an aggregator's executed round count."""
        self.rounds_total += rounds

    def record_bytes(self, nbytes: int) -> None:
        """Add bytes moved to/from the file system."""
        self.total_bytes += nbytes

    def record_failover(self, count: int = 1) -> None:
        """Count aggregator failovers performed during the run."""
        self.failovers += count

    def record_attempt(self, n: int = 1) -> None:
        """Notify the auditor `n` ranks entered an execution attempt.

        The per-rank path reports each rank; the vectorized driver enters
        the attempt on behalf of all ranks at once.
        """
        if self.auditor is not None:
            self.auditor.on_attempt(self, n)

    def record_io_extent(self, offset: int, length: int) -> None:
        """Report one file-system extent touched (auditor bookkeeping)."""
        if self.auditor is not None:
            self.auditor.on_io_extent(self, offset, length)

    def attach_pfs(self, pfs) -> None:
        """Snapshot the file system's retry counters at operation start.

        :meth:`finalize` reports the *delta* accumulated while this
        operation ran.  Concurrent operations on the same file system
        each see the union of retries in their window.
        """
        if self._pfs is None:
            self._pfs = pfs
            self._pfs_retries0 = pfs.io_retries
            self._pfs_abandons0 = pfs.io_abandons

    # ------------------------------------------------------------------
    def finalize(self) -> CollectiveStats:
        """Fold into an immutable summary."""
        if self.start_time is None or self.end_time is None:
            raise RuntimeError("run was never marked started/ended")
        pfs = self._pfs
        derived = {
            "elapsed": self.end_time - self.start_time,
            "n_aggregators": len(self.agg_buffer_bytes),
            "aggregator_ranks": tuple(sorted(self.agg_buffer_bytes)),
            "agg_buffer_bytes": dict(self.agg_buffer_bytes),
            "agg_overcommit_bytes": dict(self.agg_overcommit_bytes),
            "paged_aggregators": len(self.paged_aggregators),
            "extra": dict(self.extra),
            "io_retries": pfs.io_retries - self._pfs_retries0 if pfs else 0,
            "io_abandons": pfs.io_abandons - self._pfs_abandons0 if pfs else 0,
        }
        # every other summary field is the collector's same-named number
        final = CollectiveStats(**{
            f.name: derived[f.name] if f.name in derived else getattr(self, f.name)
            for f in fields(CollectiveStats)
        })
        if self.auditor is not None:
            self.auditor.on_finalize(self, final)
        return final
