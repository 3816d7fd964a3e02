"""Baseline ROMIO-style two-phase collective I/O.

Planning (memory-oblivious, as in ROMIO):

* aggregators: exactly one process per compute node by default
  (``cb_nodes`` overrides the count);
* the aggregate file region ``[min offset, max end)`` is split into
  *even* contiguous file domains, one per aggregator, their boundaries
  aligned down to stripe boundaries so no two aggregators split one
  stripe (lock contention in Lustre);
* every aggregator uses the same fixed collective buffer
  (``cb_buffer_size``) regardless of its host's available memory — the
  memory-pressure failure mode the paper targets.

Execution is the shared two-phase machinery in :mod:`repro.core.engine`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.config import TwoPhaseConfig
from repro.core.engine import ExecutionPlan, execute_collective
from repro.core.filedomain import FileDomain, even_domains
from repro.core.metrics import CollectiveStats, StatsCollector
from repro.core.path import resolve_path
from repro.core.pattern_array import FileViewIndex, FileViews, file_views
from repro.core.request import AccessPattern
from repro.mpi.comm import RankContext, SimComm
from repro.pfs.filesystem import ParallelFileSystem

__all__ = [
    "CollectiveEngine", "TwoPhaseCollectiveIO", "default_aggregators",
    "even_plan",
]


def default_aggregators(
    placement: Sequence[int], cb_nodes: Optional[int] = None
) -> list[int]:
    """ROMIO's default aggregator choice: one process per node.

    The first rank on each node becomes an aggregator, in node order.
    ``cb_nodes`` overrides the count: fewer → only the first nodes get
    aggregators; more → nodes receive extra aggregators round-robin.
    """
    first_rank: dict[int, int] = {}
    node_ranks: dict[int, list[int]] = {}
    for rank, node in enumerate(placement):
        node_ranks.setdefault(node, []).append(rank)
        first_rank.setdefault(node, rank)
    nodes = sorted(first_rank)
    count = len(nodes) if cb_nodes is None else cb_nodes
    if count < 1:
        raise ValueError("cb_nodes must be >= 1")
    aggs: list[int] = []
    i = 0
    while len(aggs) < count:
        node = nodes[i % len(nodes)]
        ranks = node_ranks[node]
        depth = i // len(nodes)
        aggs.append(ranks[depth % len(ranks)])
        i += 1
    return aggs[:count]


def even_plan(
    views: FileViews, aggs: Sequence[int], buffer_bytes: int, stripe: int
) -> ExecutionPlan:
    """ROMIO's even split of ``[min offset, max end)``, one domain per
    aggregator in `aggs`, each with the same buffer, never paged."""
    if not views.any_active:
        return ExecutionPlan((), (), n_groups=1)
    lo, hi = views.bounds()
    extents = even_domains(lo, hi, len(aggs), stripe_size=stripe)
    domains = [
        FileDomain(
            extent=ext,
            aggregator_rank=aggs[i],
            buffer_bytes=buffer_bytes,
            paged=False,
            group_id=0,
        )
        for i, ext in enumerate(extents)
    ]
    return ExecutionPlan.build(domains, views, n_groups=1)


class CollectiveEngine:
    """The collective lifecycle both strategies share.

    Every rank numbers its collective calls; a call's number namespaces
    its message tags and keys its per-operation state (the gathered
    views' index, the plan, the collector), which the first-arriving
    rank builds and the last rank out drops after finalizing the stats
    into :attr:`history`.  Subclasses plan (``_collective``) and may
    drop state of their own in :meth:`_finished`.
    """

    #: Sequence number of a rank's first call (MCIO raises it past a
    #: vectorized collective, which numbers all ranks at once).
    _seq_floor = 0

    def __init__(self, comm: SimComm, pfs: ParallelFileSystem, config):
        self.comm = comm
        self.pfs = pfs
        self.config = config
        self._rank_seq: dict[int, int] = {}
        #: Per-operation state, keyed by sequence number.
        self._views: dict[int, FileViewIndex] = {}
        self._plans: dict = {}
        self._stats: dict[int, StatsCollector] = {}
        #: Optional :class:`~repro.core.audit.ConservationAuditor`; when
        #: set (via its ``attach``), every operation's collector reports
        #: attempts/extents to it and finalize hands it the final stats.
        self.auditor = None
        #: Finalized stats of completed operations, in call order.
        self.history: list[CollectiveStats] = []

    # ------------------------------------------------------------------
    def write(self, ctx: RankContext, pattern: AccessPattern,
              payload: Optional[np.ndarray] = None):
        """Process generator: collective write of this rank's view."""
        return (yield from self._collective(ctx, pattern, payload, "write"))

    def read(self, ctx: RankContext, pattern: AccessPattern,
             payload: Optional[np.ndarray] = None):
        """Process generator: collective read; fills and returns `payload`.

        With a datastore attached and `payload` omitted, a fresh buffer of
        ``pattern.nbytes`` is allocated and returned.
        """
        if payload is None and self.pfs.datastore is not None:
            payload = np.zeros(pattern.nbytes, dtype=np.uint8)
        return (yield from self._collective(ctx, pattern, payload, "read"))

    # ------------------------------------------------------------------
    def _next_seq(self, rank: int) -> int:
        seq = self._rank_seq.get(rank, self._seq_floor)
        self._rank_seq[rank] = seq + 1
        return seq

    def _finish(self, seq, ctx):
        """Last rank out finalizes the stats and drops the operation."""
        stats = self._stats.get(seq)
        if stats is None:
            return
        stats.extra["finishers"] = stats.extra.get("finishers", 0) + 1
        if stats.extra["finishers"] == self.comm.size:
            stats.mark_end(ctx.env.now)
            final = stats.finalize()
            self.history.append(final)
            del self._stats[seq]
            del self._plans[seq]
            del self._views[seq]
            self._finished(seq, final)

    def _finished(self, seq, final: CollectiveStats) -> None:
        """Drop strategy-specific state of finished operation `seq`."""


class TwoPhaseCollectiveIO(CollectiveEngine):
    """The normal two-phase collective I/O strategy (the paper's baseline).

    Instantiate once per (comm, pfs) pair and call :meth:`write` /
    :meth:`read` from every rank's process (SPMD).  Finished-operation
    statistics accumulate in :attr:`history`.
    """

    name = "two-phase"

    def __init__(
        self,
        comm: SimComm,
        pfs: ParallelFileSystem,
        config: Optional[TwoPhaseConfig] = None,
    ):
        super().__init__(
            comm, pfs, config if config is not None else TwoPhaseConfig()
        )

    def _collective(self, ctx, pattern, payload, op):
        if payload is not None and len(payload) != pattern.nbytes:
            raise ValueError(
                f"payload {len(payload)} B != pattern {pattern.nbytes} B"
            )
        seq = self._next_seq(ctx.rank)
        meta_bytes = 32 * (1 + pattern.segment_count)
        patterns = yield from self.comm.allgather(ctx, pattern, nbytes=meta_bytes)
        views, plan, stats = self._prepare(seq, patterns, op)
        result = yield from execute_collective(
            ctx, self.comm, self.pfs, plan, views, stats, op, seq,
            payload=payload,
        )
        self._finish(seq, ctx)
        return result

    def _prepare(self, seq, patterns, op):
        """Index the views and plan once per collective call (identical
        on every rank)."""
        if seq not in self._plans:
            views = self._views[seq] = FileViewIndex(patterns)
            plan = self._plans[seq] = self.plan(views)
            collector = StatsCollector(self.name, op, n_ranks=self.comm.size)
            collector.n_groups = plan.n_groups
            collector.path = resolve_path(self, plan)
            collector.attach_pfs(self.pfs)
            if self.auditor is not None:
                collector.auditor = self.auditor
            self._stats[seq] = collector
        return self._views[seq], self._plans[seq], self._stats[seq]

    # ------------------------------------------------------------------
    def plan(self, patterns: Sequence[AccessPattern]) -> ExecutionPlan:
        """Compute the baseline execution plan for the gathered views."""
        aggs = default_aggregators(self.comm.placement, self.config.cb_nodes)
        return even_plan(
            file_views(patterns), aggs, self.config.cb_buffer_size,
            self.pfs.layout.stripe_size,
        )
