"""Byte-conservation auditing across the degraded modes.

A collective that degrades mid-flight — aggregator failover, pipeline
drain — must still move every requested byte exactly as a healthy run
would.  The
:class:`ConservationAuditor` is an opt-in runtime checker of that
contract: engines report execution attempts and the file extents they
actually touch, and :meth:`ConservationAuditor.verify` asserts, per
finalized operation, that

1. **coverage** — the union of file extents read/written covers the
   union of the extents the ranks requested (no lost bytes);
2. **shuffle conservation** — the *final* (successful) attempt shuffled
   exactly the requested byte total: every rank's data crossed to its
   aggregator once, no more, no less;
3. **allocation hygiene** — no node retains committed memory, i.e.
   every staging/aggregation allocation was freed.

Attempts are delimited without any engine-side attempt id: every rank
reports through :meth:`~repro.core.metrics.StatsCollector.record_attempt`
once per execution attempt (the vectorized driver reports all ranks in
one call), so arrival ``k * n_ranks`` is the first of attempt ``k`` —
and because aborts happen at barriers, it happens-before any shuffle of
that attempt.  Snapshotting the shuffle counters there yields
per-attempt deltas.

Wiring: ``auditor.attach(engine)`` (works for both
:class:`~repro.core.mcio.MemoryConsciousCollectiveIO` and
:class:`~repro.core.two_phase.TwoPhaseCollectiveIO`); each operation's
collector then reports through the auditor and hands it the final
stats, accumulating one :class:`AuditRecord` per operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.metrics import CollectiveStats
from repro.core.request import Extent, coalesce_extents

__all__ = ["AuditRecord", "ConservationAuditor", "ConservationError"]


class ConservationError(AssertionError):
    """The byte-conservation invariant does not hold.

    Carries every violation found (not just the first) so a failing
    chaos cell reports the full damage in one go.
    """

    def __init__(self, violations: Sequence[str]):
        self.violations = tuple(violations)
        super().__init__(
            "byte conservation violated:\n  - " + "\n  - ".join(self.violations)
        )


@dataclass
class AuditRecord:
    """What one finalized operation reported."""

    stats: CollectiveStats
    #: Execution attempts observed (1 = no mid-collective degradation).
    attempts: int
    #: Coalesced file extents actually read/written (all attempts).
    extents: list
    #: Shuffle bytes moved by the final attempt alone.
    final_attempt_shuffle: int


class _Track:
    """Per-collector accumulation state (pre-finalize)."""

    __slots__ = ("calls", "snapshots", "extents")

    def __init__(self):
        self.calls = 0
        self.snapshots: list[int] = []
        self.extents: list[Extent] = []


def _uncovered(requested: list, recorded: list) -> list:
    """Requested extents (or parts) absent from the recorded union."""
    missing = []
    ri = 0
    for req in requested:
        pos = req.offset
        while pos < req.end:
            while ri < len(recorded) and recorded[ri].end <= pos:
                ri += 1
            if ri >= len(recorded) or recorded[ri].offset >= req.end:
                missing.append(Extent(pos, req.end - pos))
                break
            cov = recorded[ri]
            if cov.offset > pos:
                missing.append(Extent(pos, cov.offset - pos))
            pos = cov.end
    return missing


class ConservationAuditor:
    """Opt-in runtime checker of the no-lost-bytes contract.

    Parameters
    ----------
    cluster:
        The cluster whose node memories the hygiene check inspects;
        defaults to the attached engine's.
    """

    def __init__(self, cluster=None):
        self.cluster = cluster
        #: One record per finalized operation, in completion order.
        self.records: list[AuditRecord] = []
        self._tracks: dict = {}

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, engine) -> "ConservationAuditor":
        """Audit every operation `engine` runs from now on."""
        engine.auditor = self
        if self.cluster is None:
            self.cluster = engine.comm.cluster
        return self

    # ------------------------------------------------------------------
    # collector-facing hooks
    # ------------------------------------------------------------------
    def on_attempt(self, collector, n: int = 1) -> None:
        """`n` ranks entered an execution attempt.

        The first arrival of each attempt (call count a multiple of the
        rank count) snapshots the shuffle counters; the abort barrier
        guarantees no byte of the new attempt moved yet.  The vectorized
        driver reports all ranks of an attempt in one call.
        """
        track = self._tracks.setdefault(id(collector), _Track())
        if track.calls % collector.n_ranks == 0:
            track.snapshots.append(
                collector.shuffle_intra_node_bytes
                + collector.shuffle_inter_node_bytes
            )
        track.calls += n

    def on_io_extent(self, collector, offset: int, length: int) -> None:
        """One file extent was read or written."""
        track = self._tracks.setdefault(id(collector), _Track())
        track.extents.append(Extent(offset, length))

    def on_finalize(self, collector, final: CollectiveStats) -> None:
        """The operation completed; seal its record."""
        track = self._tracks.pop(id(collector), None)
        if track is None:
            track = _Track()
        total_shuffle = (
            collector.shuffle_intra_node_bytes
            + collector.shuffle_inter_node_bytes
        )
        base = track.snapshots[-1] if track.snapshots else 0
        self.records.append(
            AuditRecord(
                stats=final,
                attempts=len(track.snapshots),
                extents=coalesce_extents(track.extents),
                final_attempt_shuffle=total_shuffle - base,
            )
        )

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def verify(
        self,
        patterns: Sequence,
        record: Optional[AuditRecord] = None,
        check_memory: bool = True,
    ) -> AuditRecord:
        """Assert conservation for one operation (default: the latest).

        `patterns` are the per-rank access patterns the operation was
        called with.  Raises :class:`ConservationError` listing every
        violated invariant; returns the checked record on success.
        """
        violations: list[str] = []
        if record is None:
            if not self.records:
                raise ConservationError(["no finalized operation to audit"])
            record = self.records[-1]

        requested = coalesce_extents(
            Extent(off, length)
            for p in patterns
            for off, length, _ in p.iter_mapped_extents()
        )
        missing = _uncovered(requested, record.extents)
        if missing:
            lost = sum(e.length for e in missing)
            violations.append(
                f"coverage: {lost} requested bytes never touched storage "
                f"(first gap {missing[0].offset}+{missing[0].length})"
            )

        expected = sum(p.nbytes for p in patterns)
        if record.final_attempt_shuffle != expected:
            violations.append(
                f"shuffle: final attempt moved {record.final_attempt_shuffle} "
                f"bytes, requested {expected} "
                f"(strategy={record.stats.strategy}, attempts={record.attempts})"
            )

        if check_memory and self.cluster is not None:
            for node in self.cluster.nodes:
                if node.memory.committed != 0:
                    violations.append(
                        f"memory: node {node.node_id} retains "
                        f"{node.memory.committed} committed bytes"
                    )
        if violations:
            raise ConservationError(violations)
        return record
