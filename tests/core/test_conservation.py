"""Byte-conservation auditor: unit semantics + chaos-sweep property.

The auditor is the referee for every degraded mode this repo grows:
remerge, failover, pipeline drain.
These tests pin its mechanics (attempt delimiting, coverage gap walk,
memory hygiene) on synthetic inputs where violations are constructed on
purpose, then assert the real invariant — no lost bytes — as a seeded
property across full chaos sweeps.
"""

import pytest

from tests.helpers import make_stack, rank_payload

from repro.core import (
    AuditRecord,
    ConservationAuditor,
    ConservationError,
    TwoPhaseCollectiveIO,
    TwoPhaseConfig,
)
from repro.core.audit import _uncovered
from repro.core.metrics import CollectiveStats
from repro.core.request import AccessPattern, Extent, StridedSegment

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False

KIB = 1024


def _stats(intra=0, inter=0) -> CollectiveStats:
    return CollectiveStats(
        strategy="mcio",
        op="write",
        total_bytes=0,
        elapsed=1.0,
        n_ranks=4,
        n_aggregators=1,
        aggregator_ranks=(0,),
        agg_buffer_bytes={},
        agg_overcommit_bytes=0,
        paged_aggregators=0,
        rounds_total=1,
        shuffle_intra_node_bytes=intra,
        shuffle_inter_node_bytes=inter,
    )


def _block_patterns(n_ranks=4, nbytes=KIB):
    return [
        AccessPattern((StridedSegment(r * nbytes, nbytes, nbytes, 1),))
        for r in range(n_ranks)
    ]


class FakeCollector:
    """Just enough of StatsCollector for the auditor hooks."""

    def __init__(self, n_ranks=4):
        self.n_ranks = n_ranks
        self.shuffle_intra_node_bytes = 0
        self.shuffle_inter_node_bytes = 0


class TestUncovered:
    def test_full_coverage_has_no_gaps(self):
        req = [Extent(0, 100)]
        assert _uncovered(req, [Extent(0, 100)]) == []
        assert _uncovered(req, [Extent(0, 60), Extent(60, 40)]) == []

    def test_leading_trailing_and_interior_gaps(self):
        req = [Extent(0, 100)]
        assert _uncovered(req, [Extent(10, 90)]) == [Extent(0, 10)]
        assert _uncovered(req, [Extent(0, 90)]) == [Extent(90, 10)]
        assert _uncovered(req, [Extent(0, 40), Extent(60, 40)]) == [
            Extent(40, 20)
        ]

    def test_nothing_recorded_loses_everything(self):
        assert _uncovered([Extent(5, 10)], []) == [Extent(5, 10)]

    def test_requests_outside_recording_are_gaps(self):
        req = [Extent(0, 10), Extent(100, 10)]
        assert _uncovered(req, [Extent(0, 10)]) == [Extent(100, 10)]


class TestAttemptDelimiting:
    def test_single_attempt_counts_once_per_rank_group(self):
        auditor = ConservationAuditor()
        coll = FakeCollector(n_ranks=4)
        for _ in range(4):
            auditor.on_attempt(coll)
        coll.shuffle_inter_node_bytes = 4096
        auditor.on_finalize(coll, _stats())
        rec = auditor.records[-1]
        assert rec.attempts == 1
        assert rec.final_attempt_shuffle == 4096

    def test_degraded_retry_snapshots_per_attempt(self):
        """Bytes moved by an aborted attempt don't count against the final."""
        auditor = ConservationAuditor()
        coll = FakeCollector(n_ranks=4)
        for _ in range(4):  # attempt 0
            auditor.on_attempt(coll)
        coll.shuffle_inter_node_bytes = 999  # partial, then aborted
        for _ in range(4):  # attempt 1 (post-abort barrier)
            auditor.on_attempt(coll)
        coll.shuffle_inter_node_bytes = 999 + 4096
        auditor.on_finalize(coll, _stats())
        rec = auditor.records[-1]
        assert rec.attempts == 2
        assert rec.final_attempt_shuffle == 4096

    def test_all_ranks_in_one_call_snapshot_like_per_rank_calls(self):
        """The vectorized driver reports a whole attempt at once."""
        auditor = ConservationAuditor()
        coll = FakeCollector(n_ranks=4)
        auditor.on_attempt(coll, 4)  # attempt 0
        coll.shuffle_inter_node_bytes = 999
        auditor.on_attempt(coll, 4)  # attempt 1
        coll.shuffle_inter_node_bytes = 999 + 4096
        auditor.on_finalize(coll, _stats())
        rec = auditor.records[-1]
        assert rec.attempts == 2
        assert rec.final_attempt_shuffle == 4096

    def test_io_extents_coalesce_across_attempts(self):
        auditor = ConservationAuditor()
        coll = FakeCollector(n_ranks=1)
        auditor.on_attempt(coll)
        auditor.on_io_extent(coll, 0, 512)
        auditor.on_io_extent(coll, 512, 512)
        auditor.on_finalize(coll, _stats())
        assert auditor.records[-1].extents == [Extent(0, 1024)]


class TestVerifyViolations:
    def _record(self, extents, shuffle):
        return AuditRecord(
            stats=_stats(),
            attempts=1,
            extents=extents,
            final_attempt_shuffle=shuffle,
        )

    def test_clean_record_passes(self):
        auditor = ConservationAuditor()
        patterns = _block_patterns(4, KIB)
        rec = self._record([Extent(0, 4 * KIB)], 4 * KIB)
        assert auditor.verify(patterns, record=rec) is rec

    def test_lost_bytes_and_short_shuffle_both_reported(self):
        auditor = ConservationAuditor()
        patterns = _block_patterns(4, KIB)
        rec = self._record([Extent(0, 3 * KIB)], 3 * KIB)
        with pytest.raises(ConservationError) as exc:
            auditor.verify(patterns, record=rec)
        joined = "\n".join(exc.value.violations)
        assert "coverage" in joined and "1024" in joined
        assert "shuffle" in joined

    def test_no_finalized_operation_is_a_violation(self):
        with pytest.raises(ConservationError, match="no finalized"):
            ConservationAuditor().verify(_block_patterns())


class TestHygieneChecks:
    def test_freed_memory_passes_unfreed_allocation_flagged(self):
        stack = make_stack(n_ranks=4, n_nodes=2, cores=2)
        memory = stack.cluster.nodes[1].memory
        auditor = ConservationAuditor(cluster=stack.cluster)
        patterns = _block_patterns(4, KIB)
        rec = AuditRecord(
            stats=_stats(), attempts=1,
            extents=[Extent(0, 4 * KIB)], final_attempt_shuffle=4 * KIB,
        )
        alloc = memory.alloc(KIB, label="leak")
        with pytest.raises(ConservationError) as exc:
            auditor.verify(patterns, record=rec)
        assert exc.value.violations == (
            f"memory: node 1 retains {KIB} committed bytes",
        )
        memory.free(alloc)
        assert auditor.verify(patterns, record=rec) is rec


class TestEngineAttach:
    def test_two_phase_engine_audits_clean(self):
        stack = make_stack(n_ranks=8, n_nodes=2, cores=4)
        engine = TwoPhaseCollectiveIO(
            stack.comm, stack.pfs, TwoPhaseConfig(cb_buffer_size=8 * KIB)
        )
        auditor = ConservationAuditor().attach(engine)
        patterns = _block_patterns(8, KIB)
        payloads = [rank_payload(r, KIB) for r in range(8)]

        def main(ctx):
            yield from engine.write(ctx, patterns[ctx.rank], payloads[ctx.rank])

        stack.run_spmd(main)
        record = auditor.verify(patterns)
        assert record.attempts == 1
        assert record.final_attempt_shuffle == 8 * KIB


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis unavailable")
class TestChaosProperty:
    """Seeded property: no storm loses a byte, on any tier."""

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_resilience_sweep_conserves_bytes(self, seed):
        from repro.experiments import resilience

        # audit=True verifies every cell in-line, raising
        # ConservationError on any lost byte across retry and failover
        result = resilience.run(
            fault_rates=(0.0, 1.0),
            seed=seed,
            payload_kib=256,
            horizon=2.0,
            audit=True,
        )
        assert all(p.completed for p in result.points)
