"""Tests for the extent algebra (Extent, StridedSegment, AccessPattern).

The property tests cross-check the O(1) strided arithmetic against naive
per-block expansion, which is the ground truth.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.request import (
    AccessPattern,
    Extent,
    StridedSegment,
    coalesce_extents,
)


# ---------------------------------------------------------------------------
# Extent
# ---------------------------------------------------------------------------
class TestExtent:
    def test_end_and_contains(self):
        e = Extent(10, 5)
        assert e.end == 15
        assert e.contains(10) and e.contains(14)
        assert not e.contains(15) and not e.contains(9)

    def test_clip(self):
        assert Extent(0, 100).clip(10, 20) == Extent(10, 10)
        assert Extent(0, 100).clip(100, 200) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            Extent(-1, 5)
        with pytest.raises(ValueError):
            Extent(0, -5)

    def test_empty(self):
        assert Extent(5, 0).empty
        assert not Extent(5, 1).empty

    def test_coalesce_extents(self):
        out = coalesce_extents([Extent(10, 5), Extent(0, 5), Extent(5, 5), Extent(30, 1)])
        assert out == [Extent(0, 15), Extent(30, 1)]

    def test_coalesce_drops_empty(self):
        assert coalesce_extents([Extent(5, 0)]) == []

    def test_coalesce_overlapping(self):
        assert coalesce_extents([Extent(0, 10), Extent(5, 10)]) == [Extent(0, 15)]


# ---------------------------------------------------------------------------
# StridedSegment
# ---------------------------------------------------------------------------
def expand(seg: StridedSegment) -> set[int]:
    """Ground truth: the set of byte offsets a segment covers."""
    covered = set()
    for i in range(seg.count):
        start = seg.offset + i * seg.stride
        covered.update(range(start, start + seg.block))
    return covered


class TestStridedSegment:
    def test_basic_properties(self):
        s = StridedSegment(offset=10, block=4, stride=10, count=3)
        assert s.nbytes == 12
        assert s.start == 10
        assert s.end == 34
        assert not s.contiguous

    def test_contiguous_cases(self):
        assert StridedSegment(0, 8, 8, 4).contiguous
        assert StridedSegment(0, 8, 100, 1).contiguous

    def test_validation(self):
        with pytest.raises(ValueError):
            StridedSegment(-1, 4, 8, 2)
        with pytest.raises(ValueError):
            StridedSegment(0, 0, 8, 2)
        with pytest.raises(ValueError):
            StridedSegment(0, 4, 8, 0)
        with pytest.raises(ValueError):
            StridedSegment(0, 8, 4, 2)  # stride < block

    def test_iter_extents(self):
        s = StridedSegment(0, 2, 5, 3)
        assert list(s.iter_extents()) == [Extent(0, 2), Extent(5, 2), Extent(10, 2)]

    def test_bytes_in_simple(self):
        s = StridedSegment(0, 4, 10, 3)  # [0,4) [10,14) [20,24)
        assert s.bytes_in(0, 100) == 12
        assert s.bytes_in(0, 4) == 4
        assert s.bytes_in(2, 12) == 4  # half of block0 + half of block1
        assert s.bytes_in(4, 10) == 0  # gap
        assert s.bytes_in(50, 60) == 0

    def test_clip_head_middle_tail(self):
        s = StridedSegment(0, 4, 10, 5)  # blocks at 0,10,20,30,40
        pieces = s.clip(2, 33)
        total = sum(p.nbytes for p in pieces)
        assert total == s.bytes_in(2, 33)
        # pieces must be inside the window and disjoint
        covered = set()
        for p in pieces:
            ext = expand(p)
            assert all(2 <= b < 33 for b in ext)
            assert not (covered & ext)
            covered |= ext
        assert covered == {b for b in expand(s) if 2 <= b < 33}

    def test_clip_empty_window(self):
        s = StridedSegment(0, 4, 10, 3)
        assert s.clip(5, 5) == []
        assert s.clip(100, 200) == []

    def test_position_of(self):
        s = StridedSegment(0, 4, 10, 3)
        assert s.position_of(0) == 0
        assert s.position_of(2) == 2
        assert s.position_of(4) == 4
        assert s.position_of(7) == 4  # inside the gap
        assert s.position_of(10) == 4
        assert s.position_of(12) == 6
        assert s.position_of(24) == 12
        assert s.position_of(1000) == 12


segment_strategy = st.builds(
    lambda offset, block, gap, count: StridedSegment(
        offset, block, block + gap, count
    ),
    offset=st.integers(0, 200),
    block=st.integers(1, 20),
    gap=st.integers(0, 30),
    count=st.integers(1, 12),
)


@given(seg=segment_strategy, lo=st.integers(0, 400), span=st.integers(0, 400))
def test_bytes_in_matches_bruteforce(seg, lo, span):
    hi = lo + span
    truth = len([b for b in expand(seg) if lo <= b < hi])
    assert seg.bytes_in(lo, hi) == truth


@given(seg=segment_strategy, lo=st.integers(0, 400), span=st.integers(0, 400))
def test_clip_matches_bruteforce(seg, lo, span):
    hi = lo + span
    truth = {b for b in expand(seg) if lo <= b < hi}
    pieces = seg.clip(lo, hi)
    covered: set[int] = set()
    for p in pieces:
        ext = expand(p)
        assert not (covered & ext), "clip pieces overlap"
        covered |= ext
    assert covered == truth


@given(seg=segment_strategy, pos=st.integers(0, 500))
def test_position_of_matches_bruteforce(seg, pos):
    truth = len([b for b in sorted(expand(seg)) if b < pos])
    assert seg.position_of(pos) == truth


# ---------------------------------------------------------------------------
# AccessPattern
# ---------------------------------------------------------------------------
def pattern_strategy():
    """Non-overlapping ordered segments built by stacking gaps."""

    @st.composite
    def build(draw):
        n = draw(st.integers(0, 5))
        segments = []
        cursor = draw(st.integers(0, 50))
        for _ in range(n):
            block = draw(st.integers(1, 10))
            gap = draw(st.integers(0, 15))
            count = draw(st.integers(1, 6))
            seg = StridedSegment(cursor, block, block + gap, count)
            segments.append(seg)
            cursor = seg.end + draw(st.integers(0, 20))
        return AccessPattern(tuple(segments))

    return build()


def expand_pattern(p: AccessPattern) -> list[int]:
    out: list[int] = []
    for seg in p.segments:
        out.extend(sorted(expand(seg)))
    return out


class TestAccessPattern:
    def test_contiguous_constructor(self):
        p = AccessPattern.contiguous(100, 50)
        assert p.nbytes == 50
        assert p.start == 100 and p.end == 150
        assert p.segment_count == 1

    def test_contiguous_zero_length(self):
        p = AccessPattern.contiguous(100, 0)
        assert p.empty
        assert p.nbytes == 0

    def test_from_extents(self):
        p = AccessPattern.from_extents([Extent(0, 4), Extent(10, 4)])
        assert p.nbytes == 8
        assert p.block_count == 2

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            AccessPattern(
                (StridedSegment(0, 10, 10, 1), StridedSegment(5, 10, 10, 1))
            )

    def test_rejects_out_of_order(self):
        with pytest.raises(ValueError):
            AccessPattern(
                (StridedSegment(100, 10, 10, 1), StridedSegment(0, 10, 10, 1))
            )

    def test_bytes_in_across_segments(self):
        p = AccessPattern(
            (StridedSegment(0, 4, 10, 2), StridedSegment(100, 8, 8, 1))
        )
        assert p.bytes_in(0, 200) == 16
        assert p.bytes_in(12, 104) == 6  # 2 bytes of block1 + 4 of the run

    def test_clip_returns_subpattern(self):
        p = AccessPattern.contiguous(0, 100)
        q = p.clip(25, 75)
        assert q.nbytes == 50
        assert q.start == 25 and q.end == 75

    def test_buffer_position(self):
        p = AccessPattern(
            (StridedSegment(0, 4, 10, 2), StridedSegment(100, 8, 8, 1))
        )
        assert p.buffer_position(0) == 0
        assert p.buffer_position(3) == 3
        assert p.buffer_position(10) == 4
        assert p.buffer_position(100) == 8
        assert p.buffer_position(104) == 12
        assert p.buffer_position(10**9) == 16

    def test_iter_mapped_extents(self):
        p = AccessPattern((StridedSegment(0, 4, 10, 2),))
        assert list(p.iter_mapped_extents()) == [(0, 4, 0), (10, 4, 4)]

    def test_coalesce_contiguous_runs(self):
        p = AccessPattern(
            (StridedSegment(0, 10, 10, 1), StridedSegment(10, 10, 10, 1))
        )
        q = p.coalesce()
        assert q.segment_count == 1
        assert q.nbytes == 20

    def test_coalesce_strided_continuation(self):
        p = AccessPattern(
            (StridedSegment(0, 4, 10, 3), StridedSegment(30, 4, 10, 2))
        )
        q = p.coalesce()
        assert q.segment_count == 1
        assert q.segments[0].count == 5

    def test_coalesce_respects_geometry_mismatch(self):
        p = AccessPattern(
            (StridedSegment(0, 4, 10, 3), StridedSegment(30, 5, 10, 2))
        )
        assert p.coalesce().segment_count == 2

    @given(p=pattern_strategy(), lo=st.integers(0, 300), span=st.integers(0, 300))
    @settings(max_examples=200)
    def test_pattern_bytes_in_matches_bruteforce(self, p, lo, span):
        hi = lo + span
        truth = len([b for b in expand_pattern(p) if lo <= b < hi])
        assert p.bytes_in(lo, hi) == truth

    @given(p=pattern_strategy(), lo=st.integers(0, 300), span=st.integers(0, 300))
    @settings(max_examples=200)
    def test_pattern_clip_matches_bruteforce(self, p, lo, span):
        hi = lo + span
        truth = [b for b in expand_pattern(p) if lo <= b < hi]
        clipped = p.clip(lo, hi)
        assert expand_pattern(clipped) == truth
        assert clipped.nbytes == len(truth)

    @given(p=pattern_strategy())
    def test_pattern_coalesce_preserves_bytes(self, p):
        q = p.coalesce()
        assert expand_pattern(q) == expand_pattern(p)
        assert q.segment_count <= p.segment_count

    @given(p=pattern_strategy(), pos=st.integers(0, 400))
    def test_pattern_buffer_position_matches_bruteforce(self, p, pos):
        truth = len([b for b in expand_pattern(p) if b < pos])
        assert p.buffer_position(pos) == truth

    @given(p=pattern_strategy(), cut=st.integers(0, 300))
    def test_clip_split_is_partition(self, p, cut):
        """Splitting a pattern at any point loses no bytes."""
        left = p.clip(0, cut)
        right = p.clip(cut, max(p.end, cut) + 1)
        assert left.nbytes + right.nbytes == p.nbytes
