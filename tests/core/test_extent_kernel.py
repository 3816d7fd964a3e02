"""The block-array extent kernel against the per-object reference.

:func:`~repro.core.request.union_blocks` (and the window union built on
it) is the one interval union both execution drivers use;
:func:`~repro.core.request.coalesce_extents` is the independent
per-``Extent`` reference the conservation auditor keeps.  These
properties pin the kernel to that reference on random strided patterns,
pattern arrays and windows — touching, overlapping and zero-length
blocks included — and at block counts far past any old cap.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.pattern_array import PatternArray
from repro.core.request import (
    AccessPattern,
    Extent,
    StridedSegment,
    block_arrays,
    coalesce_extents,
    union_blocks,
    window_union,
)

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def segments(draw, lo=0):
    """One strided segment starting at or after `lo` (contiguous runs,
    ``stride == block`` trains and gappy trains)."""
    offset = lo + draw(st.integers(0, 40))
    block = draw(st.integers(1, 24))
    count = draw(st.integers(1, 12))
    stride = block + draw(st.sampled_from([0, 0, 1, 3, 17]))
    return StridedSegment(offset, block, stride, count)


@st.composite
def patterns(draw):
    """One rank's ordered, non-self-overlapping file view."""
    segs, pos = [], draw(st.integers(0, 60))
    for _ in range(draw(st.integers(0, 4))):
        seg = draw(segments(pos))
        segs.append(seg)
        pos = seg.end
    return AccessPattern(segs)


windows = st.tuples(st.integers(0, 400), st.integers(0, 400)).map(
    lambda t: Extent(min(t), abs(t[1] - t[0]))
)


def reference_window_union(pats, senders, window):
    """Per-block clip + coalesce: the object-at-a-time oracle."""
    pieces = []
    for r in senders:
        for off, ln, _ in pats[r].iter_mapped_extents():
            piece = Extent(off, ln).clip(window.offset, window.end)
            if piece is not None:
                pieces.append(piece)
    return coalesce_extents(pieces)


# ---------------------------------------------------------------------------
# union_blocks / block_arrays


@SETTINGS
@given(st.lists(st.tuples(st.integers(0, 300), st.integers(0, 40)), max_size=60))
def test_union_blocks_matches_coalesce(blocks):
    starts = np.array([s for s, _ in blocks], dtype=np.int64)
    ends = np.array([s + n for s, n in blocks], dtype=np.int64)
    assert union_blocks(starts, ends) == coalesce_extents(
        Extent(s, n) for s, n in blocks
    )


@SETTINGS
@given(st.lists(segments(), max_size=6))
def test_block_arrays_expands_every_block(segs):
    """One entry per block, in segment order — ``stride == block``
    trains stay ``count`` entries, never one merged run."""
    starts, ends = block_arrays(segs)
    want = [e for seg in segs for e in seg.iter_extents()]
    assert starts.dtype == np.int64 and ends.dtype == np.int64
    assert list(zip(starts.tolist(), ends.tolist())) == [
        (e.offset, e.end) for e in want
    ]
    assert union_blocks(starts, ends) == coalesce_extents(want)


def test_union_exact_at_quarter_million_blocks():
    """Far past the block counts that used to collapse to one covering
    extent: every hole survives."""
    n = 250_001
    starts = np.arange(n, dtype=np.int64)[::-1] * 3
    got = union_blocks(starts, starts + 2)
    assert len(got) == n
    assert got[0] == Extent(0, 2) and got[-1] == Extent(3 * (n - 1), 2)
    assert sum(e.length for e in got) == 2 * n


# ---------------------------------------------------------------------------
# window_union over pattern sequences and pattern arrays


@SETTINGS
@given(st.lists(patterns(), min_size=1, max_size=6), windows, st.data())
def test_window_union_matches_coalesce_on_strided_patterns(pats, window, data):
    senders = data.draw(
        st.lists(st.sampled_from(range(len(pats))), unique=True), label="senders"
    )
    assert window_union(pats, senders, window) == reference_window_union(
        pats, senders, window
    )


@SETTINGS
@given(
    st.lists(st.tuples(st.integers(0, 300), st.integers(0, 50)),
             min_size=1, max_size=30),
    windows,
    st.data(),
)
def test_window_union_matches_coalesce_on_pattern_arrays(extents, window, data):
    pa = PatternArray([s for s, _ in extents], [n for _, n in extents])
    ranks = data.draw(
        st.lists(st.sampled_from(range(len(pa))), unique=True), label="ranks"
    )
    want = reference_window_union(list(pa), ranks, window)
    assert window_union(pa, ranks, window) == want
    # the array route and the materialised per-pattern route agree
    assert window_union(list(pa), ranks, window) == want
    assert window_union(pa, np.asarray(ranks, dtype=np.int64), window) == want
