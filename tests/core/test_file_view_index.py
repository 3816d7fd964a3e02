"""FileViewIndex against the per-pattern oracles, and its lifetime.

Every query the planner and both drivers ask of a collective's views —
``senders_in``, ``senders_in_each``, ``bytes_in_many``, ``sender_bytes``,
``sum_bytes_in``, ``clipped_blocks`` and the per-rank summaries — must
return exactly what the object-at-a-time code answers:
``AccessPattern.bytes_in``, ``clip(...).nbytes``, and
``coalesce_extents`` / ``union_blocks`` over ``block_arrays`` of
clipped segments.  The strategies mix strided and
``stride == block`` trains, single-block segments with arbitrary
strides, empty ranks, several ranks reading the same bytes, sparse
trains whose span crosses windows they hold nothing in, and windows that
are zero-width, inverted, in gaps, or cut head and tail blocks.

A :class:`PatternArray` and the index built from its materialised
patterns must agree on every query (one API, two storages).  Finally,
the index lives exactly as long as its collective or persistent handle.
"""

from __future__ import annotations

import gc

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import MCIOConfig, MemoryConsciousCollectiveIO, TwoPhaseCollectiveIO
from repro.core.pattern_array import FileViewIndex, PatternArray, file_views
from repro.core.request import (
    AccessPattern,
    Extent,
    StridedSegment,
    block_arrays,
    coalesce_extents,
    union_blocks,
    window_union,
)
from repro.mpi import SimFile, contiguous_view

from tests.helpers import make_stack

SETTINGS = settings(max_examples=200, deadline=None)


# ---------------------------------------------------------------------------
# strategies


@st.composite
def segments(draw, lo=0):
    """A segment starting at or after `lo`: a strided train, a
    ``stride == block`` train, a sparse train with a wide stride, or a
    single block whose stride is arbitrary (even below its block)."""
    offset = lo + draw(st.integers(0, 40))
    block = draw(st.integers(1, 24))
    kind = draw(st.sampled_from(["strided", "run", "sparse", "single"]))
    if kind == "single":
        return StridedSegment(offset, block, draw(st.integers(0, 50)), 1)
    count = draw(st.integers(1, 8))
    gap = {
        "strided": draw(st.integers(1, 20)),
        "run": 0,
        "sparse": draw(st.integers(60, 200)),
    }[kind]
    return StridedSegment(offset, block, block + gap, count)


@st.composite
def patterns(draw):
    """One rank's ordered, non-self-overlapping view (possibly empty)."""
    segs, pos = [], draw(st.integers(0, 60))
    for _ in range(draw(st.integers(0, 4))):
        seg = draw(segments(pos))
        segs.append(seg)
        pos = seg.end
    return AccessPattern(segs)


@st.composite
def view_sets(draw):
    """0-7 ranks; some ranks repeat another's view (overlapping reads)."""
    pats = draw(st.lists(patterns(), max_size=7))
    for _ in range(draw(st.integers(0, 2))):
        if pats:
            pats.append(draw(st.sampled_from(pats)))
    return pats


windows = st.tuples(st.integers(0, 500), st.integers(0, 500))


# ---------------------------------------------------------------------------
# oracles


def oracle_blocks(pats, ranks, lo, hi):
    """Union of the ranks' clipped segments, expanded block by block."""
    return union_blocks(
        *block_arrays(
            seg for r in ranks for seg in pats[r].clip(lo, hi).segments
        )
    )


def oracle_extents(pats, ranks, lo, hi):
    """Per-``Extent`` clip + coalesce, never touching block arrays."""
    pieces = []
    for r in ranks:
        for off, ln, _ in pats[r].iter_mapped_extents():
            piece = Extent(off, ln).clip(lo, hi)
            if piece is not None:
                pieces.append(piece)
    return coalesce_extents(pieces)


def check_window(views, pats, lo, hi, ranks):
    want = [p.bytes_in(lo, hi) for p in pats]
    assert want == [p.clip(lo, hi).nbytes if hi > lo else 0 for p in pats]
    assert views.senders_in(lo, hi).tolist() == [
        r for r, n in enumerate(want) if n > 0
    ]
    assert views.bytes_in_many(range(len(pats)), lo, hi).tolist() == want
    assert views.bytes_in_many(ranks, lo, hi).tolist() == [
        want[r] for r in ranks
    ]
    senders, nbytes = views.sender_bytes(lo, hi)
    assert senders.dtype == np.int64 and nbytes.dtype == np.int64
    assert list(zip(senders.tolist(), nbytes.tolist())) == [
        (r, n) for r, n in enumerate(want) if n > 0
    ]
    assert views.sum_bytes_in(lo, hi) == sum(want)
    assert views.sum_bytes_in(lo, hi, ranks) == sum(want[r] for r in ranks)
    assert views.sum_bytes_in(lo, hi, []) == 0

    starts, ends = views.clipped_blocks(ranks, lo, hi)
    assert starts.dtype == np.int64 and ends.dtype == np.int64
    # one rank's blocks never overlap each other: the clipped lengths add
    # up to its byte count
    assert int(np.clip(ends - starts, 0, None).sum()) == sum(
        want[r] for r in ranks
    )
    union = union_blocks(starts, ends)
    assert union == oracle_blocks(pats, ranks, lo, hi)
    assert union == oracle_extents(pats, ranks, lo, hi)
    assert window_union(views, ranks, Extent(min(lo, hi), max(0, hi - lo))) == (
        oracle_extents(pats, ranks, min(lo, hi), max(lo, hi))
        if hi > lo
        else []
    )


# ---------------------------------------------------------------------------
# differential properties


@SETTINGS
@given(view_sets(), st.lists(windows, min_size=1, max_size=4), st.data())
def test_queries_match_per_pattern_oracles(pats, wins, data):
    views = FileViewIndex(pats)
    ranks = data.draw(
        st.lists(st.sampled_from(range(len(pats))), unique=True)
        if pats
        else st.just([]),
        label="ranks",
    )
    for lo, hi in wins:
        check_window(views, pats, lo, hi, ranks)


@SETTINGS
@given(view_sets(), st.lists(st.integers(0, 500), max_size=8))
def test_senders_in_each_matches_senders_in(pats, cuts):
    """Disjoint windows tiling the cuts (zero-width ones included), in
    shuffled order."""
    views = FileViewIndex(pats)
    cuts = sorted(cuts)
    wins = list(zip(cuts, cuts[1:]))[::-1]
    assert views.senders_in_each(wins) == tuple(
        tuple(views.senders_in(lo, hi).tolist()) for lo, hi in wins
    )
    assert views.senders_in_each(wins) == tuple(
        tuple(r for r, p in enumerate(pats) if p.bytes_in(lo, hi) > 0)
        for lo, hi in wins
    )


@SETTINGS
@given(view_sets())
def test_summaries_match_patterns(pats):
    views = FileViewIndex(pats)
    assert len(views) == len(pats) and list(views) == pats
    assert all(views[r] is p for r, p in enumerate(pats))
    assert views.starts.tolist() == [p.start for p in pats]
    assert views.ends.tolist() == [p.end for p in pats]
    assert views.sizes.tolist() == [p.nbytes for p in pats]
    assert views.max_segment_count == max(
        (p.segment_count for p in pats), default=0
    )
    active = [p for p in pats if not p.empty]
    assert views.any_active == bool(active)
    if active:
        assert views.bounds() == (
            min(p.start for p in active),
            max(p.end for p in active),
        )


@SETTINGS
@given(patterns(), st.integers(0, 500))
def test_buffer_position_counts_bytes_before(pattern, x):
    """The identity the per-rank queries rest on, single blocks with an
    arbitrary stride included."""
    assert pattern.buffer_position(x) == pattern.bytes_in(0, x)


# ---------------------------------------------------------------------------
# named shapes


def test_sparse_trains_crossing_windows_they_miss():
    # IOR-style: each rank's two blocks sit far apart, so every rank's
    # span covers windows holding none of its bytes
    pats = [
        AccessPattern((StridedSegment(r * 10, 10, 1000, 2),)) for r in range(8)
    ]
    views = FileViewIndex(pats)
    assert views.senders_in(1000, 1030).tolist() == [0, 1, 2]
    assert views.senders_in(200, 900).tolist() == []
    # first blocks [0, 80) less 5 bytes, second blocks [1000, 1015)
    assert views.sum_bytes_in(5, 1015) == 75 + 15
    assert views.senders_in_each([(0, 40), (500, 600), (1035, 1080)]) == (
        (0, 1, 2, 3), (), (3, 4, 5, 6, 7),
    )
    check_window(views, pats, 15, 1025, list(range(8)))


def test_run_trains_and_single_blocks():
    pats = [
        AccessPattern((StridedSegment(0, 8, 8, 5),)),  # stride == block
        AccessPattern((StridedSegment(20, 30, 3, 1),)),  # stride < block
        AccessPattern((StridedSegment(100, 4, 0, 1),)),  # zero stride
        AccessPattern(()),
    ]
    views = FileViewIndex(pats)
    assert views.bytes_in_many([0, 1, 2, 3], 4, 36).tolist() == [32, 16, 0, 0]
    assert views.senders_in(101, 102).tolist() == [2]
    for lo, hi in [(0, 40), (4, 36), (35, 101), (50, 50), (60, 20)]:
        check_window(views, pats, lo, hi, [0, 1, 2, 3])


def test_empty_view_sets():
    for pats in ([], [AccessPattern(())] * 3):
        views = FileViewIndex(pats)
        assert not views.any_active and views.max_segment_count == 0
        assert views.senders_in(0, 100).tolist() == []
        assert views.sum_bytes_in(0, 100) == 0
        assert views.senders_in_each([(0, 10), (10, 20)]) == ((), ())
        starts, ends = views.clipped_blocks(range(len(pats)), 0, 100)
        assert starts.size == 0 and ends.size == 0


def test_file_views_indexes_sequences_once():
    pats = [AccessPattern.contiguous(0, 10)]
    views = file_views(pats)
    assert isinstance(views, FileViewIndex)
    assert file_views(views) is views
    pa = PatternArray.tiled(4, 16)
    assert file_views(pa) is pa


# ---------------------------------------------------------------------------
# one API, two storages


@SETTINGS
@given(
    st.lists(
        st.tuples(st.integers(0, 400), st.integers(0, 60)), min_size=1, max_size=20
    ),
    st.lists(windows, min_size=1, max_size=4),
    st.data(),
)
def test_pattern_array_and_index_agree(extents, wins, data):
    pa = PatternArray([s for s, _ in extents], [n for _, n in extents])
    views = FileViewIndex(list(pa))
    ranks = data.draw(
        st.lists(st.sampled_from(range(len(pa))), unique=True), label="ranks"
    )
    active = pa.sizes > 0
    assert pa.sizes.tolist() == views.sizes.tolist()
    for name in ("starts", "ends"):
        assert (
            getattr(pa, name)[active].tolist()
            == getattr(views, name)[active].tolist()
        )
    assert pa.any_active == views.any_active
    assert pa.max_segment_count == views.max_segment_count
    if pa.any_active:
        assert pa.bounds() == views.bounds()
    for lo, hi in wins:
        assert pa.senders_in(lo, hi).tolist() == views.senders_in(lo, hi).tolist()
        for got, want in zip(pa.sender_bytes(lo, hi), views.sender_bytes(lo, hi)):
            assert got.tolist() == want.tolist()
        assert (
            pa.bytes_in_many(ranks, lo, hi).tolist()
            == views.bytes_in_many(ranks, lo, hi).tolist()
        )
        assert pa.sum_bytes_in(lo, hi) == views.sum_bytes_in(lo, hi)
        assert pa.sum_bytes_in(lo, hi, ranks) == views.sum_bytes_in(lo, hi, ranks)
        assert union_blocks(*pa.clipped_blocks(ranks, lo, hi)) == union_blocks(
            *views.clipped_blocks(ranks, lo, hi)
        )
    cuts = sorted({c for w in wins for c in w})
    spans = list(zip(cuts, cuts[1:]))
    assert pa.senders_in_each(spans) == views.senders_in_each(spans)


# ---------------------------------------------------------------------------
# lifetime: one index per in-flight collective or persistent handle


def live_indexes() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, FileViewIndex))


def _tile(ctx, block=600):
    return AccessPattern.contiguous(ctx.rank * block, block)


def test_blocking_collectives_drop_their_index():
    stack = make_stack(n_ranks=8, n_nodes=2, with_data=False)
    engines = [
        MemoryConsciousCollectiveIO(
            stack.comm, stack.pfs, MCIOConfig(cb_buffer_size=1024, mem_min=0)
        ),
        TwoPhaseCollectiveIO(stack.comm, stack.pfs),
    ]
    baseline = live_indexes()
    seen_in_flight = []

    def main(ctx):
        for step in range(3):
            for engine in engines:
                yield from engine.write(ctx, _tile(ctx))
                if ctx.rank == 0:
                    # between collectives every finished one is gone
                    seen_in_flight.append(live_indexes() - baseline)
                yield from engine.read(ctx, _tile(ctx))

    stack.run_spmd(main)
    # a rank that finishes first may see its peers' collective still
    # open (one index), never more
    assert seen_in_flight and max(seen_in_flight) <= 1
    assert all(not e._views for e in engines)
    assert live_indexes() == baseline


def test_persistent_handle_keeps_one_index_beside_its_plan():
    stack = make_stack(n_ranks=8, n_nodes=2, with_data=False)
    engine = MemoryConsciousCollectiveIO(
        stack.comm, stack.pfs, MCIOConfig(cb_buffer_size=1024, mem_min=0)
    )
    fh = SimFile.open(stack.comm, engine)
    baseline = live_indexes()
    handles, live = [], []

    def main(ctx):
        fh.set_view(ctx, contiguous_view(ctx.rank * 600, 600))
        pc = fh.write_all_init(ctx)
        for epoch in range(4):
            if epoch == 2 and ctx.rank == 0:
                # a stale plan re-plans at the next start: its new index
                # replaces the old one
                engine._notify_plan_invalidation("test")
            pc.start(ctx)
            yield from pc.wait(ctx)
            if ctx.rank == 0:
                live.append(live_indexes() - baseline)
        if ctx.rank == 0:
            handles.append(pc)

    stack.run_spmd(main)
    pc = handles.pop()
    assert pc.replans == 2
    assert live == [1, 1, 1, 1]
    pc.free()
    del pc, fh, main
    assert live_indexes() == baseline
