"""PatternArray vs the equivalent list of AccessPatterns.

The array type promises pure speed: every planner question it answers
(`senders_in`, byte counts, group division, plan building, aggregator
candidate hosts) must return exactly what the per-pattern oracles and
the indexed ``list[AccessPattern]`` return.  These tests pin that
equivalence; the window union both storages share is pinned in
``test_extent_kernel.py``, and every query of the two storages in
``test_file_view_index.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aggregator_selection import candidate_hosts
from repro.core.engine import ExecutionPlan
from repro.core.group_division import divide_groups
from repro.core.pattern_array import PatternArray
from repro.core.request import AccessPattern, Extent, window_union


def materialize(pa: PatternArray) -> list[AccessPattern]:
    """The equivalent list of real AccessPatterns."""
    return [pa[r] for r in range(len(pa))]


def assorted_arrays():
    """A spread of layouts: tiled, gappy, overlapping, with empty ranks."""
    rng = np.random.default_rng(7)
    yield "tiled", PatternArray.tiled(16, 1000)
    yield "tiled-offset", PatternArray.tiled(9, 640, base=12345)
    yield "gappy", PatternArray(
        starts=[0, 5000, 5000 + 700, 9000, 20000, 20000],
        lengths=[4096, 700, 0, 1, 300, 0],
    )
    starts = rng.integers(0, 50_000, size=40)
    lengths = rng.integers(0, 3_000, size=40)
    yield "random-overlapping", PatternArray(starts, lengths)
    yield "single", PatternArray([77], [123])
    yield "all-empty", PatternArray([10, 20, 30], [0, 0, 0])


def windows_for(pa: PatternArray):
    """Windows that cut through, cover, and miss the workload."""
    if not pa.any_active:
        return [(0, 100), (50, 60)]
    lo, hi = pa.bounds()
    span = hi - lo
    return [
        (lo, hi),
        (max(0, lo - 10), hi + 10),
        (lo + span // 3, lo + 2 * span // 3 + 1),
        (lo, lo + 1),
        (hi, hi + 100),          # entirely past the data
        (max(0, lo - 100), lo),  # entirely before it
    ]


# ---------------------------------------------------------------------------
# construction + sequence protocol


def test_getitem_materialises_equivalent_patterns():
    pa = PatternArray([0, 100, 250], [50, 0, 75])
    assert len(pa) == 3
    for r, p in enumerate(pa):
        assert isinstance(p, AccessPattern)
        assert p == pa[r]
    assert pa[0].nbytes == 50 and pa[0].start == 0 and pa[0].end == 50
    assert pa[1].empty
    assert pa[2].bytes_in(250, 300) == 50


def test_slice_returns_pattern_array():
    pa = PatternArray.tiled(10, 64)
    sub = pa[3:7]
    assert isinstance(sub, PatternArray)
    assert len(sub) == 4
    assert materialize(sub) == materialize(pa)[3:7]


def test_tiled_layout():
    pa = PatternArray.tiled(5, 128, base=1000)
    assert [p.start for p in pa] == [1000 + r * 128 for r in range(5)]
    assert pa.total_bytes == 5 * 128
    assert pa.bounds() == (1000, 1000 + 5 * 128)


@pytest.mark.parametrize(
    "starts, lengths, msg",
    [
        ([0, 1], [5], "equal length"),
        ([[0, 1]], [[5, 5]], "1-D"),
        ([-1], [5], "negative start"),
        ([0], [-5], "negative length"),
    ],
)
def test_rejects_malformed_arrays(starts, lengths, msg):
    with pytest.raises(ValueError, match=msg):
        PatternArray(starts, lengths)


def test_properties_match_generic():
    for name, pa in assorted_arrays():
        pats = materialize(pa)
        active = [p for p in pats if not p.empty]
        assert pa.total_bytes == sum(p.nbytes for p in pats), name
        assert pa.any_active == bool(active), name
        expected_seg = max((p.segment_count for p in active), default=0)
        assert pa.max_segment_count == expected_seg, name
        if active:
            assert pa.bounds() == (
                min(p.start for p in active),
                max(p.end for p in active),
            ), name
        else:
            with pytest.raises(ValueError, match="all-empty"):
                pa.bounds()


# ---------------------------------------------------------------------------
# window queries vs the generic per-pattern walk


def test_senders_and_byte_counts_match_generic():
    for name, pa in assorted_arrays():
        pats = materialize(pa)
        for lo, hi in windows_for(pa):
            want = [
                r
                for r, p in enumerate(pats)
                if not p.empty and p.bytes_in(lo, hi) > 0
            ]
            got = pa.senders_in(lo, hi).tolist()
            assert got == want, f"{name} senders_in({lo},{hi})"

            ranks = np.arange(len(pa))
            per_rank = pa.bytes_in_many(ranks, lo, hi).tolist()
            assert per_rank == [p.bytes_in(lo, hi) for p in pats], name

            assert pa.sum_bytes_in(lo, hi) == sum(
                p.bytes_in(lo, hi) for p in pats
            ), name
            assert pa.sum_bytes_in(lo, hi, ranks=want) == sum(
                pats[r].bytes_in(lo, hi) for r in want
            ), name
            assert pa.sum_bytes_in(lo, hi, ranks=[]) == 0, name


def test_union_merges_touching_blocks():
    # ranks 0 and 1 touch exactly at 100; rank 2 is disjoint
    pa = PatternArray([0, 100, 500], [100, 50, 10])
    assert window_union(pa, [0, 1, 2], Extent(0, 1000)) == [
        Extent(0, 150),
        Extent(500, 10),
    ]


# ---------------------------------------------------------------------------
# planner results: identical plans from either storage


def test_divide_groups_identical():
    for name, pa in assorted_arrays():
        pats = materialize(pa)
        for msg_group in (512, 4096, 1 << 20):
            placement = [r % 3 for r in range(len(pa))]
            want = divide_groups(pats, placement, msg_group, stripe_size=256)
            got = divide_groups(pa, placement, msg_group, stripe_size=256)
            assert got == want, f"{name} msg_group={msg_group}"


def test_execution_plan_build_identical():
    from repro.core.filedomain import FileDomain

    for name, pa in assorted_arrays():
        if not pa.any_active:
            continue
        pats = materialize(pa)
        lo, hi = pa.bounds()
        third = max(1, (hi - lo) // 3)
        domains = [
            FileDomain(
                extent=Extent(lo + i * third, min(third, hi - lo - i * third)),
                aggregator_rank=i % len(pa),
                buffer_bytes=1024,
            )
            for i in range(3)
            if hi - lo - i * third > 0
        ]
        want = ExecutionPlan.build(domains, pats)
        got = ExecutionPlan.build(domains, pa)
        assert got.senders == want.senders, name
        assert got.domains == want.domains, name


def test_candidate_hosts_identical():
    for name, pa in assorted_arrays():
        if not pa.any_active:
            continue
        pats = materialize(pa)
        lo, hi = pa.bounds()
        placement = [r % 4 for r in range(len(pa))]
        ranks = list(range(len(pa)))
        for domain in (Extent(lo, hi - lo), Extent(lo, max(1, (hi - lo) // 2))):
            want = candidate_hosts(domain, ranks, pats, placement)
            got = candidate_hosts(domain, ranks, pa, placement)
            assert got == want, name
