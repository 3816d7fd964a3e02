"""Tests for workload generators."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads import CollPerfWorkload, IORWorkload


def check_disjoint_cover(patterns, total_bytes):
    """Patterns pairwise disjoint and together covering total_bytes."""
    covered = 0
    intervals = []
    for p in patterns:
        covered += p.nbytes
        for off, ln, _ in p.iter_mapped_extents():
            intervals.append((off, off + ln))
    assert covered == total_bytes
    intervals.sort()
    for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
        assert e1 <= s2, "workload blocks overlap"
    assert intervals[0][0] == 0
    assert intervals[-1][1] == total_bytes


class TestCollPerf:
    def test_paper_configuration(self):
        w = CollPerfWorkload.paper()
        assert w.array_shape == (2048, 2048, 2048)
        assert w.n_ranks == 120
        assert w.total_bytes == 32 * 1024**3  # the paper's 32 GB file

    def test_patterns_tile_array(self):
        w = CollPerfWorkload(array_shape=(8, 8, 8), n_ranks=8, elem_size=2)
        check_disjoint_cover(w.patterns(), w.total_bytes)

    def test_nonuniform_rank_count(self):
        w = CollPerfWorkload(array_shape=(12, 10, 8), n_ranks=6, elem_size=1)
        check_disjoint_cover(w.patterns(), w.total_bytes)

    def test_scaled_shrinks(self):
        w = CollPerfWorkload.paper().scaled(64)
        assert w.array_shape == (32, 32, 32)
        assert w.n_ranks == 120

    def test_scaled_validation(self):
        with pytest.raises(ValueError):
            CollPerfWorkload.paper().scaled(0)

    def test_paper_scale_patterns_are_compact(self):
        """The 32 GB pattern must be representable without expansion."""
        w = CollPerfWorkload.paper()
        p = w.pattern(0)
        assert p.nbytes > 0
        assert p.segment_count < 1000  # strided segments, not blocks

    def test_validation(self):
        with pytest.raises(ValueError):
            CollPerfWorkload(n_ranks=0)
        with pytest.raises(ValueError):
            CollPerfWorkload(elem_size=0)
        with pytest.raises(ValueError):
            CollPerfWorkload(array_shape=(0, 2, 2))

    def test_description(self):
        assert "120 procs" in CollPerfWorkload.paper().description

    @given(
        shape=st.tuples(st.integers(2, 10), st.integers(2, 10), st.integers(2, 10)),
        n=st.integers(1, 8),
        elem=st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_tiling_property(self, shape, n, elem):
        try:
            w = CollPerfWorkload(array_shape=shape, n_ranks=n, elem_size=elem)
            patterns = w.patterns()
        except ValueError:
            return  # grid finer than the array
        check_disjoint_cover(patterns, w.total_bytes)


class TestIOR:
    def test_interleaved_geometry(self):
        w = IORWorkload(n_ranks=4, block_size=100, segments=3)
        p = w.pattern(1)
        offsets = [off for off, _, _ in p.iter_mapped_extents()]
        assert offsets == [100, 500, 900]

    def test_patterns_tile_file(self):
        w = IORWorkload(n_ranks=4, block_size=64, segments=3)
        check_disjoint_cover(w.patterns(), w.total_bytes)

    def test_random_layout_tiles_too(self):
        w = IORWorkload(n_ranks=5, block_size=32, segments=4, layout="random", seed=3)
        check_disjoint_cover(w.patterns(), w.total_bytes)

    def test_random_layout_deterministic(self):
        a = IORWorkload(n_ranks=5, block_size=32, segments=4, layout="random", seed=3)
        b = IORWorkload(n_ranks=5, block_size=32, segments=4, layout="random", seed=3)
        assert a.patterns() == b.patterns()

    def test_random_layout_differs_from_interleaved(self):
        rand = IORWorkload(n_ranks=8, block_size=32, segments=4,
                           layout="random", seed=1)
        inter = IORWorkload(n_ranks=8, block_size=32, segments=4)
        assert rand.patterns() != inter.patterns()

    def test_paper_bytes_per_rank(self):
        w = IORWorkload.paper()
        assert w.bytes_per_rank == 32 * 1024**2  # 32 MB per process

    def test_scaled(self):
        w = IORWorkload(n_ranks=4, block_size=1024, segments=2).scaled(4)
        assert w.block_size == 256
        assert w.segments == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            IORWorkload(n_ranks=0)
        with pytest.raises(ValueError):
            IORWorkload(segments=0)
        with pytest.raises(ValueError):
            IORWorkload(layout="bogus")  # type: ignore[arg-type]
        w = IORWorkload(n_ranks=2)
        with pytest.raises(ValueError):
            w.pattern(5)

    @given(
        n=st.integers(1, 10),
        block=st.integers(1, 256),
        segments=st.integers(1, 6),
        layout=st.sampled_from(["interleaved", "random"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_tiling_property(self, n, block, segments, layout):
        w = IORWorkload(n_ranks=n, block_size=block, segments=segments,
                        layout=layout, seed=9)
        check_disjoint_cover(w.patterns(), w.total_bytes)
