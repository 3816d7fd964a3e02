"""Tests for the striping layout."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.request import Extent, StridedSegment, block_arrays
from repro.pfs import StripeLayout


class TestBasics:
    def test_stripe_and_server_of(self):
        lay = StripeLayout(stripe_size=100, n_servers=4)
        assert lay.stripe_of(0) == 0
        assert lay.stripe_of(99) == 0
        assert lay.stripe_of(100) == 1
        assert lay.server_of(0) == 0
        assert lay.server_of(450) == 0  # stripe 4 -> server 0

    def test_validation(self):
        with pytest.raises(ValueError):
            StripeLayout(0, 4)
        with pytest.raises(ValueError):
            StripeLayout(100, 0)
        lay = StripeLayout(100, 4)
        with pytest.raises(ValueError):
            lay.stripe_of(-1)


class TestSplitExtent:
    def test_within_one_stripe(self):
        lay = StripeLayout(100, 4)
        pieces = list(lay.split_extent(Extent(120, 50)))
        assert pieces == [(1, Extent(120, 50))]

    def test_spanning_stripes_round_robin(self):
        lay = StripeLayout(100, 3)
        pieces = list(lay.split_extent(Extent(50, 300)))
        assert pieces == [
            (0, Extent(50, 50)),
            (1, Extent(100, 100)),
            (2, Extent(200, 100)),
            (0, Extent(300, 50)),
        ]

    def test_empty_extent(self):
        lay = StripeLayout(100, 3)
        assert list(lay.split_extent(Extent(50, 0))) == []


class TestPerServerBytes:
    def test_matches_split(self):
        lay = StripeLayout(100, 3)
        ext = Extent(50, 1234)
        per = lay.per_server_bytes(ext)
        truth = np.zeros(3, dtype=np.int64)
        for s, piece in lay.split_extent(ext):
            truth[s] += piece.length
        assert (per == truth).all()
        assert per.sum() == ext.length

    def test_single_stripe(self):
        lay = StripeLayout(100, 4)
        per = lay.per_server_bytes(Extent(210, 30))
        assert per[2] == 30 and per.sum() == 30

    def test_servers_touched(self):
        lay = StripeLayout(100, 4)
        assert lay.servers_touched(Extent(0, 250)) == [0, 1, 2]

    @given(
        stripe=st.integers(1, 64),
        n=st.integers(1, 9),
        offset=st.integers(0, 1000),
        length=st.integers(0, 2000),
    )
    def test_per_server_bytes_matches_bruteforce(self, stripe, n, offset, length):
        lay = StripeLayout(stripe, n)
        ext = Extent(offset, length)
        per = lay.per_server_bytes(ext)
        truth = np.zeros(n, dtype=np.int64)
        for b in range(offset, offset + length):
            truth[(b // stripe) % n] += 1
        assert (per == truth).all()

    @settings(max_examples=300, deadline=None)
    @given(
        stripe=st.integers(1, 64),
        n=st.integers(1, 17),
        offset=st.integers(0, 5000),
        length=st.integers(0, 5000),
    )
    def test_extent_load_is_per_server_bytes_without_zeros(
        self, stripe, n, offset, length
    ):
        lay = StripeLayout(stripe, n)
        ext = Extent(offset, length)
        per = lay.per_server_bytes(ext)
        expected = [(int(s), int(per[s])) for s in np.flatnonzero(per)]
        load = lay.extent_load(ext)
        assert load == expected
        assert all(type(s) is int and type(b) is int for s, b in load)
        assert lay.servers_touched(ext) == [s for s, _ in expected]


def per_block_load(lay, segments):
    """Reference: per-server bytes and requests summed block by block."""
    nbytes = np.zeros(lay.n_servers, dtype=np.int64)
    requests = np.zeros(lay.n_servers, dtype=np.int64)
    for seg in segments:
        for ext in seg.iter_extents():
            per = lay.per_server_bytes(ext)
            nbytes += per
            requests += per > 0
    return nbytes, requests


class TestServerLoad:
    @settings(max_examples=200, deadline=None)
    @given(
        stripe=st.integers(1, 64),
        n=st.integers(1, 9),
        geometry=st.lists(
            st.tuples(
                st.integers(0, 3000),         # offset
                st.integers(1, 700),          # block: up to ~n stripes and past
                st.sampled_from([0, 0, 1, 50, 333]),  # stride - block
                st.integers(1, 20),           # count
            ),
            max_size=5,
        ),
    )
    def test_matches_per_block_loop(self, stripe, n, geometry):
        lay = StripeLayout(stripe, n)
        segs = [
            StridedSegment(off, block, block + gap, count)
            for off, block, gap, count in geometry
        ]
        nbytes, requests = lay.server_load(*block_arrays(segs))
        want_bytes, want_requests = per_block_load(lay, segs)
        assert nbytes.tolist() == want_bytes.tolist()
        assert requests.tolist() == want_requests.tolist()

    def test_contiguous_train_counts_every_block(self):
        """``stride == block`` touches like one run but costs ``count``
        requests: the blocks are never merged."""
        lay = StripeLayout(100, 4)
        seg = StridedSegment(0, 50, 50, 8)   # 400 B over 4 stripes
        nbytes, requests = lay.server_load(*block_arrays([seg]))
        assert nbytes.tolist() == [100, 100, 100, 100]
        assert requests.tolist() == [2, 2, 2, 2]

    def test_block_spanning_every_server(self):
        lay = StripeLayout(10, 3)
        nbytes, requests = lay.server_load(
            np.array([5, 0]), np.array([75, 0])
        )
        # stripes 0..7, partial at both ends; the empty block is ignored
        assert nbytes.tolist() == [25, 25, 20]
        assert requests.tolist() == [1, 1, 1]
