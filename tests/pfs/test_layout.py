"""Tests for the striping layout: :meth:`StripeLayout.extent_load`, the
``(server, nbytes)`` pairs of a contiguous extent, against per-stripe and
per-byte walks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.request import Extent
from repro.pfs import StripeLayout


def per_stripe_load(lay, ext):
    """Reference: walk `ext` stripe piece by stripe piece."""
    load = {}
    pos = ext.offset
    while pos < ext.end:
        stripe = pos // lay.stripe_size
        piece_end = min(ext.end, (stripe + 1) * lay.stripe_size)
        server = stripe % lay.n_servers
        load[server] = load.get(server, 0) + piece_end - pos
        pos = piece_end
    return sorted(load.items())


class TestBasics:
    def test_stripe_and_server_of(self):
        """Stripe ``k`` lives on server ``k mod n``."""
        lay = StripeLayout(stripe_size=100, n_servers=4)
        assert lay.extent_load(Extent(0, 1)) == [(0, 1)]
        assert lay.extent_load(Extent(99, 1)) == [(0, 1)]
        assert lay.extent_load(Extent(100, 1)) == [(1, 1)]
        assert lay.extent_load(Extent(450, 1)) == [(0, 1)]  # stripe 4

    def test_validation(self):
        with pytest.raises(ValueError):
            StripeLayout(0, 4)
        with pytest.raises(ValueError):
            StripeLayout(100, 0)


class TestSplitExtent:
    def test_within_one_stripe(self):
        lay = StripeLayout(100, 4)
        assert lay.extent_load(Extent(120, 50)) == [(1, 50)]

    def test_spanning_stripes_round_robin(self):
        lay = StripeLayout(100, 3)
        ext = Extent(50, 300)  # pieces 50 | 100 | 100 | 50 on 0, 1, 2, 0
        assert lay.extent_load(ext) == [(0, 100), (1, 100), (2, 100)]
        assert lay.extent_load(ext) == per_stripe_load(lay, ext)

    def test_empty_extent(self):
        lay = StripeLayout(100, 3)
        assert lay.extent_load(Extent(50, 0)) == []


class TestPerServerBytes:
    def test_matches_split(self):
        lay = StripeLayout(100, 3)
        ext = Extent(50, 1234)
        load = lay.extent_load(ext)
        assert load == per_stripe_load(lay, ext)
        assert sum(nbytes for _, nbytes in load) == ext.length

    def test_single_stripe(self):
        lay = StripeLayout(100, 4)
        assert lay.extent_load(Extent(210, 30)) == [(2, 30)]

    def test_servers_touched(self):
        lay = StripeLayout(100, 4)
        assert [s for s, _ in lay.extent_load(Extent(0, 250))] == [0, 1, 2]

    @given(
        stripe=st.integers(1, 64),
        n=st.integers(1, 9),
        offset=st.integers(0, 1000),
        length=st.integers(0, 2000),
    )
    def test_per_server_bytes_matches_bruteforce(self, stripe, n, offset, length):
        lay = StripeLayout(stripe, n)
        truth = [0] * n
        for b in range(offset, offset + length):
            truth[(b // stripe) % n] += 1
        load = lay.extent_load(Extent(offset, length))
        assert load == [(s, nbytes) for s, nbytes in enumerate(truth) if nbytes]

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
        """Every touched server once, ascending, no zero entries, plain
        ints: the pairs a client turns into one request each."""
        lay = StripeLayout(stripe, n)
        ext = Extent(offset, length)
        load = lay.extent_load(ext)
        assert load == per_stripe_load(lay, ext)
        assert all(nbytes > 0 for _, nbytes in load)
        assert all(type(s) is int and type(b) is int for s, b in load)
