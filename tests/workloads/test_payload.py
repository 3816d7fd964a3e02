"""pattern_bytes reproduces the per-byte formula it replaces."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.workloads import pattern_bytes


def reference(nbytes, salt):
    idx = np.arange(nbytes, dtype=np.int64)
    return ((idx * 31 + salt) % 251).astype(np.uint8)


@settings(max_examples=60, deadline=None)
@given(
    nbytes=st.sampled_from([0, 1, 250, 251, 252, 500_000]),
    salt=st.integers(min_value=-(10**6), max_value=10**9),
)
def test_matches_reference_formula(nbytes, salt):
    got = pattern_bytes(nbytes, salt)
    assert got.dtype == np.uint8
    assert got.shape == (nbytes,)
    assert np.array_equal(got, reference(nbytes, salt))


def test_returns_fresh_writable_arrays():
    a = pattern_bytes(600, 13)
    b = pattern_bytes(600, 13)
    a[:] = 0
    assert np.array_equal(b, reference(600, 13))
