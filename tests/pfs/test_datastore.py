"""Tests for the sparse byte store."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.pfs import SparseFile


def test_write_read_roundtrip():
    f = SparseFile(chunk_size=16)
    data = np.arange(40, dtype=np.uint8)
    f.write(5, data)
    assert (f.read(5, 40) == data).all()
    assert f.size == 45


def test_unwritten_reads_zero():
    f = SparseFile(chunk_size=16)
    f.write(100, b"\xff\xff")
    got = f.read(90, 20)
    assert (got[:10] == 0).all()
    assert (got[10:12] == 255).all()
    assert (got[12:] == 0).all()


def test_overwrite():
    f = SparseFile(chunk_size=8)
    f.write(0, np.zeros(16, dtype=np.uint8))
    f.write(4, np.full(8, 7, dtype=np.uint8))
    got = f.read(0, 16)
    assert (got[4:12] == 7).all()
    assert (got[:4] == 0).all() and (got[12:] == 0).all()


def test_accepts_bytes_and_bytearray():
    f = SparseFile()
    f.write(0, b"abc")
    f.write(3, bytearray(b"def"))
    assert bytes(f.read(0, 6)) == b"abcdef"


def test_sparse_allocation():
    f = SparseFile(chunk_size=1024)
    f.write(10**9, b"x")  # a byte at 1 GB
    assert f.allocated_bytes == 1024
    assert f.size == 10**9 + 1


def test_zero_length_write_noop():
    f = SparseFile()
    f.write(50, b"")
    assert f.size == 0


def test_validation():
    with pytest.raises(ValueError):
        SparseFile(chunk_size=0)
    f = SparseFile()
    with pytest.raises(ValueError):
        f.write(-1, b"x")
    with pytest.raises(ValueError):
        f.read(-1, 4)
    with pytest.raises(ValueError):
        f.read(0, -4)


@given(
    writes=st.lists(
        st.tuples(st.integers(0, 500), st.binary(min_size=0, max_size=100)),
        max_size=12,
    ),
    chunk=st.integers(1, 64),
)
@settings(max_examples=80)
def test_matches_reference_bytearray(writes, chunk):
    """SparseFile behaves like a flat zero-initialized byte array."""
    f = SparseFile(chunk_size=chunk)
    ref = bytearray(1000)
    for off, data in writes:
        f.write(off, data)
        ref[off : off + len(data)] = data
    got = f.read(0, 700)
    assert bytes(got) == bytes(ref[:700])
