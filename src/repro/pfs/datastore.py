"""Byte-accurate backing store for correctness-mode runs.

The timing model never needs real bytes, but the test suite does: after a
collective write, the file's contents must equal the logically expected
array byte-for-byte.  :class:`SparseFile` stores data in fixed-size chunks
keyed by chunk index, so a file can be logically huge while only written
regions consume memory.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SparseFile"]


class SparseFile:
    """A sparse, growable byte file backed by chunked numpy arrays.

    Unwritten regions read back as zeros (like a POSIX sparse file).

    Parameters
    ----------
    chunk_size:
        Allocation granularity in bytes.
    """

    def __init__(self, chunk_size: int = 64 * 1024):
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.chunk_size = int(chunk_size)
        self._chunks: dict[int, np.ndarray] = {}
        self._size = 0

    @property
    def size(self) -> int:
        """Logical file size (one past the highest byte ever written)."""
        return self._size

    @property
    def allocated_bytes(self) -> int:
        """Physical bytes held by chunks (sparseness measure)."""
        return len(self._chunks) * self.chunk_size

    # ------------------------------------------------------------------
    def write(self, offset: int, data: np.ndarray | bytes | bytearray) -> None:
        """Write `data` at byte `offset`."""
        if offset < 0:
            raise ValueError("negative offset")
        buf = np.frombuffer(bytes(data), dtype=np.uint8) if not isinstance(
            data, np.ndarray
        ) else np.ascontiguousarray(data, dtype=np.uint8).reshape(-1)
        n = buf.size
        if n == 0:
            return
        self._size = max(self._size, offset + n)
        pos = 0
        while pos < n:
            abs_off = offset + pos
            ci = abs_off // self.chunk_size
            within = abs_off - ci * self.chunk_size
            take = min(n - pos, self.chunk_size - within)
            chunk = self._chunks.get(ci)
            if chunk is None:
                chunk = np.zeros(self.chunk_size, dtype=np.uint8)
                self._chunks[ci] = chunk
            chunk[within : within + take] = buf[pos : pos + take]
            pos += take

    def read(self, offset: int, length: int) -> np.ndarray:
        """Read `length` bytes at `offset` (zeros where unwritten)."""
        if offset < 0 or length < 0:
            raise ValueError("offset/length must be >= 0")
        out = np.zeros(length, dtype=np.uint8)
        pos = 0
        while pos < length:
            abs_off = offset + pos
            ci = abs_off // self.chunk_size
            within = abs_off - ci * self.chunk_size
            take = min(length - pos, self.chunk_size - within)
            chunk = self._chunks.get(ci)
            if chunk is not None:
                out[pos : pos + take] = chunk[within : within + take]
            pos += take
        return out
