"""Array-backed access-pattern collections for node-level simulation.

At million-rank scale a ``list[AccessPattern]`` is untenable: planning
alone touches every rank several times per domain, and materialising one
python object per rank costs more than the whole simulated collective.
:class:`PatternArray` stores a *contiguous* per-rank workload as two
int64 numpy arrays (start offset and length per rank) and answers the
planner's questions — who has bytes in a window, and how many — as
vectorized array operations.  Window unions go through the kernel both
drivers share, :func:`~repro.core.request.window_union`, which takes
this type's clipped extents as arrays (:meth:`PatternArray.clipped_blocks`).

The semantics deliberately mirror :class:`~repro.core.request.AccessPattern`
for the contiguous single-segment case: a rank with ``length == 0`` is
"empty" and never counts as a sender.  ``tests/core/test_pattern_array.py``
pins that equivalence against the generic per-pattern code paths.

Indexing a :class:`PatternArray` materialises a real
:class:`AccessPattern`, so any per-rank code path that receives one
keeps working unchanged — just slowly.  The planner and the vectorized
execution driver dispatch on ``isinstance(patterns, PatternArray)`` to
take the array route instead.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.request import AccessPattern

__all__ = ["PatternArray"]

class PatternArray(Sequence):
    """A contiguous-only per-rank workload held as numpy arrays."""

    __slots__ = ("_starts", "_lengths", "_ends", "_monotone")

    def __init__(self, starts: Iterable[int], lengths: Iterable[int]):
        starts_arr = np.asarray(starts, dtype=np.int64)
        lengths_arr = np.asarray(lengths, dtype=np.int64)
        if starts_arr.ndim != 1 or lengths_arr.ndim != 1:
            raise ValueError("starts and lengths must be 1-D")
        if starts_arr.shape != lengths_arr.shape:
            raise ValueError("starts and lengths must have equal length")
        if starts_arr.size and (starts_arr < 0).any():
            raise ValueError("negative start offset")
        if lengths_arr.size and (lengths_arr < 0).any():
            raise ValueError("negative length")
        self._starts = starts_arr
        self._lengths = lengths_arr
        self._ends = starts_arr + lengths_arr
        # rank-ordered layouts (the tiled checkpoint case) answer window
        # queries by bisection instead of full-array scans — at 10^6
        # ranks that is the difference between O(log n) and O(n) per
        # planner/driver window
        self._monotone = bool(
            starts_arr.size < 2
            or (
                (starts_arr[1:] >= starts_arr[:-1]).all()
                and (self._ends[1:] >= self._ends[:-1]).all()
            )
        )

    def _window_slice(self, lo: int, hi: int):
        """Candidate rank slice ``[i0, i1)`` for a window, or None.

        Only valid for monotone arrays: ranks before ``i0`` end at or
        before ``lo``, ranks at or past ``i1`` start at or past ``hi``.
        """
        if not self._monotone:
            return None
        i1 = int(np.searchsorted(self._starts, hi, side="left"))
        i0 = int(np.searchsorted(self._ends, lo, side="right"))
        return i0, max(i0, i1)

    # ------------------------------------------------------------------
    # construction
    @classmethod
    def contiguous(
        cls, starts: Iterable[int], lengths: Iterable[int]
    ) -> "PatternArray":
        """One contiguous extent per rank (zero length = empty rank)."""
        return cls(starts, lengths)

    @classmethod
    def tiled(cls, n_ranks: int, bytes_per_rank: int, base: int = 0) -> "PatternArray":
        """Rank ``r`` owns ``[base + r*b, base + (r+1)*b)`` — the classic
        block-partitioned checkpoint layout used by the scale sweeps."""
        starts = base + np.arange(n_ranks, dtype=np.int64) * bytes_per_rank
        lengths = np.full(n_ranks, bytes_per_rank, dtype=np.int64)
        return cls(starts, lengths)

    # ------------------------------------------------------------------
    # sequence protocol — materialises real AccessPatterns on demand
    def __len__(self) -> int:
        return int(self._starts.size)

    def __getitem__(self, rank):
        if isinstance(rank, slice):
            return PatternArray(self._starts[rank], self._lengths[rank])
        return AccessPattern.contiguous(
            int(self._starts[rank]), int(self._lengths[rank])
        )

    def __iter__(self) -> Iterator[AccessPattern]:
        for i in range(len(self)):
            yield self[i]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PatternArray {len(self)} ranks, {self.total_bytes} bytes>"

    # ------------------------------------------------------------------
    # array views
    @property
    def starts(self) -> np.ndarray:
        return self._starts

    @property
    def lengths(self) -> np.ndarray:
        return self._lengths

    @property
    def ends(self) -> np.ndarray:
        return self._ends

    @property
    def total_bytes(self) -> int:
        return int(self._lengths.sum())

    @property
    def any_active(self) -> bool:
        """True when at least one rank has a non-empty pattern."""
        return bool((self._lengths > 0).any())

    @property
    def max_segment_count(self) -> int:
        """Max ``AccessPattern.segment_count`` over ranks (1 or 0 here)."""
        return 1 if self.any_active else 0

    def bounds(self) -> tuple[int, int]:
        """(min start, max end) over non-empty ranks."""
        active = self._lengths > 0
        if not active.any():
            raise ValueError("bounds() on an all-empty PatternArray")
        return (
            int(self._starts[active].min()),
            int(self._ends[active].max()),
        )

    # ------------------------------------------------------------------
    # planner queries
    def senders_in(self, lo: int, hi: int) -> np.ndarray:
        """Ascending ranks with at least one byte in ``[lo, hi)``."""
        window = self._window_slice(lo, hi)
        if window is not None:
            i0, i1 = window
            idx = np.arange(i0, i1, dtype=np.int64)
            if idx.size:
                idx = idx[self._lengths[i0:i1] > 0]
            return idx
        mask = (self._starts < hi) & (self._ends > lo) & (self._lengths > 0)
        return np.flatnonzero(mask)

    def bytes_in_many(self, ranks: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Per-rank byte counts inside ``[lo, hi)`` for the given ranks."""
        starts, ends = self.clipped_blocks(ranks, lo, hi)
        return np.clip(ends - starts, 0, None)

    def sum_bytes_in(self, lo: int, hi: int, ranks=None) -> int:
        """Total bytes inside ``[lo, hi)`` (optionally over given ranks)."""
        if ranks is None:
            window = self._window_slice(lo, hi)
            ranks = slice(*window) if window is not None else slice(None)
        return int(self.bytes_in_many(ranks, lo, hi).sum())

    def clipped_blocks(self, ranks, lo: int, hi: int):
        """The extents of `ranks` (any numpy index: array, list, slice)
        clipped to ``[lo, hi)`` as int64 ``(starts, ends)`` arrays; empty
        clips have ``ends <= starts``."""
        return (
            np.maximum(self._starts[ranks], lo),
            np.minimum(self._ends[ranks], hi),
        )
