"""Extent algebra for noncontiguous I/O requests.

Collective I/O reasons about byte ranges in a shared file.  Scientific
access patterns (block-distributed arrays, interleaved IOR segments) are
huge but *regular*, so this module represents them as strided runs instead
of flat offset/length lists:

:class:`Extent`
    A single contiguous ``[offset, offset+length)`` byte range.

:class:`StridedSegment`
    ``count`` blocks of ``block`` bytes, ``stride`` apart — the ADIO
    "flattened datatype" building block.  Clipping and byte-counting are
    O(1) arithmetic, never per-block loops.

:class:`AccessPattern`
    An ordered sequence of segments forming one rank's file view, with
    cumulative-size prefix sums so any file position maps to its position
    in the rank's memory buffer in O(log n).

The per-window union aggregators write is one exact kernel over int64
block arrays (:func:`block_arrays`, :func:`expand_blocks`,
:func:`union_blocks`); :func:`window_union` feeds it the clipped blocks
of a collective's view set (:mod:`repro.core.pattern_array`), and
:func:`coalesce_extents` is its per-object reference.

All coordinates are byte offsets; all intervals are half-open.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

__all__ = ["Extent", "StridedSegment", "AccessPattern", "block_arrays",
           "coalesce_extents", "expand_blocks", "union_blocks", "window_union"]


@dataclass(frozen=True, order=True)
class Extent:
    """A contiguous byte range ``[offset, offset + length)``."""

    offset: int
    length: int

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise ValueError(f"negative offset {self.offset}")
        if self.length < 0:
            raise ValueError(f"negative length {self.length}")

    @property
    def end(self) -> int:
        """One past the last byte."""
        return self.offset + self.length

    @property
    def empty(self) -> bool:
        """True for zero-length extents."""
        return self.length == 0

    def clip(self, lo: int, hi: int) -> Optional["Extent"]:
        """Portion inside ``[lo, hi)``, or None."""
        start = max(self.offset, lo)
        end = min(self.end, hi)
        if end <= start:
            return None
        return Extent(start, end - start)

    def contains(self, offset: int) -> bool:
        """True if `offset` lies inside the extent."""
        return self.offset <= offset < self.end


def coalesce_extents(extents: Iterable[Extent]) -> list[Extent]:
    """Merge touching/overlapping extents; returns a sorted, disjoint list."""
    items = sorted((e for e in extents if e.length > 0), key=lambda e: e.offset)
    merged: list[Extent] = []
    for e in items:
        if merged and e.offset <= merged[-1].end:
            last = merged[-1]
            merged[-1] = Extent(last.offset, max(last.end, e.end) - last.offset)
        else:
            merged.append(e)
    return merged


@dataclass(frozen=True)
class StridedSegment:
    """``count`` blocks of ``block`` bytes, spaced ``stride`` bytes apart.

    ``stride >= block`` (blocks within one segment never overlap).  A
    contiguous run is the special case ``count == 1`` (stride ignored) or
    ``stride == block``.
    """

    offset: int
    block: int
    stride: int
    count: int

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise ValueError(f"negative offset {self.offset}")
        if self.block <= 0:
            raise ValueError(f"block must be positive, got {self.block}")
        if self.count <= 0:
            raise ValueError(f"count must be positive, got {self.count}")
        if self.count > 1 and self.stride < self.block:
            raise ValueError(
                f"stride {self.stride} < block {self.block} would self-overlap"
            )

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Total bytes covered (sum of all blocks)."""
        return self.block * self.count

    @property
    def start(self) -> int:
        """First byte covered."""
        return self.offset

    @property
    def end(self) -> int:
        """One past the last byte covered."""
        return self.offset + (self.count - 1) * self.stride + self.block

    @property
    def contiguous(self) -> bool:
        """True if the segment is one unbroken run."""
        return self.count == 1 or self.stride == self.block

    # ------------------------------------------------------------------
    def iter_extents(self) -> Iterator[Extent]:
        """Yield every block as an extent (use only for small counts)."""
        for i in range(self.count):
            yield Extent(self.offset + i * self.stride, self.block)

    def bytes_in(self, lo: int, hi: int) -> int:
        """Bytes of this segment inside ``[lo, hi)`` — O(1) arithmetic."""
        if hi <= lo or hi <= self.start or lo >= self.end:
            return 0
        if self.contiguous:
            return min(hi, self.end) - max(lo, self.start)
        # indices of blocks whose [bstart, bend) intersects [lo, hi)
        i_lo = max(0, (lo - self.offset - self.block + self.stride) // self.stride)
        i_hi = min(self.count - 1, (hi - 1 - self.offset) // self.stride)
        if i_hi < i_lo:
            return 0
        total = (i_hi - i_lo + 1) * self.block
        # trim the partial head block
        head_start = self.offset + i_lo * self.stride
        total -= max(0, lo - head_start)
        # trim the partial tail block
        tail_end = self.offset + i_hi * self.stride + self.block
        total -= max(0, tail_end - hi)
        return max(0, total)

    def clip(self, lo: int, hi: int) -> list["StridedSegment"]:
        """Portions of the segment inside ``[lo, hi)``.

        Returns at most three segments: a partial head block, the run of
        fully contained blocks, and a partial tail block.
        """
        if hi <= lo or hi <= self.start or lo >= self.end:
            return []
        if self.contiguous:
            s = max(lo, self.start)
            e = min(hi, self.end)
            return [StridedSegment(s, e - s, e - s, 1)] if e > s else []

        i_lo = max(0, (lo - self.offset - self.block + self.stride) // self.stride)
        i_hi = min(self.count - 1, (hi - 1 - self.offset) // self.stride)
        if i_hi < i_lo:
            return []

        pieces: list[StridedSegment] = []
        first_full = i_lo
        last_full = i_hi
        # head block partially cut?
        head_start = self.offset + i_lo * self.stride
        head_end = head_start + self.block
        if lo > head_start or hi < head_end:
            s = max(lo, head_start)
            e = min(hi, head_end)
            if e > s:
                pieces.append(StridedSegment(s, e - s, e - s, 1))
            first_full = i_lo + 1
        # tail block partially cut (and distinct from head)?
        tail_piece: Optional[StridedSegment] = None
        if i_hi > i_lo:
            tail_start = self.offset + i_hi * self.stride
            tail_end = tail_start + self.block
            if hi < tail_end:
                s = tail_start
                e = hi
                if e > s:
                    tail_piece = StridedSegment(s, e - s, e - s, 1)
                last_full = i_hi - 1
        if last_full >= first_full:
            pieces.append(
                StridedSegment(
                    self.offset + first_full * self.stride,
                    self.block,
                    self.stride,
                    last_full - first_full + 1,
                )
            )
        if tail_piece is not None:
            pieces.append(tail_piece)
        return pieces

    def position_of(self, file_offset: int) -> int:
        """Bytes of this segment strictly before `file_offset`.

        `file_offset` need not lie inside a block; gaps map to the start of
        the next block.
        """
        if file_offset <= self.start:
            return 0
        if file_offset >= self.end:
            return self.nbytes
        if self.contiguous:
            # a single block's stride is arbitrary: never divide by it
            return file_offset - self.offset
        i = (file_offset - self.offset) // self.stride
        within = file_offset - (self.offset + i * self.stride)
        return i * self.block + min(within, self.block)


def _try_merge(prev: StridedSegment, seg: StridedSegment) -> Optional[StridedSegment]:
    """Merge two consecutive segments into one, or return None.

    Two merges are recognised: back-to-back contiguous runs, and
    equal-geometry strided runs where `seg` continues `prev`'s block train
    exactly one stride after its last block.
    """
    if prev.contiguous and seg.contiguous and prev.end == seg.start:
        total = prev.nbytes + seg.nbytes
        return StridedSegment(prev.offset, total, total, 1)
    if prev.block != seg.block:
        return None
    # A count==1 segment has no meaningful stride; borrow the partner's.
    stride_p = prev.stride if prev.count > 1 else None
    stride_s = seg.stride if seg.count > 1 else None
    stride = stride_p if stride_p is not None else stride_s
    if stride is None or (stride_s is not None and stride_s != stride):
        return None
    if stride < prev.block:
        return None
    if seg.start != prev.offset + prev.count * stride:
        return None
    return StridedSegment(prev.offset, prev.block, stride, prev.count + seg.count)


class AccessPattern:
    """One rank's file view: ordered, non-self-overlapping strided segments.

    Segment order defines buffer order: the rank's memory buffer is the
    concatenation of all blocks in sequence, which is how MPI file views
    map datatypes to buffers.

    Parameters
    ----------
    segments:
        Segments in strictly increasing file order (``end <= next.start``).
        Overlapping or out-of-order segments are rejected — a single rank's
        request never self-overlaps.
    """

    __slots__ = ("segments", "_prefix", "_starts")

    def __init__(self, segments: Sequence[StridedSegment]):
        segs = tuple(segments)
        for a, b in zip(segs, segs[1:]):
            if b.start < a.end:
                raise ValueError(
                    f"segments out of order or overlapping: {a} then {b}"
                )
        self.segments = segs
        prefix = [0]
        for s in segs:
            prefix.append(prefix[-1] + s.nbytes)
        #: prefix[i] = bytes in segments[:i]
        self._prefix = prefix
        self._starts = [s.start for s in segs]

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def contiguous(cls, offset: int, length: int) -> "AccessPattern":
        """A single contiguous request (empty pattern if length == 0)."""
        if length == 0:
            return cls(())
        return cls((StridedSegment(offset, length, length, 1),))

    @classmethod
    def from_extents(cls, extents: Iterable[Extent]) -> "AccessPattern":
        """Build from plain extents (must be sorted and disjoint)."""
        return cls(
            tuple(
                StridedSegment(e.offset, e.length, e.length, 1)
                for e in extents
                if e.length > 0
            )
        )

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Total bytes requested."""
        return self._prefix[-1]

    @property
    def empty(self) -> bool:
        """True if the pattern requests nothing."""
        return self.nbytes == 0

    @property
    def start(self) -> int:
        """First byte requested (0 for empty patterns)."""
        return self.segments[0].start if self.segments else 0

    @property
    def end(self) -> int:
        """One past the last byte requested (0 for empty patterns)."""
        return self.segments[-1].end if self.segments else 0

    @property
    def segment_count(self) -> int:
        """Number of strided segments."""
        return len(self.segments)

    @property
    def block_count(self) -> int:
        """Number of contiguous blocks (i.e. discrete I/O pieces)."""
        return sum(s.count for s in self.segments)

    # ------------------------------------------------------------------
    def bytes_in(self, lo: int, hi: int) -> int:
        """Bytes requested inside ``[lo, hi)``."""
        if hi <= lo or self.empty:
            return 0
        # segments are ordered; only those intersecting [lo, hi) contribute
        i = bisect.bisect_left(self._starts, lo)
        if i > 0 and self.segments[i - 1].end > lo:
            i -= 1
        total = 0
        while i < len(self.segments) and self.segments[i].start < hi:
            total += self.segments[i].bytes_in(lo, hi)
            i += 1
        return total

    def clip(self, lo: int, hi: int) -> "AccessPattern":
        """Sub-pattern inside ``[lo, hi)``."""
        if hi <= lo or self.empty:
            return AccessPattern(())
        pieces: list[StridedSegment] = []
        i = bisect.bisect_left(self._starts, lo)
        if i > 0 and self.segments[i - 1].end > lo:
            i -= 1
        while i < len(self.segments) and self.segments[i].start < hi:
            pieces.extend(self.segments[i].clip(lo, hi))
            i += 1
        return AccessPattern(tuple(pieces))

    def buffer_position(self, file_offset: int) -> int:
        """Bytes of this pattern strictly before `file_offset`.

        Maps a file position to the corresponding position in the rank's
        packed memory buffer.
        """
        if self.empty:
            return 0
        i = bisect.bisect_right(self._starts, file_offset) - 1
        if i < 0:
            return 0
        return self._prefix[i] + self.segments[i].position_of(file_offset)

    def iter_mapped_extents(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(file_offset, length, buffer_offset)`` per block, in order.

        Expands blocks one by one — intended for correctness-mode runs with
        real payloads, not for metadata-only benchmark patterns.
        """
        buf = 0
        for seg in self.segments:
            for i in range(seg.count):
                yield (seg.offset + i * seg.stride, seg.block, buf)
                buf += seg.block

    def coalesce(self) -> "AccessPattern":
        """Merge adjacent compatible segments (same geometry, or contiguous)."""
        if not self.segments:
            return self
        out: list[StridedSegment] = []
        for seg in self.segments:
            merged = None
            if out:
                merged = _try_merge(out[-1], seg)
            if merged is not None:
                out[-1] = merged
            else:
                out.append(seg)
        return AccessPattern(tuple(out))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AccessPattern):
            return NotImplemented
        return self.segments == other.segments

    def __hash__(self) -> int:
        return hash(self.segments)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AccessPattern {self.segment_count} segs, {self.block_count} blocks, "
            f"{self.nbytes} B in [{self.start}, {self.end})>"
        )


# ---------------------------------------------------------------------------
# the block-array extent kernel
def block_arrays(
    segments: Iterable[StridedSegment],
) -> tuple[np.ndarray, np.ndarray]:
    """Every block of `segments` as int64 ``(starts, ends)`` arrays, in
    one ``np.repeat``/``arange`` pass.  A ``stride == block`` run of
    ``count`` blocks stays ``count`` entries (``count`` PFS requests)."""
    return expand_blocks(
        np.array(
            [(s.offset, s.stride, s.count, s.block) for s in segments],
            dtype=np.int64,
        )
    )


def expand_blocks(geometry: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Blocks of block trains given as int64 rows ``(first block start,
    stride, count, block)``, as ``(starts, ends)`` arrays in row order."""
    offset, stride, count, block = geometry.reshape(-1, 4).T
    first = np.cumsum(count) - count
    index = np.arange(int(count.sum()), dtype=np.int64) - np.repeat(first, count)
    starts = np.repeat(offset, count) + index * np.repeat(stride, count)
    return starts, starts + np.repeat(block, count)


def union_blocks(starts: np.ndarray, ends: np.ndarray) -> list[Extent]:
    """Exact union of the int64 blocks ``[starts[i], ends[i])`` at any
    count: merges touching/overlapping blocks and drops empty ones, like
    :func:`coalesce_extents`."""
    keep = ends > starts
    starts, ends = starts[keep], ends[keep]
    if starts.size == 0:
        return []
    order = np.argsort(starts, kind="stable")
    starts = starts[order]
    reach = np.maximum.accumulate(ends[order])
    # a new run begins where a block starts past everything seen so far
    breaks = np.flatnonzero(starts[1:] > reach[:-1]) + 1
    run_starts = starts[np.concatenate(([0], breaks))].tolist()
    run_ends = reach[np.concatenate((breaks - 1, [starts.size - 1]))].tolist()
    return [Extent(s, e - s) for s, e in zip(run_starts, run_ends)]


def window_union(views, senders: Sequence[int], window: Extent) -> list[Extent]:
    """Exact union of the senders' requested blocks inside `window`: the
    I/O pieces an aggregator writes or reads for one buffer window.

    `views` is a :class:`~repro.core.pattern_array.FileViews` (both
    drivers pass the collective's view set, which hands over its clipped
    blocks as arrays); a plain sequence of patterns is indexed first.
    """
    from repro.core.pattern_array import file_views

    return union_blocks(
        *file_views(views).clipped_blocks(senders, window.offset, window.end)
    )
