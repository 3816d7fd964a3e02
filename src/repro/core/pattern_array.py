"""One collective's gathered file views, answering window queries.

Every planner and driver question about a collective's file views is a
window query: which ranks have bytes in ``[lo, hi)``, how many bytes
each or in total, and which blocks.  :class:`FileViews` is that query
API.  Both drivers and the whole planner ask it and nothing else, so
none of them branches on how the views are stored.  Two storages
implement it:

:class:`FileViewIndex`
    Built once per collective over the per-rank
    :class:`~repro.core.request.AccessPattern` list the planning
    allgather returns.  This is ROMIO's flattened view (Thakur, Gropp &
    Lusk, *Optimizing Noncontiguous Accesses in MPI-IO*): flatten once,
    then answer every request from the flattened table.  It stays at
    segment level (offset/block/stride/count rows), never one row per
    block.  A rank's bytes in a window are two buffer-position lookups,
    ``bytes_in(lo, hi) = position(hi) - position(lo)``, each a bisection
    in the rank's rows.

:class:`PatternArray`
    A *contiguous* per-rank workload as int64 arrays (start, length per
    rank), for 10^5–10^6-rank runs where one python object per rank
    costs more than the simulated collective.

Window unions go through the kernel both drivers share,
:func:`~repro.core.request.window_union`, which takes a view set's
clipped blocks as arrays (:meth:`FileViews.clipped_blocks`).

Indexing either storage yields a real :class:`AccessPattern`, so per-rank
code (payload packing, independent I/O) reads ``views[rank]`` unchanged.
``tests/core/test_file_view_index.py`` pins every query against the
per-pattern oracles and the two storages against each other;
``tests/core/test_pattern_array.py`` pins the planner's results.
"""

from __future__ import annotations

from abc import abstractmethod
from array import array
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.request import AccessPattern, expand_blocks

__all__ = [
    "FileViews", "FileViewIndex", "PatternArray", "file_views", "group_by_host",
]

_EMPTY = np.zeros(0, dtype=np.int64)


class FileViews(Sequence):
    """All ranks' file views of one collective, with window queries.

    ``views[rank]`` is the rank's :class:`AccessPattern`.  Windows are
    half-open ``[lo, hi)``; a window with ``hi <= lo`` holds no bytes.
    Rank arrays are int64 and ascending.
    """

    __slots__ = ()

    # per-rank summaries (int64 arrays; starts and ends are meaningful
    # only where sizes > 0)
    @property
    @abstractmethod
    def starts(self) -> np.ndarray:
        """First byte of each rank's view."""

    @property
    @abstractmethod
    def ends(self) -> np.ndarray:
        """One past the last byte of each rank's view."""

    @property
    @abstractmethod
    def sizes(self) -> np.ndarray:
        """Bytes each rank requests."""

    @property
    @abstractmethod
    def max_segment_count(self) -> int:
        """Max ``AccessPattern.segment_count`` over ranks."""

    @property
    def any_active(self) -> bool:
        """True when at least one rank has a non-empty view."""
        return bool((self.sizes > 0).any())

    def bounds(self) -> tuple[int, int]:
        """(min start, max end) over non-empty ranks."""
        active = self.sizes > 0
        if not active.any():
            raise ValueError("bounds() on an all-empty view set")
        return int(self.starts[active].min()), int(self.ends[active].max())

    # window queries
    @abstractmethod
    def senders_in(self, lo: int, hi: int) -> np.ndarray:
        """Ranks with at least one byte in ``[lo, hi)``."""

    def senders_in_each(self, windows) -> tuple[tuple[int, ...], ...]:
        """:meth:`senders_in` of every ``(lo, hi)`` in `windows` (pairwise
        disjoint, any order), as tuples of ints."""
        return tuple(
            tuple(self.senders_in(lo, hi).tolist()) for lo, hi in windows
        )

    @abstractmethod
    def bytes_in_many(self, ranks, lo: int, hi: int) -> np.ndarray:
        """Per-rank byte counts inside ``[lo, hi)`` for the given ranks."""

    def sender_bytes(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`senders_in` and each sender's :meth:`bytes_in_many`,
        from one query."""
        ranks = self.senders_in(lo, hi)
        return ranks, self.bytes_in_many(ranks, lo, hi)

    @abstractmethod
    def sum_bytes_in(self, lo: int, hi: int, ranks=None) -> int:
        """Total bytes inside ``[lo, hi)`` (optionally over given ranks)."""

    @abstractmethod
    def clipped_blocks(self, ranks, lo: int, hi: int):
        """The blocks of `ranks` clipped to ``[lo, hi)`` as int64
        ``(starts, ends)`` arrays, in no particular order; empty clips
        have ``ends <= starts``."""


def _column(values: np.ndarray) -> array:
    """An int64 table column: list-speed scalar reads and bisection at
    8 bytes an entry."""
    return array("q", np.ascontiguousarray(values, dtype=np.int64).tobytes())


def file_views(patterns: Sequence[AccessPattern]) -> FileViews:
    """`patterns` as a :class:`FileViews`: a view set is returned as is,
    a plain sequence of patterns is indexed (one pass over its segments)."""
    if isinstance(patterns, FileViews):
        return patterns
    return FileViewIndex(patterns)


def group_by_host(ranks: np.ndarray, placement: np.ndarray):
    """Group `ranks` (ascending) by host with a stable sort and a cut
    where the host changes: ``(order, heads, hosts)``.  Run ``k`` is
    ``ranks[order][heads[k]:heads[k + 1]]``, still ascending, all on
    host ``hosts[k]``; hosts ascend.  `ranks` must be non-empty."""
    # ndarray methods, not the np.* wrappers: a leaf of a small
    # collective has a handful of senders, so call overhead dominates
    on = placement[ranks]
    order = on.argsort(kind="stable")
    on = on[order]
    cut = np.empty(on.size, dtype=bool)
    cut[0] = True
    np.not_equal(on[1:], on[:-1], out=cut[1:])
    heads = cut.nonzero()[0]
    return order, heads, on[heads]


class FileViewIndex(FileViews):
    """Segment-level index over a sequence of per-rank access patterns.

    Two tables over the same segment rows (contiguous trains stored as
    one block):

    * **per rank** (CSR): rank ``r``'s rows, in file order, are
      ``ptr[r]:ptr[r + 1]`` of the offset/block/stride/count table, with
      cumulative bytes.  A rank's bytes in a window are its buffer
      positions at the two edges — two bisections — and its blocks in a
      window are the rows from one bisection on; these queries cost the
      ranks asked about.
    * **in file order**: every row sorted by start, with the running
      maximum of the ends (*reach*) and cumulative bytes.  The rows
      starting before ``hi`` are a prefix and those reaching past ``lo``
      a suffix, so the rows that may touch a window lie between two
      bisections — the ones crossing it, unless one long row lifts the
      reach over many short ones.  The total bytes in a window need
      only the rows crossing its two edges.

    Build one per collective and share it: it lives exactly as long as
    whoever holds it (the engine, for one collective; a persistent
    handle, beside its frozen plan).
    """

    __slots__ = (
        "_patterns", "_starts", "_ends", "_sizes", "_max_segments",
        "_ptr", "_start", "_end", "_block", "_stride", "_count", "_cum",
        "_rank", "_order", "_sorted_start", "_reach", "_sorted_cum",
        "__weakref__",
    )

    def __init__(self, patterns: Iterable[AccessPattern]):
        self._patterns = tuple(patterns)
        pats = self._patterns
        counts = np.array([len(p.segments) for p in pats], dtype=np.int64)
        self._max_segments = int(counts.max()) if counts.size else 0
        self._starts = np.array([p.start for p in pats], dtype=np.int64)
        self._ends = np.array([p.end for p in pats], dtype=np.int64)
        self._sizes = np.array([p.nbytes for p in pats], dtype=np.int64)

        geometry = np.array(
            [
                (s.offset, s.block, s.stride, s.count)
                for p in pats
                for s in p.segments
            ],
            dtype=np.int64,
        ).reshape(-1, 4)
        start, block, stride, count = geometry.T
        nbytes = block * count
        end = start + (count - 1) * stride + block
        # a contiguous run is one block, whatever its nominal stride
        run = (count == 1) | (stride == block)
        block = np.where(run, nbytes, block)
        stride = np.where(run, nbytes, stride)
        count = np.where(run, 1, count)

        self._ptr = _column(np.concatenate(([0], np.cumsum(counts))))
        self._start = _column(start)
        self._end = _column(end)
        self._block = _column(block)
        self._stride = _column(stride)
        self._count = _column(count)
        self._cum = _column(np.concatenate(([0], np.cumsum(nbytes))))
        self._rank = _column(np.repeat(np.arange(len(pats)), counts))

        order = np.argsort(start, kind="stable")
        self._order = _column(order)
        self._sorted_start = _column(start[order])
        self._reach = _column(np.maximum.accumulate(end[order]))
        self._sorted_cum = _column(np.concatenate(([0], np.cumsum(nbytes[order]))))

    # ------------------------------------------------------------------
    # sequence protocol
    def __len__(self) -> int:
        return len(self._patterns)

    def __getitem__(self, rank):
        return self._patterns[rank]

    def __iter__(self) -> Iterator[AccessPattern]:
        return iter(self._patterns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FileViewIndex {len(self)} ranks, {len(self._start)} segments>"

    # ------------------------------------------------------------------
    # per-rank summaries
    @property
    def starts(self) -> np.ndarray:
        return self._starts

    @property
    def ends(self) -> np.ndarray:
        return self._ends

    @property
    def sizes(self) -> np.ndarray:
        return self._sizes

    @property
    def max_segment_count(self) -> int:
        return self._max_segments

    # ------------------------------------------------------------------
    # row arithmetic
    def _position(self, k: int, x: int) -> int:
        """Bytes of row `k` strictly before file offset `x`."""
        start = self._start[k]
        if x <= start:
            return 0
        if x >= self._end[k]:
            return self._cum[k + 1] - self._cum[k]
        stride = self._stride[k]
        i = (x - start) // stride
        return i * self._block[k] + min(x - start - i * stride, self._block[k])

    def _rank_position(self, rank: int, x: int) -> int:
        """`rank`'s buffer position at `x`, offset by the bytes of every
        lower rank (differences of two positions are byte counts)."""
        first = self._ptr[rank]
        k = bisect_right(self._start, x, first, self._ptr[rank + 1]) - 1
        if k < first:
            return self._cum[first]
        return self._cum[k] + self._position(k, x)

    # ------------------------------------------------------------------
    # window queries
    def senders_in(self, lo: int, hi: int) -> np.ndarray:
        found: set[int] = set()
        if hi > lo:
            order, end, rank = self._order, self._end, self._rank
            for j in range(
                bisect_right(self._reach, lo), bisect_left(self._sorted_start, hi)
            ):
                k = order[j]
                if (
                    end[k] > lo
                    and rank[k] not in found
                    and self._position(k, hi) > self._position(k, lo)
                ):
                    found.add(rank[k])
        return np.array(sorted(found), dtype=np.int64)

    def sender_bytes(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        # the rows senders_in visits, each adding its bytes: a rank's
        # segments never overlap, so their sum is the rank's byte count
        totals: dict[int, int] = {}
        if hi > lo:
            order, end, rank = self._order, self._end, self._rank
            for j in range(
                bisect_right(self._reach, lo), bisect_left(self._sorted_start, hi)
            ):
                k = order[j]
                if end[k] > lo:
                    nbytes = self._position(k, hi) - self._position(k, lo)
                    if nbytes:
                        r = rank[k]
                        totals[r] = totals.get(r, 0) + nbytes
        ranks = sorted(totals)
        return (
            np.array(ranks, dtype=np.int64),
            np.array([totals[r] for r in ranks], dtype=np.int64),
        )

    def senders_in_each(self, windows) -> tuple[tuple[int, ...], ...]:
        # one pass over the rows, rank by rank: each row visits the
        # windows it has bytes in, jumping over the ones that fall in the
        # gaps of its block train, so a row costs its hits — not every
        # window under its span, and not every block
        spans = sorted(
            (lo, hi, i) for i, (lo, hi) in enumerate(windows) if hi > lo
        )
        los = [lo for lo, _, _ in spans]
        his = [hi for _, hi, _ in spans]
        senders: list[list[int]] = [[] for _ in windows]
        ptr, start, end = self._ptr, self._start, self._end
        block, stride, count = self._block, self._stride, self._count
        for r in range(len(self._patterns)):
            hit: set[int] = set()
            for k in range(ptr[r], ptr[r + 1]):
                s, b, st, c = start[k], block[k], stride[k], count[k]
                d = bisect_right(his, s)
                stop = bisect_left(los, end[k])
                while d < stop:
                    # first block ending after the window's start
                    i = max(0, (los[d] - s - b + st) // st)
                    if i >= c:
                        break
                    first = s + i * st
                    if first < his[d]:
                        hit.add(d)
                        d += 1
                    else:
                        d = bisect_right(his, first)
            for d in hit:
                senders[spans[d][2]].append(r)
        return tuple(tuple(ranks) for ranks in senders)

    def bytes_in_many(self, ranks, lo: int, hi: int) -> np.ndarray:
        if hi <= lo:
            return np.zeros(len(ranks), dtype=np.int64)
        position = self._rank_position
        return np.array(
            [position(r, hi) - position(r, lo) for r in ranks], dtype=np.int64
        )

    def sum_bytes_in(self, lo: int, hi: int, ranks=None) -> int:
        if hi <= lo:
            return 0
        if ranks is not None:
            position = self._rank_position
            return sum(position(r, hi) - position(r, lo) for r in ranks)
        # every row starting inside the window counts whole; then add the
        # rows that start before it and reach in, and take back the tails
        # of the rows that start inside it and run past its end
        order, end, cum = self._order, self._end, self._cum
        reach, sorted_start = self._reach, self._sorted_start
        first = bisect_left(sorted_start, lo)
        past = bisect_left(sorted_start, hi)
        total = self._sorted_cum[past] - self._sorted_cum[first]
        for j in range(bisect_right(reach, lo), first):
            k = order[j]
            if end[k] > lo:
                total += self._position(k, hi) - self._position(k, lo)
        for j in range(max(first, bisect_right(reach, hi)), past):
            k = order[j]
            if end[k] > hi:
                total -= cum[k + 1] - cum[k] - self._position(k, hi)
        return total

    def clipped_blocks(self, ranks, lo: int, hi: int):
        geometry = []
        if hi > lo:
            ptr, start, end = self._ptr, self._start, self._end
            block, stride, count = self._block, self._stride, self._count
            for r in ranks:
                last_row = ptr[r + 1]
                k = max(ptr[r], bisect_right(start, lo, ptr[r], last_row) - 1)
                while k < last_row and start[k] < hi:
                    if end[k] > lo:
                        s, b, st = start[k], block[k], stride[k]
                        # blocks ending after lo through blocks starting
                        # before hi
                        first = max(0, (lo - s - b + st) // st)
                        last = min(count[k] - 1, (hi - 1 - s) // st)
                        if last >= first:
                            geometry.append(
                                (s + first * st, st, last - first + 1, b)
                            )
                    k += 1
        if not geometry:
            return _EMPTY, _EMPTY
        starts, ends = expand_blocks(np.array(geometry, dtype=np.int64))
        return np.maximum(starts, lo), np.minimum(ends, hi)


class PatternArray(FileViews):
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
        i1 = int(self._starts.searchsorted(hi, side="left"))
        i0 = int(self._ends.searchsorted(lo, side="right"))
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
    def sizes(self) -> np.ndarray:
        return self._lengths

    @property
    def ends(self) -> np.ndarray:
        return self._ends

    @property
    def total_bytes(self) -> int:
        return int(self._lengths.sum())

    @property
    def max_segment_count(self) -> int:
        """1 when any rank is active, else 0."""
        return 1 if self.any_active else 0

    # ------------------------------------------------------------------
    # window queries
    def senders_in(self, lo: int, hi: int) -> np.ndarray:
        if hi <= lo:
            return _EMPTY
        window = self._window_slice(lo, hi)
        if window is not None:
            i0, i1 = window
            idx = np.arange(i0, i1, dtype=np.int64)
            if idx.size:
                idx = idx[self._lengths[i0:i1] > 0]
            return idx
        mask = (self._starts < hi) & (self._ends > lo) & (self._lengths > 0)
        return np.flatnonzero(mask)

    def bytes_in_many(self, ranks, lo: int, hi: int) -> np.ndarray:
        starts, ends = self.clipped_blocks(ranks, lo, hi)
        return np.maximum(ends - starts, 0)

    def sum_bytes_in(self, lo: int, hi: int, ranks=None) -> int:
        if ranks is None:
            window = self._window_slice(lo, hi)
            ranks = slice(*window) if window is not None else slice(None)
        return int(self.bytes_in_many(ranks, lo, hi).sum())

    def clipped_blocks(self, ranks, lo: int, hi: int):
        """One clipped extent per rank of `ranks` (any numpy index:
        array, list, slice), in rank order."""
        return (
            np.maximum(self._starts[ranks], lo),
            np.minimum(self._ends[ranks], hi),
        )
