"""Non-collective baselines: independent I/O and data sieving.

Independent I/O issues each rank's noncontiguous request directly to the
file system — one request per block, the worst case the per-request
overhead punishes.  Data sieving (ROMIO's other classic optimisation)
instead moves one large *covering* extent per rank and picks/places the
requested bytes in memory: reads fetch the hull and extract; writes
read-modify-write the hull.

These exist as comparison points: the golden matrix and the unit tests
run them, no experiment does; the paper's evaluation compares MCIO
against two-phase collective I/O.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.metrics import CollectiveStats, StatsCollector
from repro.core.request import AccessPattern, Extent
from repro.mpi.comm import RankContext, SimComm
from repro.pfs.filesystem import ParallelFileSystem
from repro.sim import Resource

__all__ = ["IndependentIO", "DataSievingIO"]


class _NonCollectiveBase:
    """Shared bookkeeping for the non-collective strategies."""

    name = "non-collective"

    def __init__(self, comm: SimComm, pfs: ParallelFileSystem):
        self.comm = comm
        self.pfs = pfs
        self._rank_seq: dict[int, int] = {}
        self._stats: dict[int, StatsCollector] = {}
        self.history: list[CollectiveStats] = []

    def _begin(self, ctx: RankContext, op: str) -> tuple[int, StatsCollector]:
        seq = self._rank_seq.get(ctx.rank, 0)
        self._rank_seq[ctx.rank] = seq + 1
        if seq not in self._stats:
            self._stats[seq] = StatsCollector(self.name, op, n_ranks=self.comm.size)
        stats = self._stats[seq]
        stats.mark_start(ctx.env.now)
        return seq, stats

    def _end(self, ctx: RankContext, seq: int) -> None:
        stats = self._stats.get(seq)
        if stats is None:
            return
        stats.mark_end(ctx.env.now)
        stats.extra["finishers"] = stats.extra.get("finishers", 0) + 1
        if stats.extra["finishers"] == self.comm.size:
            self.history.append(stats.finalize())
            del self._stats[seq]


class IndependentIO(_NonCollectiveBase):
    """Every rank issues its own noncontiguous requests, no coordination."""

    name = "independent"

    def write(self, ctx: RankContext, pattern: AccessPattern,
              payload: Optional[np.ndarray] = None):
        """Process generator: direct noncontiguous write."""
        seq, stats = self._begin(ctx, "write")
        yield from self.pfs.write_pattern(ctx.node, pattern, payload)
        stats.record_bytes(pattern.nbytes)
        self._end(ctx, seq)
        return payload

    def read(self, ctx: RankContext, pattern: AccessPattern,
             payload: Optional[np.ndarray] = None):
        """Process generator: direct noncontiguous read; returns the bytes."""
        seq, stats = self._begin(ctx, "read")
        data = yield from self.pfs.read_pattern(ctx.node, pattern)
        stats.record_bytes(pattern.nbytes)
        if payload is not None and data is not None:
            payload[:] = data
            data = payload
        self._end(ctx, seq)
        return data


class DataSievingIO(_NonCollectiveBase):
    """ROMIO data sieving: move the covering extent, sieve in memory.

    Worthwhile when a rank's requests are dense inside their hull;
    catastrophic when sparse (it moves the holes too).  Writes perform a
    read-modify-write of the hull, as ROMIO does.
    """

    name = "data-sieving"

    def __init__(self, comm: SimComm, pfs: ParallelFileSystem):
        super().__init__(comm, pfs)
        self._rmw_lock: Optional[Resource] = None

    def _lock(self, ctx: RankContext) -> Resource:
        """The shared sieving file lock (rebuilt if the env changed)."""
        if self._rmw_lock is None or self._rmw_lock.env is not ctx.env:
            self._rmw_lock = Resource(ctx.env, capacity=1, name="sieve.rmw")
        return self._rmw_lock

    def write(self, ctx: RankContext, pattern: AccessPattern,
              payload: Optional[np.ndarray] = None):
        """Process generator: read-modify-write of the covering extent.

        As in ROMIO, the read-modify-write holds a file lock: two ranks'
        hulls may overlap even when their requested bytes are disjoint,
        and an unserialized RMW would write back stale hole bytes over a
        concurrent writer's data.
        """
        seq, stats = self._begin(ctx, "write")
        if not pattern.empty:
            hull = Extent(pattern.start, pattern.end - pattern.start)
            req = self._lock(ctx).request()
            yield req
            try:
                base = yield from self.pfs.read_extent(ctx.node, hull)
                yield from ctx.node.memcopy(hull.length)
                data = None
                if base is not None and payload is not None:
                    data = np.array(base, dtype=np.uint8)
                    for off, ln, buf in pattern.iter_mapped_extents():
                        data[off - hull.offset : off - hull.offset + ln] = (
                            payload[buf : buf + ln]
                        )
                yield from self.pfs.write_extent(ctx.node, hull, data)
            finally:
                self._lock(ctx).release(req)
            stats.record_bytes(pattern.nbytes)
        self._end(ctx, seq)
        return payload

    def read(self, ctx: RankContext, pattern: AccessPattern,
             payload: Optional[np.ndarray] = None):
        """Process generator: read the covering extent, extract the bytes."""
        seq, stats = self._begin(ctx, "read")
        out = payload
        if not pattern.empty:
            hull = Extent(pattern.start, pattern.end - pattern.start)
            base = yield from self.pfs.read_extent(ctx.node, hull)
            yield from ctx.node.memcopy(pattern.nbytes)
            if base is not None:
                if out is None:
                    out = np.zeros(pattern.nbytes, dtype=np.uint8)
                for off, ln, buf in pattern.iter_mapped_extents():
                    out[buf : buf + ln] = base[off - hull.offset : off - hull.offset + ln]
            stats.record_bytes(pattern.nbytes)
        self._end(ctx, seq)
        return out
