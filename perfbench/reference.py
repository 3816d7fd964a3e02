"""A fixed reference kernel that gauges how fast the host runs right now.

Co-tenants on a shared host slow this process by up to 2x for minutes
at a time, which would swamp any regression bound.  The worker times
this kernel after every cell, and the driver reports each time scaled
to the baseline host's speed::

    reported = measured * NOMINAL_S / (reference time measured beside it)

The kernel imitates the simulator's hot loops — generator processes on
an event heap, small frozen dataclasses, interval sorting and merging,
dict tallies — so host contention slows it about as much as it slows
the simulator.  It lives in the benchmark, so no change to the program
can change it; editing it, or NOMINAL_S, rescales every reported time
and needs a new baseline.
"""

from __future__ import annotations

import gc
import heapq
import time
from dataclasses import dataclass

#: seconds one kernel run takes on the baseline host (2-vCPU Intel Xeon
#: VM, Python 3.11) when nothing else loads it
NOMINAL_S = 0.05

_PROCESSES = 96
_ROUNDS = 50


@dataclass(frozen=True)
class _Extent:
    offset: int
    length: int

    @property
    def end(self) -> int:
        return self.offset + self.length


def _process(pid: int, tally: dict):
    for r in range(_ROUNDS):
        extents = [
            _Extent(pid * 65536 + k * 512 + (r % 7) * 64, 256) for k in range(12)
        ]
        extents.sort(key=lambda e: e.offset)
        merged: list = []
        for e in extents:
            if merged and e.offset <= merged[-1].end:
                last = merged.pop()
                merged.append(_Extent(last.offset, max(last.end, e.end) - last.offset))
            else:
                merged.append(e)
        key = (pid, r & 15)
        tally[key] = tally.get(key, 0) + len(merged)
        yield 1.0 + (pid % 5) * 0.25


def _run() -> int:
    tally: dict = {}
    heap = [(0.0, pid, _process(pid, tally)) for pid in range(_PROCESSES)]
    heapq.heapify(heap)
    seq = _PROCESSES
    while heap:
        now, _, proc = heapq.heappop(heap)
        try:
            delay = next(proc)
        except StopIteration:
            continue
        heapq.heappush(heap, (now + delay, seq, proc))
        seq += 1
    return len(tally)


def timed() -> float:
    """Seconds one kernel run takes now.

    The cyclic garbage collector is paused for the run: a collection
    would walk the caller's whole heap, making the kernel's time depend
    on how much the simulator keeps alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _run()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
