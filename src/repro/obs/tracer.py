"""Structured tracing for collective I/O runs.

A :class:`Tracer` records *trace events* — spans with a start time and a
duration, and zero-duration instants — into a bounded in-memory ring
buffer.  Every event is stamped in **simulated time** (the clock of the
:class:`~repro.sim.engine.Environment` the tracer is installed on); the
only wall-clock quantities in a trace are annotations the simulation
kernel and the planner attach to their own host-side work (``wall_s`` /
``wall_us`` entries inside ``args``), which never participate in event
ordering, so an enabled tracer cannot perturb simulated timestamps.

Design constraints, in order:

1. **Zero cost when disabled.**  Every instrumentation site in the hot
   layers guards on :attr:`Tracer.enabled` (a plain attribute read) and
   the default tracer on every environment is the shared
   :data:`NULL_TRACER`, whose flag is permanently false.  No event
   objects, no dict building, no clock reads happen on a disabled path.
2. **No simulation side effects.**  Recording an event touches only the
   tracer's own buffer; it schedules nothing, sleeps nothing, and reads
   the simulated clock without advancing it.  Tracing enabled vs
   disabled is therefore bit-identical in simulated time (asserted
   against the golden traces in ``tests/obs/test_trace_noperturb.py``).
3. **Bounded memory.**  The ring buffer holds at most `capacity` events
   and drops the *oldest* event on overflow (:attr:`Tracer.dropped`
   counts how many were lost), so tracing a week-long simulated run
   costs a fixed number of megabytes.

Track model
-----------
Events land on ``(pid, tid)`` tracks mirroring the Chrome trace-event
model: one *process* per simulated compute node (``pid`` = node id) with
one *thread* per rank (``tid`` = rank), plus three synthetic processes —
:data:`PID_PFS` (one thread per I/O server), :data:`PID_KERNEL` (the
event loop itself), and :data:`PID_PLANNER` (host-side MCIO planning,
which costs no simulated time).  Node-scoped events that belong to no
rank (fault apply/revert, memory shocks) use :data:`TID_NODE`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

__all__ = [
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "PID_PFS",
    "PID_KERNEL",
    "PID_PLANNER",
    "PID_PIPELINE",
    "PID_JOB_BASE",
    "TID_NODE",
]

#: Synthetic "process" ids for tracks that are not compute nodes.
PID_PFS = -1
PID_KERNEL = -2
PID_PLANNER = -3
#: Overlapped-window spans of the pipelined executor.  Each aggregator
#: rank owns *two* threads on this process — ``tid = rank * 2 + slot``
#: with ``slot = window % 2`` — so the two in-flight windows of a
#: double-buffered collective render on separate tracks and their
#: overlap is directly visible.
PID_PIPELINE = -4
#: Per-tenant job tracks in a multi-tenant run: job *j* owns the
#: synthetic process ``pid = PID_JOB_BASE - j`` (descending, so job pids
#: never collide with the fixed synthetic tracks above).  The tenancy
#: host lays each job's lifecycle — arrival instant, admission wait,
#: run span — on its own track, which is what makes cross-job
#: interference directly visible next to the shared node/PFS tracks.
PID_JOB_BASE = -100

#: Thread id for node-scoped events (faults, shocks) on a node's track.
TID_NODE = -1


class TraceEvent:
    """One recorded occurrence: a completed span (``ph="X"``), an
    instant (``ph="i"``), or a begin/end edge (``ph="B"``/``"E"``).

    `ts` and `dur` are simulated seconds; the exporter converts to the
    microseconds Chrome/Perfetto expect.  `seq` is a tracer-local
    monotone sequence number used to stabilise sorts among events with
    equal timestamps.
    """

    __slots__ = ("ph", "cat", "name", "pid", "tid", "ts", "dur", "args", "seq")

    def __init__(self, ph, cat, name, pid, tid, ts, dur, args, seq):
        self.ph = ph
        self.cat = cat
        self.name = name
        self.pid = pid
        self.tid = tid
        self.ts = ts
        self.dur = dur
        self.args = args
        self.seq = seq

    def to_dict(self) -> dict:
        """Plain-dict form (simulated seconds, not yet Chrome units)."""
        d = {
            "ph": self.ph,
            "cat": self.cat,
            "name": self.name,
            "pid": self.pid,
            "tid": self.tid,
            "ts": self.ts,
            "seq": self.seq,
        }
        if self.ph == "X":
            d["dur"] = self.dur
        if self.args:
            d["args"] = self.args
        return d

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TraceEvent {self.ph} {self.cat}:{self.name} "
            f"pid={self.pid} tid={self.tid} ts={self.ts}>"
        )


class Tracer:
    """Span/instant recorder with a drop-oldest ring buffer.

    Parameters
    ----------
    capacity:
        Maximum events retained; the oldest event is overwritten when a
        new one arrives with the buffer full.
    enabled:
        Start enabled (the common case for an explicitly constructed
        tracer; the shared :data:`NULL_TRACER` is the disabled one).

    A tracer must be *installed* on an environment before events carry
    meaningful timestamps::

        tracer = Tracer()
        env = Environment()
        tracer.install(env)

    One tracer may be installed on several environments in sequence
    (e.g. a sweep building a fresh platform per point); pass ``offset``
    to :meth:`install` to concatenate their timelines.
    """

    #: Class-level default so instrumentation can guard before install.
    enabled: bool = True

    def __init__(self, capacity: int = 65536, enabled: bool = True):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.enabled = bool(enabled)
        #: Events lost to ring overflow.
        self.dropped = 0
        self._ring: list[Optional[TraceEvent]] = [None] * self.capacity
        self._head = 0  # next write position
        self._count = 0
        self._seq = 0
        self._offset = 0.0
        self._clock: Callable[[], float] = lambda: 0.0

    # ------------------------------------------------------------------
    # installation / clock
    # ------------------------------------------------------------------
    def install(self, env: Any, offset: float = 0.0) -> "Tracer":
        """Attach to `env`: become its tracer and adopt its sim clock.

        `offset` is added to every timestamp recorded while attached —
        use it to lay several environments' runs end to end on one
        timeline (``offset = previous tracer.max_ts() + gap``).
        Returns self for chaining.
        """
        self._offset = float(offset)
        self._clock = lambda: env.now
        env.tracer = self
        return self

    def now(self) -> float:
        """Current trace timestamp: simulated now plus the install offset."""
        return self._clock() + self._offset

    def max_ts(self) -> float:
        """Largest end timestamp recorded so far (0.0 if empty)."""
        out = 0.0
        for ev in self.events():
            end = ev.ts + (ev.dur or 0.0)
            if end > out:
                out = end
        return out

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _push(self, ev: TraceEvent) -> None:
        ring = self._ring
        if self._count == self.capacity:
            # drop-oldest: overwrite the tail (head == tail when full)
            self.dropped += 1
        else:
            self._count += 1
        ring[self._head] = ev
        self._head = (self._head + 1) % self.capacity

    def _record(self, ph, cat, name, pid, tid, ts, dur, args) -> None:
        self._seq += 1
        self._push(TraceEvent(ph, cat, name, pid, tid, ts, dur, args, self._seq))

    def begin(self, cat: str, name: str, pid: int, tid: int, **args: Any) -> None:
        """Open a nested span (``ph="B"``) on track ``(pid, tid)``.

        Begin/end pairs must be strictly nested per track — use them
        only where the instrumented control flow is sequential on that
        track (a rank's main generator, the planner).  Concurrent
        sub-processes sharing a track must use :meth:`complete` instead.
        """
        if not self.enabled:
            return
        self._record("B", cat, name, pid, tid, self.now(), None, args or None)

    def end(self, pid: int, tid: int, **args: Any) -> None:
        """Close the innermost open span on track ``(pid, tid)``."""
        if not self.enabled:
            return
        self._record("E", "", "", pid, tid, self.now(), None, args or None)

    def complete(
        self,
        cat: str,
        name: str,
        pid: int,
        tid: int,
        ts: float,
        dur: float,
        **args: Any,
    ) -> None:
        """Record a finished span (``ph="X"``) with explicit start/duration.

        The usual pattern is ``t0 = tracer.now()`` before the work and
        ``tracer.complete(..., t0, tracer.now() - t0)`` after; complete
        events may overlap freely on a track, so they are the right
        shape for concurrent sub-processes.
        """
        if not self.enabled:
            return
        self._record("X", cat, name, pid, tid, ts, dur, args or None)

    def instant(self, cat: str, name: str, pid: int, tid: int, **args: Any) -> None:
        """Record a zero-duration marker (``ph="i"``) at the current time."""
        if not self.enabled:
            return
        self._record("i", cat, name, pid, tid, self.now(), None, args or None)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    def events(self) -> Iterator[TraceEvent]:
        """Iterate retained events, oldest first."""
        if self._count == 0:
            return
        start = (self._head - self._count) % self.capacity
        for i in range(self._count):
            ev = self._ring[(start + i) % self.capacity]
            if ev is not None:
                yield ev

    def clear(self) -> None:
        """Drop all retained events (the drop counter is kept)."""
        self._ring = [None] * self.capacity
        self._head = 0
        self._count = 0


class NullTracer(Tracer):
    """The permanently disabled tracer every environment starts with.

    All recording methods are inherited no-ops (they check
    :attr:`enabled` first); :meth:`install` refuses, so accidentally
    installing the shared singleton on an environment fails loudly
    instead of silently sharing state across simulations.
    """

    def __init__(self):
        super().__init__(capacity=1, enabled=False)

    def install(self, env: Any, offset: float = 0.0) -> "Tracer":
        raise RuntimeError(
            "NULL_TRACER is shared; construct a Tracer() to enable tracing"
        )


#: Shared disabled tracer; `Environment.tracer` defaults to this.
NULL_TRACER = NullTracer()
