"""Deterministic discrete-event simulation kernel.

This module implements the minimal event-driven core that the rest of the
package runs on: an :class:`Environment` holding a time-ordered event queue,
:class:`Process` coroutines written as Python generators, and the primitive
waitable objects (:class:`Timeout`, :class:`Event`, :class:`AllOf`,
:class:`AnyOf`).

The design follows the well-known SimPy process-interaction style, but is
implemented from scratch so the whole simulator is self-contained and
completely deterministic:

* the event queue orders events by ``(time, priority, sequence)``, so ties in
  simulated time are broken by scheduling order, never by hash order or
  wall-clock effects;
* no global state — every simulation owns its :class:`Environment`.

Example
-------
>>> env = Environment()
>>> log = []
>>> def worker(env, name, delay):
...     yield env.timeout(delay)
...     log.append((env.now, name))
>>> _ = env.process(worker(env, "b", 2.0))
>>> _ = env.process(worker(env, "a", 1.0))
>>> env.run()
>>> log
[(1.0, 'a'), (2.0, 'b')]
"""

from __future__ import annotations

import gc
import heapq

from heapq import heappop as _heappop, heappush as _heappush
from time import perf_counter
from typing import Any, Callable, Generator, Iterable, Optional

from repro.obs.tracer import NULL_TRACER, PID_KERNEL

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. double trigger)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    Attributes
    ----------
    cause:
        Arbitrary object describing why the process was interrupted.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


#: Event priority for "urgent" events processed before normal ones at the
#: same simulated time (used internally for process resumption bookkeeping).
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot waitable occurrence.

    An event starts *pending*, becomes *triggered* once a value or an
    exception is attached and it is scheduled, and finally *processed* when
    the environment pops it off the queue and runs its callbacks.

    Processes wait on events by ``yield``-ing them.  When the event is
    processed, each waiting process is resumed with the event's value (or has
    the event's exception thrown into it).
    """

    __slots__ = ("env", "callbacks", "_value", "_exception", "_triggered", "_processed")

    def __init__(self, env: "Environment"):
        self.env = env
        #: Callables invoked with this event when it is processed.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False
        self._processed = False

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once a value/exception has been attached and scheduled."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event carries a value rather than an exception."""
        return self._triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The value the event succeeded with.

        Raises
        ------
        SimulationError
            If the event has not been triggered yet.
        """
        if not self._triggered:
            raise SimulationError("event value not yet available")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The exception the event failed with, if any."""
        return self._exception

    # ------------------------------------------------------------------
    # triggering
    # ------------------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with `value`."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._value = value
        self.env._schedule(self, delay=0.0, priority=priority)
        return self

    def succeed_now(self, value: Any = None) -> None:
        """Succeed with `value` and resume the waiters at once.

        Unlike :meth:`succeed` this takes no queue entry: called from a
        callback of the event being processed, it resumes this event's
        waiters at that point of the callback order, as if they had been
        waiting on the processed event itself.
        """
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._value = value
        callbacks = self.callbacks
        self.callbacks = None
        self._processed = True
        for cb in callbacks:
            cb(self)

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every process waiting on the event.
        """
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._exception = exception
        self.env._schedule(self, delay=0.0, priority=priority)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self._processed
            else "triggered" if self._triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # flattened hot path: a Timeout is born triggered and scheduled,
        # so initialisation and scheduling are fused into direct slot
        # writes instead of chaining through Event.__init__/_schedule
        self.env = env
        self.callbacks = []
        self._value = value
        self._exception = None
        self._triggered = True
        self._processed = False
        self.delay = delay
        seq = env._seq + 1
        env._seq = seq
        _heappush(env._queue, (env._now + delay, NORMAL, seq, self))


class _PooledTimeout(Timeout):
    """A recyclable timeout handed out by :meth:`Environment.sleep`.

    The event loop returns processed instances to the environment's free
    list, so hot paths that fire millions of plain delays stop churning
    the allocator.  Never retain or compose one: it must be ``yield``-ed
    immediately and forgotten (see :meth:`Environment.sleep`).

    ``_waiter`` is the single-process fast path: when exactly one process
    yields the sleep (the only supported pattern), its resume callback is
    stored in this slot instead of the callbacks list, and the event loop
    invokes it directly — no list append/iterate/clear per fired sleep.
    """

    __slots__ = ("_waiter",)

    def __init__(self, env: "Environment", delay: float):
        super().__init__(env, delay)
        # the environment's free list owns this object, so it keeps no
        # reference back: an environment dies by refcount with its pool.
        # Nothing reads ``env`` of a sleep (it is born triggered, so
        # succeed/fail refuse it before touching the environment).
        self.env = None
        self._waiter: Optional[Callable[["Event"], None]] = None


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", callback: Callable[[Event], None]):
        # flattened like Timeout: born triggered, scheduled urgently,
        # with the starting process's resume as its one callback
        self.env = env
        self.callbacks = [callback]
        self._value = None
        self._exception = None
        self._triggered = True
        self._processed = False
        seq = env._seq + 1
        env._seq = seq
        _heappush(env._queue, (env._now, URGENT, seq, self))


class Process(Event):
    """A running coroutine (generator) inside the simulation.

    A process *is* an event: it triggers when the underlying generator
    returns (value = the generator's return value) or raises (the process
    fails with that exception).  Other processes can therefore ``yield`` a
    process to join it.
    """

    __slots__ = (
        "_generator",
        "_target",
        "name",
        "_send",
        "_resume_cb",
        "_sleep_cb",
    )

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process requires a generator, got {generator!r}")
        # flattened Event initialisation: processes are created per rank
        # and per transfer, so the base-class call chain is skipped
        self.env = env
        self.callbacks = []
        self._value = None
        self._exception = None
        self._triggered = False
        self._processed = False
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: Event this process is currently waiting on (None if runnable).
        self._target: Optional[Event] = None
        # bind send and the resume callbacks once — every wait
        # re-registers a callback, and creating a fresh bound method per
        # wait is measurable on the hot path (``throw`` is looked up only
        # when an exception is actually thrown)
        self._send = generator.send
        self._resume_cb = self._resume
        self._sleep_cb = self._resume_sleep
        Initialize(env, self._resume_cb)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is waiting on an event detaches it from that event (the event
        itself is unaffected and may still fire for other waiters).
        """
        if self._triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        target = self._target
        if target is not None:
            if getattr(target, "_waiter", None) is self._sleep_cb:
                target._waiter = None
            elif target.callbacks is not None:
                try:
                    target.callbacks.remove(self._resume_cb)
                except ValueError:  # pragma: no cover - already detached
                    pass
        self._target = None
        carrier = Event(self.env)
        carrier.callbacks.append(self._resume_cb)
        carrier.fail(Interrupt(cause), priority=URGENT)

    # ------------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the result of `event`."""
        self._target = None
        send = self._send
        while True:
            try:
                if event._exception is None:
                    next_target = send(event._value)
                else:
                    next_target = self._throw(event._exception)
            except StopIteration as stop:
                self._triggered = True
                self._value = stop.value
                # break the self-cycle: a finished process dies by refcount
                self._resume_cb = self._sleep_cb = None
                self.env._schedule(self, delay=0.0)
                return
            except BaseException as exc:
                self._fail(exc)
                return

            try:
                if next_target._processed:
                    # Already-processed events resume immediately (same time).
                    event = next_target
                    continue
                if next_target.__class__ is _PooledTimeout and not next_target.callbacks:
                    # sole-waiter fast path: skip the callbacks list entirely
                    next_target._waiter = self._sleep_cb
                else:
                    next_target.callbacks.append(self._resume_cb)
            except AttributeError:
                # duck-typed event check: anything without the Event slots
                # (e.g. a yielded None) lands here, off the hot path
                exc2 = SimulationError(
                    f"process {self.name!r} yielded non-event {next_target!r}"
                )
                event = Event(self.env)
                event._triggered = True
                event._exception = exc2
                continue
            self._target = next_target
            return

    def _throw(self, exc: BaseException):
        """Throw `exc` into the generator; return its next target.

        The frames the generator adds to the traceback while `exc`
        propagates are dropped again when the throw returns, whether the
        generator caught `exc` or not: the exception belongs to the event
        that failed with it, and a waiter's frame on it would be a cycle
        (the frame holds the event, the event its exception).
        """
        tb = exc.__traceback__
        try:
            return self._generator.throw(exc)
        finally:
            exc.__traceback__ = tb

    def _fail(self, exc: BaseException) -> None:
        """Finish with `exc`, which the generator raised out."""
        # the kernel frame that caught `exc` heads its traceback, and that
        # frame holds this process: drop it, or the failure is a cycle
        exc.__traceback__ = exc.__traceback__.tb_next
        self._triggered = True
        self._exception = exc
        self._resume_cb = self._sleep_cb = None
        self.env._schedule(self, delay=0.0)
        if not self.callbacks:
            # Nobody is joining this process: surface the crash
            # instead of swallowing it silently.
            self.env._crashed.append((self, exc))

    def _resume_sleep(self, event: Event) -> None:
        """Advance the generator after a pooled sleep fired.

        Only ever invoked through :attr:`_PooledTimeout._waiter`, which
        :meth:`interrupt` detaches before throwing — so the resume is
        always clean: no value, no exception, no checks.
        """
        try:
            next_target = self._send(None)
        except StopIteration as stop:
            self._target = None
            self._triggered = True
            self._value = stop.value
            self._resume_cb = self._sleep_cb = None
            self.env._schedule(self, delay=0.0)
            return
        except BaseException as exc:
            self._target = None
            self._fail(exc)
            return
        try:
            if next_target._processed:
                # rare: already-processed target; generic path handles the
                # immediate-resume loop
                self._target = None
                self._resume(next_target)
                return
            if next_target.__class__ is _PooledTimeout and not next_target.callbacks:
                next_target._waiter = self._sleep_cb
            else:
                next_target.callbacks.append(self._resume_cb)
        except AttributeError:
            exc2 = SimulationError(
                f"process {self.name!r} yielded non-event {next_target!r}"
            )
            carrier = Event(self.env)
            carrier._triggered = True
            carrier._exception = exc2
            self._resume(carrier)
            return
        self._target = next_target


class AllOf(Event):
    """Composite event that fires when *all* sub-events have fired.

    The value is the list of sub-event values in the order given.  If any
    sub-event fails, the condition fails with that exception.
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        self.env = env
        self.callbacks = []
        self._value = None
        self._exception = None
        self._triggered = False
        self._processed = False
        self._events = list(events)
        self._remaining = 0
        on_sub = self._on_sub
        for ev in self._events:
            if ev._processed:
                if ev._exception is not None:
                    self._check_fail(ev)
                    # outcome decided: registering on the remaining
                    # sub-events would only add dead callbacks
                    break
            else:
                self._remaining += 1
                ev.callbacks.append(on_sub)
        if self._remaining == 0 and not self._triggered:
            self.succeed([ev._value for ev in self._events])

    def _check_fail(self, ev: Event) -> None:
        if not self._triggered:
            self.fail(ev._exception)  # type: ignore[arg-type]

    def _on_sub(self, ev: Event) -> None:
        if self._triggered:
            return
        if ev._exception is not None:
            self.fail(ev._exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e._value for e in self._events])


class AnyOf(Event):
    """Composite event that fires when *any* sub-event fires.

    The value is ``(index, value)`` of the first sub-event to fire.
    """

    __slots__ = ("_events",)

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        if not self._events:
            raise ValueError("AnyOf requires at least one event")
        on_sub = self._on_sub
        for i, ev in enumerate(self._events):
            if ev._processed:
                if ev._exception is not None:
                    self.fail(ev._exception)
                else:
                    self.succeed((i, ev._value))
                return
            ev.callbacks.append(on_sub)

    def _on_sub(self, ev: Event) -> None:
        # one shared bound method instead of a closure per sub-event;
        # the winner's index is resolved lazily, only when it fires
        if self._triggered:
            return
        if ev._exception is not None:
            self.fail(ev._exception)
            return
        for i, cand in enumerate(self._events):
            if cand is ev:
                self.succeed((i, ev._value))
                return


class Environment:
    """Owns the simulated clock and the event queue.

    Parameters
    ----------
    initial_time:
        Starting value of the simulated clock (seconds).
    """

    #: Upper bound on recycled sleep events kept per environment (large
    #: enough that thousands of concurrently sleeping processes still
    #: recycle instead of allocating; each pooled object is tiny).
    _SLEEP_POOL_MAX = 4096

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        #: Processes that died with an exception while nobody was joining
        #: them; ``run()`` re-raises the first of these.
        self._crashed: list[tuple[Process, BaseException]] = []
        #: Free list of processed :class:`_PooledTimeout` objects.
        self._sleep_pool: list[_PooledTimeout] = []
        #: Observability hook; the shared disabled tracer by default, so
        #: instrumentation sites pay one attribute read and one branch.
        #: Enable with ``Tracer().install(env)`` (see :mod:`repro.obs`).
        self.tracer = NULL_TRACER

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # factories
    # ------------------------------------------------------------------
    def process(self, generator: Generator, name: str = "") -> Process:
        """Register `generator` as a new process starting at the current time."""
        return Process(self, generator, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Return an event firing `delay` seconds from now."""
        return Timeout(self, delay, value)

    def sleep(self, delay: float) -> Timeout:
        """Fast-path timeout for the "yield and forget" pattern.

        Semantically identical to ``timeout(delay)`` (one event, same
        scheduling order, same simulated cost: none beyond the delay),
        but the returned object is recycled by the event loop once
        processed.  Callers must ``yield`` it immediately and never
        retain, re-yield, or compose it into :class:`AllOf`/:class:`AnyOf`
        — after processing, the object may be handed out again by a later
        ``sleep()`` call.  This is what the simulator's own hot paths
        (network chunk loop, memory copies, storage service) use.
        """
        pool = self._sleep_pool
        if not pool:
            return _PooledTimeout(self, delay)
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        ev = pool.pop()
        # minimal reset: callbacks is already an empty list (cleared on
        # recycle), _value/_exception stay None (sleeps carry no value
        # and fail() refuses triggered events), _triggered stays True
        ev._processed = False
        ev.delay = delay
        seq = self._seq + 1
        self._seq = seq
        _heappush(self._queue, (self._now + delay, NORMAL, seq, ev))
        return ev

    def event(self) -> Event:
        """Return a fresh untriggered event."""
        return Event(self)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Return an event firing once all `events` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Return an event firing when the first of `events` fires."""
        return AnyOf(self, events)

    # ------------------------------------------------------------------
    # scheduling / execution
    # ------------------------------------------------------------------
    def _schedule(self, event: Event, delay: float, priority: int = NORMAL) -> None:
        self._seq += 1
        _heappush(self._queue, (self._now + delay, priority, self._seq, event))

    def step(self) -> None:
        """Process the single next event in the queue."""
        time, _priority, _seq, event = heapq.heappop(self._queue)
        if time < self._now:  # pragma: no cover - defensive
            raise SimulationError("event queue went backwards in time")
        self._now = time
        if type(event) is _PooledTimeout:
            event._processed = True
            waiter = event._waiter
            if waiter is not None:
                event._waiter = None
                waiter(event)
            callbacks = event.callbacks
            if callbacks:
                # registered after the waiter, so they run after it
                event.callbacks = None
                for cb in callbacks:
                    cb(event)
                callbacks.clear()
                event.callbacks = callbacks  # list reused on the next sleep()
            if len(self._sleep_pool) < self._SLEEP_POOL_MAX:
                self._sleep_pool.append(event)
        else:
            callbacks = event.callbacks
            event.callbacks = None
            event._processed = True
            if callbacks:
                for cb in callbacks:
                    cb(event)
        if self._crashed:
            proc, exc = self._crashed[0]
            if self.tracer.enabled:
                self.tracer.instant(
                    "kernel", "process.crash", PID_KERNEL, 0,
                    process=proc.name, error=repr(exc),
                )
            raise SimulationError(
                f"process {proc.name!r} crashed at t={self._now}: {exc!r}"
            ) from exc

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None``
                run until the queue drains;
            a number
                run until the clock reaches that time;
            an :class:`Event`
                run until that event has been processed and return its value.

        The cyclic garbage collector is paused for the length of the run
        and left as it was found, however the run ends: it is disabled
        only if it was enabled on entry, and enabled again only then, so
        a nested run or a caller that already disabled it keeps it off.
        A run allocates and frees hundreds of thousands of events, heap
        entries and generators, and each collection their count triggers
        walks the live platform and reclaims nothing, because a platform
        frees itself by reference counting (DESIGN.md §7).  No collection
        is forced.
        """
        if not gc.isenabled():
            return self._run_spanned(until)
        gc.disable()
        try:
            return self._run_spanned(until)
        finally:
            gc.enable()

    def _run_spanned(self, until: Optional[float | Event]) -> Any:
        tracer = self.tracer
        if not tracer.enabled:
            return self._run(until)
        # Kernel span: sim-time bounds, with the kernel's own wall-clock
        # cost and the number of events dispatched attached as args (the
        # event count rides the existing _seq counter, so the hot loops
        # below carry no per-event tracing cost).
        t0 = tracer.now()
        seq0 = self._seq
        wall0 = perf_counter()
        try:
            return self._run(until)
        finally:
            tracer.complete(
                "kernel",
                "sim.run",
                PID_KERNEL,
                0,
                t0,
                tracer.now() - t0,
                wall_s=perf_counter() - wall0,
                events=self._seq - seq0,
            )

    def _run(self, until: Optional[float | Event] = None) -> Any:
        stop_event: Optional[Event] = None
        stop_time: Optional[float] = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError("cannot run() into the past")

        # The hot loop is `step()` inlined: the queue, heappop, the sleep
        # pool, and the crash list are bound to locals once, the
        # defensive time check is dropped (pops are monotone by heap
        # order), and the common single-callback case skips the loop.
        queue = self._queue
        pop = _heappop
        crashed = self._crashed
        pool = self._sleep_pool
        pool_max = self._SLEEP_POOL_MAX
        pooled_type = _PooledTimeout
        check_stop = stop_event is not None or stop_time is not None
        if not check_stop:
            # run-to-exhaustion tight loop: identical body minus the
            # per-event stop checks (this variant drains the benchmarked
            # hot paths, where every comparison per event shows up)
            while queue:
                time, _priority, _seq, event = pop(queue)
                self._now = time
                if event.__class__ is pooled_type:
                    # pooled sleeps: resume the sole waiter directly, then
                    # recycle — no callbacks-list traffic on this path
                    event._processed = True
                    waiter = event._waiter
                    if waiter is not None:
                        event._waiter = None
                        waiter(event)
                    callbacks = event.callbacks
                    if callbacks:
                        # registered after the waiter, so they run after it
                        event.callbacks = None
                        for cb in callbacks:
                            cb(event)
                        callbacks.clear()
                        event.callbacks = callbacks
                    if len(pool) < pool_max:
                        pool.append(event)
                else:
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    if callbacks:
                        if len(callbacks) == 1:
                            callbacks[0](event)
                        else:
                            for cb in callbacks:
                                cb(event)
                if crashed:
                    proc, exc = crashed[0]
                    tracer = self.tracer
                    if tracer.enabled:
                        tracer.instant(
                            "kernel", "process.crash", PID_KERNEL, 0,
                            process=proc.name, error=repr(exc),
                        )
                    raise SimulationError(
                        f"process {proc.name!r} crashed at t={self._now}: {exc!r}"
                    ) from exc
        while queue:
            if check_stop:
                if stop_event is not None and stop_event._processed:
                    return stop_event.value
                if stop_time is not None and queue[0][0] > stop_time:
                    self._now = stop_time
                    return None
            time, _priority, _seq, event = pop(queue)
            self._now = time
            if event.__class__ is pooled_type:
                # pooled sleeps: resume the sole waiter directly, then
                # recycle — no callbacks-list traffic on this path
                event._processed = True
                waiter = event._waiter
                if waiter is not None:
                    event._waiter = None
                    waiter(event)
                callbacks = event.callbacks
                if callbacks:
                    # registered after the waiter, so they run after it
                    event.callbacks = None
                    for cb in callbacks:
                        cb(event)
                    callbacks.clear()
                    event.callbacks = callbacks
                if len(pool) < pool_max:
                    pool.append(event)
            else:
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                if callbacks:
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for cb in callbacks:
                            cb(event)
            if crashed:
                proc, exc = crashed[0]
                tracer = self.tracer
                if tracer.enabled:
                    tracer.instant(
                        "kernel", "process.crash", PID_KERNEL, 0,
                        process=proc.name, error=repr(exc),
                    )
                raise SimulationError(
                    f"process {proc.name!r} crashed at t={self._now}: {exc!r}"
                ) from exc

        if stop_event is not None:
            if stop_event._processed:
                return stop_event.value
            raise SimulationError(
                "run(until=event) exhausted the queue before the event fired "
                "(deadlock?)"
            )
        if stop_time is not None:
            self._now = stop_time
        return None
