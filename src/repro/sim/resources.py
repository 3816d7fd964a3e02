"""Shared-resource primitives for the simulation kernel.

Two resource kinds cover everything the cluster model needs:

:class:`Resource`
    A counted FIFO resource (``capacity`` concurrent holders).  Used for I/O
    server service slots, NIC transmit/receive engines, and memory-bus
    channels.  Contention shows up as queueing delay.

:class:`Container`
    A levelled resource holding a continuous amount (e.g. bytes of memory).
    ``get``/``put`` block until satisfiable, FIFO-fairly.

Both are deterministic: waiters are served strictly in request order.

:class:`Hold` is a timed hold of one :class:`Resource` slot (request,
hold for a delay fixed at the grant, release) run as callbacks rather
than as a process; :class:`Countdown` joins a group of holds with one
completion, and :func:`start_holds` starts a group from one start event.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .engine import (
    NORMAL,
    URGENT,
    Environment,
    Event,
    Initialize,
    Interrupt,
    SimulationError,
)

__all__ = ["Resource", "Request", "Container", "Hold", "Countdown", "start_holds"]


class Request(Event):
    """Pending acquisition of a :class:`Resource` slot.

    Yield it to wait for the grant; pass it back to
    :meth:`Resource.release` when done.  Usable as a context manager inside
    process generators::

        req = resource.request()
        yield req
        try:
            yield env.timeout(service_time)
        finally:
            resource.release(req)
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        # flattened Event initialisation (one request per wire chunk)
        self.env = resource.env
        self.callbacks = []
        self._value = None
        self._exception = None
        self._triggered = False
        self._processed = False
        self.resource = resource

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Fail the request, releasing its queued slot if still waiting.

        Without this, a queued request whose event is failed (e.g. by a
        fault injector declaring the resource's owner unavailable) would
        eventually be granted a slot nobody releases — a capacity leak
        that deadlocks the queue.
        """
        self.resource._discard_waiter(self)
        return super().fail(exception, priority=priority)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info) -> None:
        self.resource.release(self)


class Resource:
    """A counted FIFO resource with `capacity` concurrent holders.

    Parameters
    ----------
    env:
        Owning environment.
    capacity:
        Number of requests that may hold the resource simultaneously.
    name:
        Optional label used in error messages and traces.
    """

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._holders: set[Request] = set()
        self._waiters: deque[Request] = deque()
        #: Total simulated time-weighted busy integral (for utilisation).
        self._busy_time = 0.0
        self._created = env.now
        self._last_change = env.now
        self._peak_queue = 0

    # ------------------------------------------------------------------
    @property
    def in_use(self) -> int:
        """Number of slots currently held."""
        return len(self._holders)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiters)

    @property
    def peak_queue_length(self) -> int:
        """Largest queue length observed so far."""
        return self._peak_queue

    def utilization(self) -> float:
        """Average fraction of capacity in use since creation."""
        self._account()
        elapsed = self.env.now - self._created
        if elapsed <= 0:
            return 0.0
        return self._busy_time / (elapsed * self.capacity)

    def _account(self) -> None:
        now = self.env.now
        self._busy_time += len(self._holders) * (now - self._last_change)
        self._last_change = now

    # ------------------------------------------------------------------
    def request(self) -> Request:
        """Ask for a slot; the returned event fires when granted."""
        req = Request(self)
        holders = self._holders
        if len(holders) < self.capacity and not self._waiters:
            # _account, inlined on the hot path
            now = self.env._now
            self._busy_time += len(holders) * (now - self._last_change)
            self._last_change = now
            holders.add(req)
            # the grant carries no value: succeeding with the request
            # itself would make every granted request a self-cycle
            req.succeed()
        else:
            self._waiters.append(req)
            self._peak_queue = max(self._peak_queue, len(self._waiters))
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted slot.

        Releasing a request that was never granted (still queued) cancels
        it.  Releasing a request that was *failed* while queued (see
        :meth:`Request.fail`) is a no-op: the slot was already reclaimed.
        """
        holders = self._holders
        if request in holders:
            # _account, inlined on the hot path
            now = self.env._now
            self._busy_time += len(holders) * (now - self._last_change)
            self._last_change = now
            holders.discard(request)
            if self._waiters:
                self._grant_next()
        else:
            try:
                self._waiters.remove(request)
            except ValueError:
                if request._exception is not None:
                    # failed while queued: already discarded from the
                    # queue, nothing left to release
                    return
                raise SimulationError(
                    f"release of unknown request on resource {self.name!r}"
                ) from None

    def _discard_waiter(self, request: Request) -> None:
        """Drop `request` from the wait queue if present (fail/cancel path)."""
        try:
            self._waiters.remove(request)
        except ValueError:
            pass

    def fail_waiters(self, exception: BaseException) -> int:
        """Fail every queued (ungranted) request with `exception`.

        Used by fault injectors to abort processes queued behind an
        outage instead of leaving them parked until the resource frees.
        Holders are unaffected.  Returns the number of requests failed.
        """
        waiting = list(self._waiters)
        for req in waiting:
            req.fail(exception)
        return len(waiting)

    def _grant_next(self) -> None:
        while self._waiters and len(self._holders) < self.capacity:
            nxt = self._waiters.popleft()
            if nxt.triggered:  # failed/cancelled while queued; skip
                continue
            self._account()
            self._holders.add(nxt)
            nxt.succeed()


class Container:
    """A continuous-quantity store (bytes, tokens, ...).

    ``get`` requests block FIFO-fairly until the level is sufficient; a large
    ``get`` at the head of the queue blocks later small ones (no overtaking),
    which keeps behaviour deterministic and starvation-free.
    """

    def __init__(
        self,
        env: Environment,
        capacity: float = float("inf"),
        init: float = 0.0,
        name: str = "",
    ):
        if init < 0 or init > capacity:
            raise ValueError(f"init {init} outside [0, {capacity}]")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._level = float(init)
        self._getters: deque[tuple[Event, float]] = deque()
        self._putters: deque[tuple[Event, float]] = deque()

    @property
    def level(self) -> float:
        """Current stored amount."""
        return self._level

    def get(self, amount: float) -> Event:
        """Withdraw `amount`; the event fires once withdrawn."""
        if amount < 0:
            raise ValueError(f"negative get amount: {amount}")
        ev = Event(self.env)
        self._getters.append((ev, amount))
        self._settle()
        return ev

    def put(self, amount: float) -> Event:
        """Deposit `amount`; the event fires once it fits under capacity."""
        if amount < 0:
            raise ValueError(f"negative put amount: {amount}")
        ev = Event(self.env)
        self._putters.append((ev, amount))
        self._settle()
        return ev

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters:
                ev, amount = self._putters[0]
                if self._level + amount <= self.capacity:
                    self._putters.popleft()
                    self._level += amount
                    ev.succeed(amount)
                    progressed = True
            if self._getters:
                ev, amount = self._getters[0]
                if amount <= self._level:
                    self._getters.popleft()
                    self._level -= amount
                    ev.succeed(amount)
                    progressed = True


class Hold(Event):
    """A timed hold of one :class:`Resource` slot, run as callbacks.

    It does what the process ::

        req = resource.request()
        try:
            yield req
            yield env.sleep(self._granted())
            self._served()
        finally:
            resource.release(req)  # a no-op for a request failed in the queue

    does, and pushes exactly the events that process pushes — the grant,
    the pooled sleep (slept on through its ``_waiter``), the next waiter's
    grant at the release, and the completion — but it has no generator,
    and it is started by :func:`start_holds`, so a group of holds shares
    one start event.  The hold is an event: it succeeds when released,
    or fails with what :meth:`_granted` raised, with the exception of a
    request failed while queued (:meth:`Resource.fail_waiters`), or with
    :class:`~repro.sim.engine.Interrupt`.

    Subclasses provide :meth:`_granted` (the delay, computed once the
    slot is held; raising releases the slot and fails the hold) and may
    provide :meth:`_served` (bookkeeping at the end of the delay).
    """

    __slots__ = ("resource", "_req", "_sleep", "_join")

    def __init__(self, resource: Resource):
        # flattened Event initialisation (one hold per server request)
        self.env = resource.env
        self.callbacks = []
        self._value = None
        self._exception = None
        self._triggered = False
        self._processed = False
        self.resource = resource
        self._req: Optional[Request] = None
        self._sleep = None
        #: The :class:`Countdown` this hold reports its success to
        #: directly, or None to report through its own completion.
        self._join: Optional[Countdown] = None

    @property
    def is_alive(self) -> bool:
        """True until the hold has released its slot or failed."""
        return not self._triggered

    @property
    def name(self) -> str:
        """The held resource's name (crash reports)."""
        return self.resource.name

    def _granted(self) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def _served(self) -> None:
        """Bookkeeping when the delay has passed, before the release."""

    # ------------------------------------------------------------------
    def _start(self, _event: Optional[Event] = None) -> None:
        req = self._req = self.resource.request()
        req.callbacks.append(self._grant)

    def _grant(self, req: Request) -> None:
        if req._exception is not None:
            # failed while queued: the queue already dropped the request
            self._finish(req._exception)
            return
        try:
            delay = self._granted()
        except Exception as exc:  # noqa: BLE001 - the hold fails with it
            self.resource.release(req)
            # fail without the frames that raised: each of them holds
            # this hold, which will hold the exception (a cycle)
            self._finish(exc.with_traceback(None))
            return
        sleep = self._sleep = self.env.sleep(delay)
        sleep._waiter = self._wake

    def _wake(self, _sleep: Event) -> None:
        # the pooled sleep is recycled once processed: never keep it
        self._sleep = None
        self._served()
        self.resource.release(self._req)
        self._finish(None)

    def _finish(self, exc: Optional[BaseException]) -> None:
        """Succeed (`exc` None) or fail, pushing the completion a process
        would push — except a success that its :class:`Countdown` can
        count on the spot because more of the group is still running."""
        self._triggered = True
        join = self._join
        if join is not None:
            if exc is None and join._remaining > 1:
                join._remaining -= 1
                return
            self.callbacks.append(join._on_sub)
        self.env._schedule(self, delay=0.0)
        if exc is not None:
            self._exception = exc
            if not self.callbacks:
                # nobody is waiting: surface the failure like a crashed
                # process instead of dropping it
                self.env._crashed.append((self, exc))

    # ------------------------------------------------------------------
    def interrupt(self, cause=None) -> None:
        """Abandon the hold, like :meth:`~repro.sim.engine.Process.interrupt`.

        Detaches from the grant or the sleep at the call; an urgent
        carrier event then releases (or cancels) the slot and fails the
        hold with :class:`~repro.sim.engine.Interrupt`.
        """
        if self._triggered:
            raise SimulationError(f"cannot interrupt finished hold {self.name!r}")
        sleep = self._sleep
        if sleep is not None:
            sleep._waiter = None
            self._sleep = None
        else:
            req = self._req
            if req is not None and req.callbacks is not None:
                # still queued, or granted but not yet processed
                req.callbacks.remove(self._grant)
        carrier = Event(self.env)
        carrier.callbacks.append(self._interrupted)
        carrier.fail(Interrupt(cause), priority=URGENT)

    def _interrupted(self, carrier: Event) -> None:
        self.resource.release(self._req)
        self._finish(carrier._exception)


class Countdown(Event):
    """One completion for a group of holds: succeeds (value None) once
    every member has succeeded, or fails with the first failure.

    It replaces an :class:`~repro.sim.engine.AllOf` over the group.
    Under ``AllOf`` every member's completion was an event whose only
    effect was to decrement a counter, unless it was the last success or
    a failure.  So a member joined with :meth:`join` counts a success
    itself when others are still running, and pushes its completion only
    as the last success or on failure — the same pushes, in the same
    order, that had an effect.  Events watched with :meth:`watch` always
    report through their completion, as under ``AllOf``.
    """

    __slots__ = ("_remaining",)

    def __init__(self, env: Environment, count: int):
        super().__init__(env)
        self._remaining = count

    def join(self, holds) -> None:
        """Let each of `holds` count its success directly."""
        for hold in holds:
            hold._join = self

    def watch(self, event: Event) -> None:
        """Count `event` when its completion is processed."""
        event.callbacks.append(self._on_sub)

    def _on_sub(self, ev: Event) -> None:
        if self._triggered:
            return
        if ev._exception is not None:
            self.fail(ev._exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed()


def start_holds(env: Environment, holds) -> None:
    """Start `holds` in order from one urgent start event at the current time.

    Equivalent to starting one process per hold: their start events
    would be pushed back to back at ``(now, URGENT)``, and a hold's start
    pushes nothing urgent, so nothing could run between them.  A hold is
    never started at the call itself — a start at spawn time would run
    before events already due at this instant.
    """
    it = iter(holds)
    start = Initialize(env, next(it)._start)
    start.callbacks.extend(hold._start for hold in it)
