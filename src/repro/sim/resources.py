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
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .engine import NORMAL, Environment, Event, SimulationError

__all__ = ["Resource", "Request", "Container"]


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
        super().__init__(resource.env)
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
        if len(self._holders) < self.capacity and not self._waiters:
            self._account()
            self._holders.add(req)
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
        if request in self._holders:
            self._account()
            self._holders.discard(request)
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
