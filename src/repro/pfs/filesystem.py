"""Parallel file system facade: striping + servers + optional real data.

Clients (rank processes) call :meth:`ParallelFileSystem.write_extent` /
:meth:`read_extent` for contiguous transfers (what aggregators issue) and
:meth:`write_pattern` / :meth:`read_pattern` for noncontiguous requests
(what independent I/O issues).  Timing charges:

* the client node's NIC (injection/ejection), so a node hosting many
  aggregators bottlenecks on its own interface;
* each touched server's FIFO queue: ``requests x overhead + bytes/bw``.

A contiguous extent costs one request per touched server; a noncontiguous
pattern costs one request per *block* — which is exactly why two-phase
aggregation wins, and what the simulator must preserve.

Both charges are callback-driven holds (:class:`~repro.sim.Hold`), not
processes: one client I/O starts its NIC hold and its server requests
from one start event, in plan order, and completes through one
:class:`~repro.sim.Countdown`, where a successful hold that is not the
last of its I/O pushes no completion.  The event heap sees the same
``(time, priority)`` pushes in the same order as with one process per
hold (DESIGN.md §7, "Storage holds").  Holds are never started at spawn
time: that would run them before events already due at this instant.

When a :class:`~repro.pfs.datastore.SparseFile` is attached, payloads are
stored/retrieved byte-accurately so tests can verify end-to-end data
integrity independent of timing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cluster import Node
from repro.cluster.spec import StorageSpec
from repro.core.request import AccessPattern, Extent, block_arrays
from repro.sim import Countdown, Environment, Event, Hold, start_holds

from .datastore import SparseFile
from .layout import StripeLayout
from .server import IOServer, ServerRequest, ServerUnavailableError

__all__ = ["IOAbandonedError", "ParallelFileSystem", "RetryPolicy"]


class _NicHold(Hold):
    """The client NIC held for the wire time of one whole I/O.

    Storage traffic rides the same (possibly fenced) NIC as rank-to-rank
    messages, so the wire time is fixed at the grant with the node's
    failure slowdown in force then.
    """

    __slots__ = ("client", "total")

    def __init__(self, client: Node, write: bool, total: int):
        super().__init__(client.nic_tx if write else client.nic_rx)
        self.client = client
        self.total = total

    def _granted(self) -> float:
        client = self.client
        return (
            client.spec.nic_latency
            + self.total * client.failure_slowdown / client.spec.nic_bandwidth
        )


class _Deadline(Event):
    """A server request raced against its timeout.

    Succeeds with True when the request is served first and with False
    when the timeout passes first, or fails with the request's exception.
    It pushes the events ``env.any_of([request, env.timeout(timeout)])``
    pushes, but its timer is a pooled sleep whose waiter is detached once
    the request decides the race: a timer still queued when a run stops
    refers to nothing, so it cannot keep the platform alive in a cycle.
    """

    __slots__ = ("_timer",)

    def __init__(self, env: Environment, request: ServerRequest, timeout: float):
        super().__init__(env)
        request.callbacks.append(self._on_request)
        timer = self._timer = env.sleep(timeout)
        timer._waiter = self._on_timer

    def _on_request(self, request: ServerRequest) -> None:
        if self._triggered:
            return  # timed out first
        self._timer._waiter = None
        self._timer = None
        if request._exception is not None:
            self.fail(request._exception)
        else:
            self.succeed(True)

    def _on_timer(self, _timer) -> None:
        # the pooled sleep is recycled once processed: never keep it
        self._timer = None
        self.succeed(False)


class IOAbandonedError(RuntimeError):
    """A server request was abandoned after exhausting its retry budget."""

    def __init__(self, server_id: int, attempts: int):
        super().__init__(
            f"abandoned request to I/O server {server_id} "
            f"after {attempts} attempts"
        )
        self.server_id = server_id
        self.attempts = attempts


@dataclass(frozen=True)
class RetryPolicy:
    """Degraded-mode client policy: per-request timeout + capped backoff.

    With a policy attached to the file system, every per-server request is
    raced against `request_timeout`; a timed-out or outage-rejected
    attempt backs off ``min(backoff_base * 2**k, backoff_cap)`` seconds
    and retries, up to `max_retries` times, after which the request is
    abandoned with :class:`IOAbandonedError`.  Retries and abandons are
    counted on the file system (``io_retries`` / ``io_abandons``).

    The policy is deliberately *timing-neutral in the absence of faults*:
    a request that completes before its timeout finishes at exactly the
    same simulated instant it would without the policy.
    """

    request_timeout: float = 5.0
    backoff_base: float = 0.01
    backoff_cap: float = 1.0
    max_retries: int = 10

    def __post_init__(self) -> None:
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if self.backoff_base <= 0:
            raise ValueError("backoff_base must be positive")
        if self.backoff_cap < self.backoff_base:
            raise ValueError("backoff_cap must be >= backoff_base")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    def backoff(self, attempt: int) -> float:
        """Delay before retry number `attempt` (1-based), seconds."""
        return min(self.backoff_base * (2.0 ** (attempt - 1)), self.backoff_cap)


class ParallelFileSystem:
    """A striped parallel file system on the simulated cluster.

    Parameters
    ----------
    env:
        Simulation environment.
    spec:
        Storage hardware description (servers, bandwidth, overhead, stripe).
    datastore:
        Optional byte-accurate backing file; attach one to run in
        correctness mode.
    queue_depth:
        Concurrent requests in service per server.
    """

    def __init__(
        self,
        env: Environment,
        spec: StorageSpec,
        datastore: Optional[SparseFile] = None,
        queue_depth: int = 1,
        retry: Optional[RetryPolicy] = None,
    ):
        self.env = env
        self.spec = spec
        self.layout = StripeLayout(spec.stripe_size, spec.servers)
        self.servers = [
            IOServer(
                env,
                server_id=i,
                bandwidth=spec.server_bandwidth,
                request_overhead=spec.request_overhead,
                queue_depth=queue_depth,
                write_bandwidth_factor=spec.write_bandwidth_factor,
            )
            for i in range(spec.servers)
        ]
        self.datastore = datastore
        self.bytes_written = 0
        self.bytes_read = 0
        #: Degraded-mode client policy; None = fail-fast (no retries).
        self.retry = retry
        #: Cumulative retry/abandon counters across all clients.
        self.io_retries = 0
        self.io_abandons = 0

    # ------------------------------------------------------------------
    # accounting helpers
    # ------------------------------------------------------------------
    def _per_server_plan(self, pattern: AccessPattern) -> list[tuple[int, int, int]]:
        """``(server, nbytes, requests)`` per touched server for a pattern."""
        nbytes, requests = self.layout.server_load(*block_arrays(pattern.segments))
        return [
            (s, int(nbytes[s]), int(requests[s]))
            for s in np.flatnonzero(nbytes).tolist()
        ]

    def _extent_plan(self, ext: Extent) -> list[tuple[int, int, int]]:
        """``(server, nbytes, requests)`` for one contiguous extent."""
        return [(s, nbytes, 1) for s, nbytes in self.layout.extent_load(ext)]

    # ------------------------------------------------------------------
    # timing core
    # ------------------------------------------------------------------
    def _serve_with_retry(self, server: IOServer, nbytes: int, requests: int,
                          write: bool):
        """Process generator: one server request under the retry policy.

        Races each attempt against the per-request timeout; outage
        rejections and timeouts back off exponentially (capped) and
        retry.  Exhausting the budget raises :class:`IOAbandonedError`.
        """
        policy = self.retry
        env = self.env
        attempt = 0
        while True:
            attempt += 1
            request = server.submit(nbytes, requests, write=write)
            try:
                served = yield _Deadline(env, request, policy.request_timeout)
            except ServerUnavailableError:
                pass  # rejected at issue or while queued: retry below
            else:
                if served:
                    return  # served within the timeout
                if request.is_alive:
                    request.interrupt("pfs-request-timeout")
            if attempt > policy.max_retries:
                self.io_abandons += 1
                raise IOAbandonedError(server.server_id, attempt)
            self.io_retries += 1
            yield env.timeout(policy.backoff(attempt))

    def _do_io(self, client: Node, plan: list[tuple[int, int, int]], write: bool):
        """Run one client I/O against the servers in `plan`, in parallel.

        Holds the client NIC (tx for writes, rx for reads) for the wire
        time of the full transfer, concurrently with server service.
        Without a retry policy every hold — the NIC's and one
        :class:`ServerRequest` per planned server — starts from one start
        event and the I/O completes through one :class:`Countdown`; with
        one, each server request runs in its own retry process.
        """
        total = sum(nbytes for _, nbytes, _ in plan)
        if total == 0:
            return
        env = self.env
        done = Countdown(env, len(plan) + 1)
        nic = _NicHold(client, write, total)
        if self.retry is None:
            holds = [nic]
            servers = self.servers
            for server_id, nbytes, requests in plan:
                holds.append(ServerRequest(servers[server_id], nbytes, requests, write))
            done.join(holds)
            start_holds(env, holds)
        else:
            done.watch(nic)
            start_holds(env, (nic,))
            for server_id, nbytes, requests in plan:
                done.watch(env.process(
                    self._serve_with_retry(
                        self.servers[server_id], nbytes, requests, write
                    ),
                    name=f"pfs.ost{server_id}",
                ))
        yield done
        if write:
            self.bytes_written += total
        else:
            self.bytes_read += total

    # ------------------------------------------------------------------
    # contiguous ops (aggregator path)
    # ------------------------------------------------------------------
    def write_extent(
        self, client: Node, ext: Extent, payload: Optional[np.ndarray] = None
    ):
        """Process generator: write one contiguous extent from `client`."""
        if payload is not None:
            if len(payload) != ext.length:
                raise ValueError(
                    f"payload {len(payload)} B != extent {ext.length} B"
                )
            if self.datastore is not None:
                self.datastore.write(ext.offset, payload)
        yield from self._do_io(client, self._extent_plan(ext), write=True)

    def read_extent(self, client: Node, ext: Extent):
        """Process generator: read one contiguous extent; returns bytes or None.

        Returns a numpy uint8 array when a datastore is attached, else None.
        """
        yield from self._do_io(client, self._extent_plan(ext), write=False)
        if self.datastore is not None:
            return self.datastore.read(ext.offset, ext.length)
        return None

    # ------------------------------------------------------------------
    # noncontiguous ops (independent-I/O path)
    # ------------------------------------------------------------------
    def write_pattern(
        self, client: Node, pattern: AccessPattern, payload: Optional[np.ndarray] = None
    ):
        """Process generator: write a noncontiguous pattern request-by-request."""
        if payload is not None:
            if len(payload) != pattern.nbytes:
                raise ValueError(
                    f"payload {len(payload)} B != pattern {pattern.nbytes} B"
                )
            if self.datastore is not None:
                for off, ln, buf in pattern.iter_mapped_extents():
                    self.datastore.write(off, payload[buf : buf + ln])
        yield from self._do_io(client, self._per_server_plan(pattern), write=True)

    def read_pattern(self, client: Node, pattern: AccessPattern):
        """Process generator: read a noncontiguous pattern; returns packed bytes.

        Returns a numpy uint8 array (pattern order) when a datastore is
        attached, else None.
        """
        yield from self._do_io(client, self._per_server_plan(pattern), write=False)
        if self.datastore is not None:
            out = np.zeros(pattern.nbytes, dtype=np.uint8)
            for off, ln, buf in pattern.iter_mapped_extents():
                out[buf : buf + ln] = self.datastore.read(off, ln)
            return out
        return None

    # ------------------------------------------------------------------
    def server_stats(self) -> list[tuple[int, int, int]]:
        """``(server_id, bytes_served, requests_served)`` per server."""
        return [(s.server_id, s.bytes_served, s.requests_served) for s in self.servers]
