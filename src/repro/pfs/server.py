"""I/O server (OST) model.

Each server owns a FIFO service queue (one request in service at a time by
default) and charges::

    requests * request_overhead + nbytes / server_bandwidth

The per-request overhead is the mechanism that makes many small requests
slower than one large request — the inefficiency collective I/O exists to
remove.

Fault model.  Real object servers degrade and disappear transiently
(failing RAID rebuilds, network partitions, controller resets), so the
server carries two injectable states:

* a **degradation factor** — service time is multiplied by it, modelling a
  slowed but live server;
* an **unavailable state** (outage windows, reference-counted so windows
  can overlap) — new requests are rejected with
  :class:`ServerUnavailableError` and, on entering an outage, queued
  waiters are failed too, so clients back off and retry instead of parking
  behind a dead queue.

A request is a :class:`ServerRequest`, a callback-driven hold of one
queue slot (:class:`~repro.sim.Hold`), not a process: the per-request
charge needs a grant, a delay and a release, not a coroutine.
"""

from __future__ import annotations

from repro.obs.tracer import PID_PFS
from repro.sim import Environment, Hold, Resource, start_holds

__all__ = ["IOServer", "ServerRequest", "ServerUnavailableError"]


class ServerUnavailableError(RuntimeError):
    """The target I/O server is inside an outage window."""

    def __init__(self, server_id: int, message: str = ""):
        super().__init__(
            message or f"I/O server {server_id} is unavailable (outage)"
        )
        self.server_id = server_id


class IOServer:
    """One parallel-file-system object server.

    Parameters
    ----------
    env:
        Simulation environment.
    server_id:
        Index within the file system.
    bandwidth:
        Streaming bandwidth, bytes/second.
    request_overhead:
        Fixed seconds charged per discrete request.
    queue_depth:
        Concurrent requests in service (1 = strictly serial disk).
    """

    def __init__(
        self,
        env: Environment,
        server_id: int,
        bandwidth: float,
        request_overhead: float,
        queue_depth: int = 1,
        write_bandwidth_factor: float = 1.0,
    ):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if request_overhead < 0:
            raise ValueError("request_overhead must be >= 0")
        if not 0 < write_bandwidth_factor <= 1:
            raise ValueError("write_bandwidth_factor must be in (0, 1]")
        self.env = env
        self.server_id = int(server_id)
        self.bandwidth = float(bandwidth)
        self.request_overhead = float(request_overhead)
        self.write_bandwidth_factor = float(write_bandwidth_factor)
        self.queue = Resource(env, capacity=queue_depth, name=f"ost{server_id}")
        #: Totals for metrics.
        self.bytes_served = 0
        self.requests_served = 0
        #: Fault-model state and counters.
        self.degradation = 1.0
        self._outages = 0
        self.outage_rejections = 0

    # ------------------------------------------------------------------
    # fault-injection surface
    # ------------------------------------------------------------------
    @property
    def available(self) -> bool:
        """False while at least one outage window is open."""
        return self._outages == 0

    def set_degradation(self, factor: float) -> None:
        """Set the service-time multiplier (1.0 = healthy)."""
        if factor < 1.0:
            raise ValueError("degradation factor must be >= 1.0")
        self.degradation = float(factor)

    def begin_outage(self) -> None:
        """Open an outage window; queued waiters are failed immediately."""
        self._outages += 1
        failed = self.queue.fail_waiters(
            ServerUnavailableError(self.server_id)
        )
        self.outage_rejections += failed

    def end_outage(self) -> None:
        """Close one outage window (windows may overlap)."""
        if self._outages <= 0:
            raise RuntimeError(
                f"end_outage without begin_outage on server {self.server_id}"
            )
        self._outages -= 1

    # ------------------------------------------------------------------
    def service_time(self, nbytes: int, requests: int = 1, write: bool = False) -> float:
        """Healthy-state time to serve `requests` requests totalling `nbytes`."""
        if nbytes < 0 or requests < 0:
            raise ValueError("nbytes/requests must be >= 0")
        bw = self.bandwidth * (self.write_bandwidth_factor if write else 1.0)
        return requests * self.request_overhead + nbytes / bw

    def submit(self, nbytes: int, requests: int = 1, write: bool = False) -> "ServerRequest":
        """Issue one request; the returned event fires once it is served.

        The request starts at the current time, like a freshly spawned
        process.  It fails with :class:`ServerUnavailableError` if the
        server is inside an outage window when the request is issued or
        granted, or when an outage opens while it queues; clients are
        expected to back off and retry (see
        :class:`~repro.pfs.filesystem.RetryPolicy`).
        :meth:`ServerRequest.interrupt` abandons it and always reclaims
        the queue slot.
        """
        request = ServerRequest(self, nbytes, requests, write)
        start_holds(self.env, (request,))
        return request

    def serve(self, request: "ServerRequest") -> float:
        """Grant-time step of one request: its service delay, seconds.

        Called once `request` holds a queue slot: closes its
        ``pfs.queue_wait`` span, rejects it if an outage opened while it
        queued, and charges :meth:`service_time` times the degradation
        factor in force now (a later change does not re-time a request
        already in service).
        """
        tracer = self.env.tracer
        if tracer.enabled:
            t1 = request._t2 = tracer.now()
            if t1 > request._t0:
                tracer.complete(
                    "pfs", "pfs.queue_wait", PID_PFS, self.server_id,
                    request._t0, t1 - request._t0,
                )
        if not self.available:
            self.outage_rejections += 1
            raise ServerUnavailableError(self.server_id)
        t = self.service_time(request.nbytes, request.requests, write=request.write)
        return t * self.degradation


class ServerRequest(Hold):
    """One request to an :class:`IOServer`: queue, service, release.

    A callback-driven :class:`~repro.sim.Hold` of one queue slot: it is
    rejected at issue inside an outage, takes its service delay from
    :meth:`IOServer.serve` at the grant, and at the end of service counts
    its bytes and requests and records its ``pfs.serve`` span.  Create
    one with :meth:`IOServer.submit`.
    """

    __slots__ = ("server", "nbytes", "requests", "write", "_t0", "_t2")

    def __init__(self, server: IOServer, nbytes: int, requests: int, write: bool):
        super().__init__(server.queue)
        self.server = server
        self.nbytes = nbytes
        self.requests = requests
        self.write = write
        #: Issue and service-start instants, read only while tracing.
        self._t0 = 0.0
        self._t2 = 0.0

    def _start(self, _event=None) -> None:
        server = self.server
        if not server.available:
            server.outage_rejections += 1
            self._finish(ServerUnavailableError(server.server_id))
            return
        tracer = self.env.tracer
        if tracer.enabled:
            self._t0 = tracer.now()
        Hold._start(self)

    def _granted(self) -> float:
        return self.server.serve(self)

    def _served(self) -> None:
        server = self.server
        server.bytes_served += self.nbytes
        server.requests_served += self.requests
        tracer = self.env.tracer
        if tracer.enabled:
            # the span lasts the observed service time, and its
            # degradation is the factor in force at its end
            t2 = self._t2
            tracer.complete(
                "pfs", "pfs.serve", PID_PFS, server.server_id,
                t2, tracer.now() - t2,
                bytes=self.nbytes, requests=self.requests,
                write=self.write, degradation=server.degradation,
            )
