"""Fault injection: drive a schedule against a live simulation.

The :class:`FaultInjector` walks a
:class:`~repro.faults.schedule.FaultSchedule` as a simulation process,
applying each event to the cluster / file system at its scheduled time
and reverting windowed faults when their duration elapses:

* ``server_slowdown`` — multiplies the target
  :class:`~repro.pfs.server.IOServer`'s degradation factor (overlapping
  windows compose; each revert divides its own factor back out);
* ``server_outage`` — opens/closes an outage window on the server
  (reference-counted in the server, so overlaps are safe);
* ``memory_shock`` — applies/releases a shock on the node's
  :class:`~repro.cluster.memory.MemoryModel`; shocks stack with any
  :class:`~repro.cluster.background.BackgroundLoad` updating the same
  node's base availability;
* ``node_failure`` — marks the node failed (memory and wire traffic slow
  down; the collective engine's failover path moves aggregators away);
  a window restores the node, ``duration=None`` is permanent.

Everything the injector does is a deterministic function of the schedule
and the simulation clock, so a seeded chaos run replays exactly.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.cluster import Cluster
from repro.obs.tracer import PID_PFS, TID_NODE
from repro.pfs.filesystem import ParallelFileSystem
from repro.sim import Environment, Interrupt, Process
from repro.sim.subscribers import Subscribers

from .schedule import FaultEvent, FaultSchedule

__all__ = ["FaultInjector"]


class FaultInjector:
    """Apply a fault schedule to a simulated platform.

    Parameters
    ----------
    env:
        The simulation environment (must be the cluster's).
    cluster:
        Target for node faults.
    pfs:
        Target for server faults (None allowed if the schedule has none).
    schedule:
        The fault plan to execute.
    """

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        pfs: Optional[ParallelFileSystem],
        schedule: FaultSchedule,
    ):
        self.env = env
        self.cluster = cluster
        self.pfs = pfs
        self.schedule = schedule
        #: Events applied so far, by kind.
        self.applied: dict[str, int] = {}
        #: Windowed faults currently in force.
        self.active: list[FaultEvent] = []
        self._proc: Optional[Process] = None
        self._reverts: list[Process] = []
        #: Callbacks ``listener(event, phase)`` fired after every applied
        #: (``phase="apply"``) and reverted (``phase="revert"``) fault —
        #: e.g. a plan cache dropping its entries because the platform
        #: state the plans were built against just changed.  Bound
        #: methods are held weakly: watching never keeps an engine alive.
        self._listeners = Subscribers()
        for ev in schedule:
            self._validate_target(ev)

    # ------------------------------------------------------------------
    def add_listener(self, listener) -> None:
        """Register ``listener(event, phase)`` for fault apply/revert."""
        self._listeners.add(listener)

    def _notify(self, ev: FaultEvent, phase: str) -> None:
        self._listeners.notify(ev, phase)

    def _trace(self, ev: FaultEvent, phase: str) -> None:
        """Mark the fault on its target's own trace track."""
        tracer = self.env.tracer
        if not tracer.enabled:
            return
        if ev.kind in ("server_slowdown", "server_outage"):
            pid, tid = PID_PFS, ev.target
        else:
            pid, tid = ev.target, TID_NODE
        tracer.instant(
            "fault", f"fault.{phase}", pid, tid,
            kind=ev.kind, target=ev.target,
            magnitude=ev.magnitude, duration=ev.duration,
        )

    # ------------------------------------------------------------------
    def _validate_target(self, ev: FaultEvent) -> None:
        if ev.kind in ("server_slowdown", "server_outage"):
            if self.pfs is None:
                raise ValueError(f"{ev.kind} event but no file system attached")
            if ev.target >= len(self.pfs.servers):
                raise ValueError(
                    f"{ev.kind} targets server {ev.target}, "
                    f"file system has {len(self.pfs.servers)}"
                )
        else:
            if ev.target >= len(self.cluster.nodes):
                raise ValueError(
                    f"{ev.kind} targets node {ev.target}, "
                    f"cluster has {len(self.cluster.nodes)}"
                )

    # ------------------------------------------------------------------
    def start(self) -> Process:
        """Launch the injection process; returns it (joinable)."""
        if self._proc is not None and self._proc.is_alive:
            raise RuntimeError("fault injector already running")
        self._proc = self.env.process(self._run(), name="fault-injector")
        return self._proc

    def stop(self, restore: bool = True) -> None:
        """Halt injection; with `restore`, revert all active faults."""
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("stop")
        self._proc = None
        for proc in self._reverts:
            if proc.is_alive:
                proc.interrupt("stop")
        self._reverts.clear()
        if restore:
            for ev in list(reversed(self.active)):
                self._revert(ev)
        self.active.clear()

    def _run(self):
        env = self.env
        try:
            for ev in self.schedule.events:
                delay = ev.time - env.now
                if delay > 0:
                    yield env.timeout(delay)
                self._apply(ev)
        except Interrupt:
            return

    def _revert_after(self, ev: FaultEvent):
        try:
            yield self.env.timeout(ev.duration)
        except Interrupt:
            return
        if ev in self.active:
            self.active.remove(ev)
            self._revert(ev)

    # ------------------------------------------------------------------
    def _apply(self, ev: FaultEvent) -> None:
        if ev.kind == "server_slowdown":
            server = self.pfs.servers[ev.target]
            server.set_degradation(server.degradation * ev.magnitude)
        elif ev.kind == "server_outage":
            self.pfs.servers[ev.target].begin_outage()
        elif ev.kind == "memory_shock":
            self.cluster.nodes[ev.target].memory.apply_shock(int(ev.magnitude))
        elif ev.kind == "node_failure":
            self.cluster.nodes[ev.target].fail(ev.magnitude)
        self.applied[ev.kind] = self.applied.get(ev.kind, 0) + 1
        self._trace(ev, "apply")
        self._notify(ev, "apply")
        if ev.duration is not None:
            self.active.append(ev)
            self._reverts.append(
                self.env.process(
                    self._revert_after(ev),
                    name=f"fault-revert.{ev.kind}.{ev.target}",
                )
            )

    def _revert(self, ev: FaultEvent) -> None:
        self._trace(ev, "revert")
        self._notify(ev, "revert")
        if ev.kind == "server_slowdown":
            server = self.pfs.servers[ev.target]
            server.set_degradation(max(1.0, server.degradation / ev.magnitude))
        elif ev.kind == "server_outage":
            self.pfs.servers[ev.target].end_outage()
        elif ev.kind == "memory_shock":
            self.cluster.nodes[ev.target].memory.release_shock(int(ev.magnitude))
        elif ev.kind == "node_failure":
            node = self.cluster.nodes[ev.target]
            # overlapping failures on one node: stay failed until the
            # last window closes
            if not any(
                a is not ev and a.kind == "node_failure" and a.target == ev.target
                for a in self.active
            ):
                node.recover()
