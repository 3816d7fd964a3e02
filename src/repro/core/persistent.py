"""Persistent collective I/O: plan once, replay every timestep.

Iterative checkpoint/analysis loops re-execute the *same* collective each
timestep.  The blocking path re-pays the coordination preamble every
call: a pattern allgather, a memory-state allgather, and a planning
pass.  A :class:`PersistentCollective` — built
by ``SimFile.write_all_init`` / ``read_all_init`` — freezes the whole
execution plan after the first ``start()`` and replays it on each
subsequent one, skipping both allgathers and going straight to the
shuffle rounds:

>>> pc = fh.write_all_init()               # collective init (local)
>>> for step in range(n_timesteps):        # inside a rank process:
...     compute(step)
...     pc.start(ctx, payload)             # MPI_Start
...     yield from pc.wait(ctx)            # MPI_Wait

By default the replay runs the engine's *pipelined* executor
(``overlap=True``): each aggregator double-buffers its window so the
shuffle of round t overlaps the PFS service of round t-1 (write: window
t stages while t-1 drains to the OSTs; read: window t+1 prefetches while
t shuffles out).  ``overlap=False`` replays through the exact blocking
executor — bit-identical stats and bytes to a fresh ``write_all`` per
timestep — isolating the plan-reuse saving from the overlap saving.

Invalidation
------------
A frozen plan names concrete aggregator hosts and buffer sizes, so any
event that moves memory or kills hosts makes it stale.  The handle
subscribes to the engine's plan-invalidation feed
(:meth:`~repro.core.mcio.MemoryConsciousCollectiveIO.add_invalidation_listener`):
fault apply/revert (for injectors wired via ``watch_faults``) and
mid-run aggregator failover both bump a generation
counter, and the next ``start()`` re-plans from fresh allgathers.  An
event landing *between* ``start()`` and ``wait()`` never perturbs the
in-flight epoch — the executor's own degradation machinery (drain, then
lockstep + failover) carries it to completion — it only forces the
re-plan afterwards.

Path decision
-------------
Each epoch asks :func:`~repro.core.path.resolve_path` once, after
planning, how to replay; ``stats.path`` records the answer.  Epochs
of an engine without the planning hooks cannot be replayed and are
*delegated* whole to the engine's blocking entry point, whose stats
then carry the ``"persistent:<reason>"`` refusal.
"""

from __future__ import annotations

import weakref
from typing import Optional

import numpy as np

from repro.core.path import hand_over, resolve_path

__all__ = ["PersistentCollective"]


class _Epoch:
    """Shared per-timestep state (one instance across all ranks)."""

    __slots__ = (
        "index", "gen", "replan", "planned", "decision", "stats",
        "returned", "finishers",
    )

    def __init__(self, index: int, gen: int, replan: bool):
        self.index = index
        #: Invalidation generation pinned by the first-arriving rank; the
        #: re-plan clears staleness only up to this point, so an event
        #: firing after the pin still forces the *next* epoch to re-plan.
        self.gen = gen
        self.replan = replan
        self.planned = False
        #: Resolved once, by the first rank past planning.
        self.decision = None
        self.stats = None
        #: Ranks back from a delegated blocking call.
        self.returned = 0
        self.finishers = 0


class PersistentCollective:
    """A frozen, replayable collective operation on one file view.

    Construct via ``SimFile.write_all_init`` / ``read_all_init``.  The
    handle is shared by all ranks (like the file); per-rank state is
    keyed internally.  Usage per timestep is ``start(ctx, payload)``
    (local, returns immediately) then ``yield from wait(ctx)``.

    ``start``/``wait`` pairs must be called in the same order on every
    rank relative to any other collective on the communicator — the
    standard MPI ordering rule for nonblocking collectives.
    """

    def __init__(self, file, op: str, overlap: bool = True):
        if op not in ("write", "read"):
            raise ValueError(f"bad op {op!r}")
        #: The file owns its handles (``SimFile._pcs``); the link back is
        #: weak so a finished run's file and handles die by refcount.
        self.file = weakref.proxy(file)
        self.comm = file.comm
        self.engine = file.engine
        self.op = op
        self.overlap = bool(overlap)
        self.pc_id = self.engine._next_pc_id()
        #: Whether the engine exposes the planning hooks the managed
        #: replay needs; without them every epoch delegates.
        self.managed = not resolve_path(self.engine, replay=True).delegated
        # frozen plan state
        self._plan = None
        self._views = None
        self._plan_gen = -1
        self._inval_gen = 0
        #: Invalidation reasons observed, in order (diagnostics).
        self.invalidations: list[str] = []
        #: Planning epochs performed (1 after the first start).
        self.replans = 0
        #: Epochs delegated whole to the blocking engine path.
        self.delegations = 0
        self._epochs: dict[int, _Epoch] = {}
        self._rank_epoch: dict[int, int] = {}
        #: rank -> (process, epoch) of the outstanding start.
        self._active: dict[int, tuple] = {}
        if self.managed:
            self.engine.add_invalidation_listener(self._on_invalidate)

    # ------------------------------------------------------------------
    def _on_invalidate(self, reason: str) -> None:
        self._inval_gen += 1
        self.invalidations.append(reason)

    @property
    def stale(self) -> bool:
        """Whether the next ``start()`` will re-plan."""
        return self._plan_gen < self._inval_gen or self._views is None

    def free(self) -> None:
        """Release the handle (MPI_Request_free for the persistent op)."""
        if self._active:
            raise RuntimeError("free() with operations still in flight")
        if self.managed:
            self.engine.remove_invalidation_listener(self._on_invalidate)

    # ------------------------------------------------------------------
    def start(self, ctx, payload: Optional[np.ndarray] = None):
        """Begin this rank's next epoch (MPI_Start — local, no yield).

        The operation runs as a child process of the calling rank;
        complete it with :meth:`wait`.  At most one epoch may be
        outstanding per rank.
        """
        rank = ctx.rank
        if rank in self._active:
            raise RuntimeError(
                f"rank {rank}: start() with a previous epoch still in flight"
            )
        e = self._rank_epoch.get(rank, 0)
        self._rank_epoch[rank] = e + 1
        ep = self._epochs.get(e)
        if ep is None:
            ep = _Epoch(e, self._inval_gen, replan=self.managed and self.stale)
            self._epochs[e] = ep
        pattern = self.file.view(ctx)
        proc = ctx.spawn(
            self._epoch_op(ctx, ep, pattern, payload),
            name=f"rank{rank}.pc{self.pc_id}.e{e}",
        )
        self._active[rank] = (proc, ep)
        return self

    def wait(self, ctx):
        """Process generator: complete this rank's outstanding epoch.

        Returns the operation's result (the payload for writes, the
        filled buffer for reads).  The last rank to complete finalizes
        the epoch's stats into ``engine.history``.
        """
        entry = self._active.pop(ctx.rank, None)
        if entry is None:
            raise RuntimeError(f"rank {ctx.rank}: wait() without start()")
        proc, ep = entry
        if not proc.triggered:
            yield proc
        ep.finishers += 1
        if ep.finishers == self.comm.size:
            self._epochs.pop(ep.index, None)
            if ep.stats is not None:
                final = ep.stats.finalize()
                self.engine.history.append(final)
                if final.failovers:
                    # same contract as the blocking path's finish: moved
                    # aggregators invalidate every frozen plan
                    self.engine._notify_plan_invalidation("failover")
        return proc.value

    def test(self, ctx):
        """Nonblocking probe of this rank's outstanding epoch."""
        entry = self._active.get(ctx.rank)
        if entry is None:
            raise RuntimeError(f"rank {ctx.rank}: test() without start()")
        return entry[0].triggered

    # ------------------------------------------------------------------
    def _epoch_op(self, ctx, ep: _Epoch, pattern, payload):
        # deferred: repro.mpi.file imports this module, and the engine
        # module imports repro.mpi.comm — a top-level import would cycle
        from repro.core.engine import execute_collective
        from repro.core.mcio import memory_snapshot
        from repro.core.pattern_array import FileViewIndex

        engine, comm = self.engine, self.comm
        if ep.replan:
            # same coordination preamble as a fresh blocking collective;
            # frozen epochs skip both allgathers entirely
            meta_bytes = 32 * (1 + pattern.segment_count)
            patterns = yield from comm.allgather(ctx, pattern, nbytes=meta_bytes)
            mem_state = yield from comm.allgather(
                ctx,
                (
                    ctx.node.node_id,
                    ctx.node.memory.free_available,
                    ctx.node.failed,
                ),
                nbytes=16,
            )
            if not ep.planned:
                ep.planned = True
                # the frozen plan keeps its views' index beside it: one
                # index per handle, replaced only by the next re-plan
                views = FileViewIndex(patterns)
                self._plan = engine.plan(views, *memory_snapshot(mem_state))
                self._views = views
                self._plan_gen = ep.gen
                self.replans += 1
        if ep.decision is None:
            ep.decision = resolve_path(
                engine, self._plan, replay=True, overlap=self.overlap
            )
            if ep.decision.delegated:
                self.delegations += 1
        if ep.decision.delegated:
            return (yield from self._delegate(ctx, ep, pattern, payload))
        if ep.stats is None:
            stats = engine._make_collector(self.op, self._plan)
            stats.path = ep.decision
            stats.extra["persistent"] = self.pc_id
            stats.extra["persistent_epoch"] = ep.index
            stats.extra["persistent_replanned"] = ep.replan
            ep.stats = stats
        stats = ep.stats
        if self.op == "read" and payload is None and engine.pfs.datastore is not None:
            payload = np.zeros(pattern.nbytes, dtype=np.uint8)
        return (
            yield from execute_collective(
                ctx, comm, engine.pfs, self._plan, self._views, stats, self.op,
                ("pc", self.pc_id, ep.index),
                payload=payload,
                failover_config=engine.config if engine.config.failover else None,
            )
        )

    def _delegate(self, ctx, ep: _Epoch, pattern, payload):
        fn = self.engine.write if self.op == "write" else self.engine.read
        result = yield from fn(ctx, pattern, payload)
        ep.returned += 1
        if ep.returned == self.comm.size:
            # the last rank back finalized the blocking run's stats on its
            # way out, and no other collective can finish without it
            hand_over(self.engine.history[-1], ep.decision)
        return result
