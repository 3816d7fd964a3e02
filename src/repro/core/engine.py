"""Shared two-phase execution machinery.

Both collective-I/O strategies (ROMIO baseline and MCIO) reduce to the
same runtime skeleton once planning is done: a list of
:class:`~repro.core.filedomain.FileDomain` assignments executed by SPMD
rank processes.  This module implements that skeleton.

Write (collective write = shuffle then I/O, per round):

* every rank clips its file view against each domain's current round
  window and sends the covered bytes to the domain's aggregator;
* the aggregator receives all contributions, assembles them into its
  aggregation buffer (a memory-system copy, paying the paging penalty if
  the buffer spilled), and writes the union of the requested extents to
  the parallel file system.

Read runs the phases in reverse.  Payloads are optional: with payloads
attached the data movement is byte-accurate and verifiable; without, only
sizes flow (metadata-only mode for large benchmark runs).

Round synchronisation.  ROMIO's ``ADIOI_Exch_and_write`` loops a global
``ntimes = max(rounds over aggregators)`` with an all-to-all exchange per
iteration, so every rank advances through buffer rounds in lockstep; a
slow aggregator (paged buffer, contended server) stalls *everyone* each
round.  Every per-rank collective reproduces exactly that in one
round loop, :func:`_run_rounds`: a lockstep run walks ``ntimes`` rounds
behind a barrier each and serves the PFS inside its round, and a
pipelined run walks half-sized windows the same way while each window's
PFS service runs behind the next window's shuffle.  The barrier
stands for the per-round count exchange, and a rank with nothing to
exchange pays no host time for it: the collective's
:class:`RoundIndex` lists each rank's busy rounds and their work, and
a rank idle from round t to u-1 arrives at all of those barriers at once
(:meth:`~repro.mpi.comm.SimComm.counted_barrier`) and wakes for the
release of round u-1, in the order a barrier per round would have woken
it.  A host failure wakes every sleeper at the next round boundary, so
failover still sees every rank there; while a host is down, ranks take
every round's barrier.

Every rank exchanges its own shuffle messages here: one protocol, one
message per (sender, aggregator, window).  Coalescing a node's traffic
into one wire transfer is a simulation-cost device, and it lives only in
the node-level driver (:mod:`repro.core.vectorized`).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from repro.core.failover import replace_failed_domains
from repro.core.filedomain import FileDomain, rounds_for
from repro.core.metrics import StatsCollector
from repro.core.pattern_array import FileViews, file_views
from repro.core.request import AccessPattern, Extent, window_union
from repro.mpi.comm import RankContext, SimComm
from repro.obs.tracer import PID_PIPELINE
from repro.pfs.filesystem import ParallelFileSystem

__all__ = ["ExecutionPlan", "execute_collective"]


@dataclass(frozen=True)
class ExecutionPlan:
    """Everything the runtime needs: domains plus per-domain sender lists,
    and each window's layout (senders, sizes, I/O pieces, each sender's
    clipped view), memoized on first use for every run of the plan."""

    domains: tuple[FileDomain, ...]
    #: ``senders[i]`` = ranks with data inside ``domains[i]``.
    senders: tuple[tuple[int, ...], ...]
    n_groups: int = 1

    def __post_init__(self) -> None:
        if len(self.domains) != len(self.senders):
            raise ValueError("domains and senders length mismatch")
        # (domain, window) -> each sender's byte count, shared by every
        # rank running this plan (the instance is shared across the
        # whole collective)
        object.__setattr__(self, "_windows", {})
        # (domain, window) -> its I/O pieces, and (domain, window, rank)
        # -> that sender's view clipped to it: a window's layout, derived
        # on first use and kept for every later epoch of the plan
        object.__setattr__(self, "_pieces", {})
        object.__setattr__(self, "_clips", {})
        # round indexes, built on the first per-rank lookup (the
        # vectorized driver never asks, so never pays for them)
        object.__setattr__(self, "_rounds", {})

    def window(
        self, did: int, lo: int, hi: int, views: FileViews
    ) -> tuple[list[int], dict[int, int]]:
        """``(senders, sizes)`` of window ``[lo, hi)`` of domain `did`:
        the ranks with bytes in it, ascending, and each one's byte count.
        Memoized and shared by every rank; callers must not mutate it."""
        key = (did, lo, hi)
        if key not in self._windows:
            self._memo_windows([key], views)
        return self._windows[key]

    def _memo_windows(self, windows, views: FileViews) -> None:
        """Fill the :meth:`window` memo for many ``(did, lo, hi)`` at once.

        One sweep over the views finds every window's senders, so a
        window costs the ranks with bytes in it, not its domain's senders.
        The windows are pairwise disjoint: they tile disjoint domains.
        """
        todo = [key for key in windows if key not in self._windows]
        found = views.senders_in_each([(lo, hi) for _, lo, hi in todo])
        for key, ranks in zip(todo, found):
            nbytes = views.bytes_in_many(ranks, key[1], key[2]).tolist()
            self._windows[key] = (list(ranks), dict(zip(ranks, nbytes)))

    def pieces(
        self, did: int, window: Extent, views: FileViews
    ) -> tuple[Extent, ...]:
        """The I/O pieces of `window` of domain `did`: the exact union of
        its senders' blocks in it (:func:`window_union`).  Memoized like
        :meth:`window`; failover moves aggregators, never extents or
        senders, so a plan's pieces stay valid for all its runs."""
        key = (did, window.offset, window.end)
        pieces = self._pieces.get(key)
        if pieces is None:
            senders = self.window(did, window.offset, window.end, views)[0]
            pieces = self._pieces[key] = tuple(
                window_union(views, senders, window)
            )
        return pieces

    def clip(
        self, did: int, window: Extent, rank: int, views: FileViews
    ) -> AccessPattern:
        """`rank`'s file view clipped to `window` of domain `did`,
        memoized like :meth:`pieces`."""
        key = (did, window.offset, window.end, rank)
        clipped = self._clips.get(key)
        if clipped is None:
            clipped = self._clips[key] = views[rank].clip(
                window.offset, window.end
            )
        return clipped

    def round_index(
        self,
        views: FileViews,
        half: bool = False,
        domains: Optional[Sequence[FileDomain]] = None,
    ) -> "RoundIndex":
        """Every rank's work per round, built once and shared by every
        rank of the collective.  `half` selects a pipelined run's
        half-sized windows; `domains` a failover's reassignment of the
        plan's domains (extents and buffers never move)."""
        key = (half, None if domains is None else tuple(domains))
        index = self._rounds.get(key)
        if index is None:
            index = self._rounds[key] = RoundIndex.build(
                self, self.domains if domains is None else domains, views, half
            )
        return index

    @classmethod
    def build(
        cls,
        domains: Sequence[FileDomain],
        patterns: Sequence[AccessPattern],
        n_groups: int = 1,
    ) -> "ExecutionPlan":
        """Derive sender lists from the ranks' file views.  Zero-length
        domains get no senders; overlapping domains are rejected (a byte
        must have exactly one aggregator)."""
        spans = sorted(
            (d.extent.offset, d.extent.end) for d in domains if d.extent.length
        )
        if any(nxt[0] < prev[1] for prev, nxt in zip(spans, spans[1:])):
            raise ValueError("execution plan domains overlap")
        senders = file_views(patterns).senders_in_each(
            [(d.extent.offset, d.extent.end) for d in domains]
        )
        return cls(tuple(domains), senders, n_groups)

    @property
    def aggregator_ranks(self) -> tuple[int, ...]:
        """Distinct aggregator ranks, sorted."""
        return tuple(sorted({d.aggregator_rank for d in self.domains}))

    @cached_property
    def ntimes(self) -> int:
        """Global round count (max over domains), ROMIO's ``ntimes``."""
        return max(
            (rounds_for(d.extent.length, d.buffer_bytes) for d in self.domains),
            default=0,
        )

    @cached_property
    def half_ntimes(self) -> int:
        """Sub-round count of the pipelined executor (half-sized windows)."""
        return max(
            (
                rounds_for(d.extent.length, (d.buffer_bytes + 1) // 2)
                for d in self.domains
            ),
            default=0,
        )


def round_window(
    domain: FileDomain, t: int, half: bool = False
) -> Optional[Extent]:
    """Window `t` of `domain`, or None past the domain's last one.

    A window is one aggregation buffer of the domain, or with `half` one
    of a pipelined run's two half-slots inside it.
    """
    width = (domain.buffer_bytes + 1) // 2 if half else domain.buffer_bytes
    lo = domain.extent.offset + t * width
    if lo >= domain.extent.end:
        return None
    return Extent(lo, min(domain.extent.end, lo + width) - lo)


#: The entry of a rank with no work in any round.
_IDLE: tuple = ((), (), ())


class RoundIndex:
    """Which rounds each rank works in, and on what.

    ``ranks[r]`` is rank r's entry ``(dids, rounds, work)``: the
    ascending ids of the domains it sends to or aggregates, its busy
    rounds ascending, and for each busy round the work items
    ``(did, window, aggregator?, nbytes)`` in spawn order — ascending
    domain id, the aggregator role before the member exchange, as a walk
    over every domain would spawn them.  Ranks without an entry never
    work.  Windows are shared by every rank that works on them.
    """

    __slots__ = ("ranks", "worked", "half")

    def __init__(self, ranks: dict, worked: int, half: bool):
        self.ranks = ranks
        #: Rounds below this have an aggregator with a window; past it
        #: (when every domain is empty) nobody works.
        self.worked = worked
        self.half = half

    def of(self, rank: int) -> tuple:
        """`rank`'s entry."""
        return self.ranks.get(rank, _IDLE)

    @classmethod
    def build(
        cls,
        plan: ExecutionPlan,
        domains: Sequence[FileDomain],
        views: FileViews,
        half: bool,
    ) -> "RoundIndex":
        dids: dict[int, list[int]] = defaultdict(list)
        # rank -> round -> items, appended in the walk's order: ascending
        # domain id, the aggregator role first
        work: dict[int, dict[int, list]] = defaultdict(lambda: defaultdict(list))
        windows = []
        for domain in domains:
            cuts = []
            while (window := round_window(domain, len(cuts), half)) is not None:
                cuts.append(window)
            windows.append(cuts)
        plan._memo_windows(
            [
                (did, w.offset, w.end)
                for did, cuts in enumerate(windows)
                for w in cuts
            ],
            views,
        )
        for did, domain in enumerate(domains):
            agg = domain.aggregator_rank
            dids[agg].append(did)
            for r in plan.senders[did]:
                mine = dids[r]
                if not mine or mine[-1] != did:
                    mine.append(did)
            for t, window in enumerate(windows[did]):
                work[agg][t].append((did, window, True, 0))
                senders, sizes = plan.window(did, window.offset, window.end, views)
                for r in senders:
                    work[r][t].append((did, window, False, sizes[r]))
        worked = max(map(len, windows), default=0)
        ranks = {}
        for rank, mine in dids.items():
            rounds = work.get(rank, {})
            busy = tuple(sorted(rounds))
            ranks[rank] = (
                tuple(mine), busy, tuple(tuple(rounds[t]) for t in busy)
            )
        return cls(ranks, worked, half)


def _pack_payload(
    pattern: AccessPattern, payload: np.ndarray, clipped: AccessPattern
) -> np.ndarray:
    """Gather the bytes of `clipped` (a sub-pattern) out of `payload`."""
    out = np.empty(clipped.nbytes, dtype=np.uint8)
    for off, ln, qbuf in clipped.iter_mapped_extents():
        src = pattern.buffer_position(off)
        out[qbuf : qbuf + ln] = payload[src : src + ln]
    return out


def _unpack_payload(
    pattern: AccessPattern,
    payload: np.ndarray,
    clipped: AccessPattern,
    packed: np.ndarray,
) -> None:
    """Scatter `packed` (bytes of `clipped`) back into `payload`."""
    for off, ln, qbuf in clipped.iter_mapped_extents():
        dst = pattern.buffer_position(off)
        payload[dst : dst + ln] = packed[qbuf : qbuf + ln]


class _RunContext:
    """Per-collective state shared by one rank's role coroutines."""

    __slots__ = (
        "ctx", "comm", "pfs", "plan", "views", "stats", "op", "op_seq",
        "payload", "node", "domains", "allocs", "paged_flags",
        "failover_config", "index", "mine",
    )

    def __init__(self, ctx, comm, pfs, plan, views, stats, op, op_seq, payload):
        self.ctx = ctx
        self.comm = comm
        self.pfs = pfs
        self.plan = plan
        self.views = views
        self.stats = stats
        self.op = op
        self.op_seq = op_seq
        self.payload = payload
        self.node = ctx.node
        #: Mutable view of the plan's domains: failover swaps aggregators
        #: here while the frozen plan keeps the original assignment.
        self.domains = list(plan.domains)
        #: This rank's live aggregation-buffer allocations, by domain id.
        self.allocs: dict[int, object] = {}
        self.paged_flags: dict[int, bool] = {}
        self.failover_config = None
        #: The collective's :class:`RoundIndex` for `domains`, and this
        #: rank's entry of it; a failover move rebinds both.
        self.index: Optional[RoundIndex] = None
        self.mine: tuple = _IDLE

    def bind_rounds(self, half: bool, moved: bool = False) -> None:
        """Look up the shared round index of the current domains."""
        self.index = self.plan.round_index(
            self.views, half, self.domains if moved else None
        )
        self.mine = self.index.of(self.ctx.rank)


def _walk(run: _RunContext) -> tuple[int, ...]:
    """Ascending ids of the domains this rank sends to or aggregates,
    from its entry of the round index."""
    return run.mine[0]


def _round_work(run: _RunContext, t: int, ntimes: int):
    """``(items, next)``: this rank's work items in round `t` (None when
    it is idle there) and its first busy round at or after `t`, or
    ``ntimes`` when there is none."""
    _, rounds, work = run.mine
    i = bisect_left(rounds, t)
    if i == len(rounds):
        return None, ntimes
    if rounds[i] == t:
        return work[i], t
    return None, rounds[i]


def _sleep_rounds(run: _RunContext, t: int, stop: int):
    """Process generator: pass idle rounds ``t..stop-1`` of this rank;
    returns the round it resumes at.

    One counted barrier covers the whole stretch.  While a host is down
    the stretch is one round, so every round boundary sees this rank
    (the failover check runs there).  Past the last round with any work
    nobody is left to arrive late, so those barriers are plain.
    """
    comm, ctx = run.comm, run.ctx
    worked = run.index.worked
    if t >= worked:
        yield from comm.barrier(ctx)
        return t + 1
    if comm.cluster.any_failed:
        count = 1
    else:
        count = min(stop, worked) - t
    return t + (yield from comm.counted_barrier(ctx, count))


def execute_collective(
    ctx: RankContext,
    comm: SimComm,
    pfs: ParallelFileSystem,
    plan: ExecutionPlan,
    patterns: Sequence[AccessPattern],
    stats: StatsCollector,
    op: str,
    op_seq: int,
    payload: Optional[np.ndarray] = None,
    failover_config=None,
):
    """Process generator: one rank's role in a planned collective op.

    The driver is the collective's path decision,
    ``stats.path.driver``: ``"pipelined"`` walks half-sized windows and
    overlaps each window's shuffle with the previous window's PFS
    service inside the planned buffers (draining and arming failover
    when a host fails mid-run); anything else runs ROMIO's lockstep
    rounds.  Both walk the same round loop, :func:`_run_rounds`.

    Parameters
    ----------
    ctx:
        The calling rank's context.
    comm, pfs:
        Runtime substrates.
    plan:
        The strategy's output (identical on every rank).
    patterns:
        All ranks' file views (from the planning allgather).
    stats:
        Shared collector.
    op:
        ``"write"`` or ``"read"``.
    op_seq:
        Engine-level sequence number, namespacing message tags.
    payload:
        This rank's data buffer (write: source, read: destination), or
        None for metadata-only runs.
    failover_config:
        An :class:`~repro.core.config.MCIOConfig` to enable mid-run
        aggregator failover (between rounds; a pipelined run arms it
        when it degrades), or None for fault-oblivious execution.  With
        no failed hosts the check adds no simulation events, so
        fault-free timing is unchanged.

    Returns
    -------
    The rank's payload (reads fill it in place), or None.
    """
    if op not in ("write", "read"):
        raise ValueError(f"op must be 'write' or 'read', got {op!r}")
    env = ctx.env
    stats.mark_start(env.now)
    stats.record_attempt()
    run = _RunContext(
        ctx, comm, pfs, plan, file_views(patterns), stats, op, op_seq, payload
    )
    run.bind_rounds(half=stats.path.driver == "pipelined")

    tracer = env.tracer
    pid = comm.placement[ctx.rank]
    if tracer.enabled:
        tracer.begin(
            "collective", f"collective.{op}", pid, ctx.rank,
            strategy=stats.strategy, seq=op_seq, path=stats.path.driver,
        )
    try:
        # allocate this rank's aggregation buffers for the whole operation
        for did in _walk(run):
            domain = run.domains[did]
            if domain.aggregator_rank != ctx.rank:
                continue
            _alloc_aggregator_buffer(run, did, domain)
            stats.record_rounds(
                rounds_for(domain.extent.length, domain.buffer_bytes)
            )

        try:
            yield from _run_rounds(run, failover_config)
        finally:
            for alloc in run.allocs.values():
                ctx.node.memory.free(alloc)
            run.allocs.clear()
        yield from comm.barrier(ctx)
        stats.mark_end(env.now)
    finally:
        if tracer.enabled:
            tracer.end(pid, ctx.rank)
    return payload


def _alloc_aggregator_buffer(run: _RunContext, did: int, domain: FileDomain):
    """Commit this rank's aggregation buffer for `domain` and record it."""
    ctx = run.ctx
    alloc = ctx.node.memory.alloc(
        domain.buffer_bytes, label=f"cb.{run.op_seq}.{did}"
    )
    run.allocs[did] = alloc
    paged = alloc.paged or domain.paged
    run.paged_flags[did] = paged
    overcommit = max(0, ctx.node.memory.committed - ctx.node.memory.available)
    run.stats.record_aggregator(ctx.rank, domain.buffer_bytes, paged, overcommit)
    return paged


# ---------------------------------------------------------------------------
# the round loop (ROMIO's ntimes loop)
# ---------------------------------------------------------------------------
def _run_rounds(run: _RunContext, failover_config):
    """Walk the collective's rounds: exchange, then serve the PFS, behind
    one barrier per round.

    A lockstep run (full-sized round index) serves each window inline,
    with `failover_config` armed from round 0.  A pipelined run
    (``index.half``) is memory-conscious double buffering: each
    aggregator splits its *planned* aggregation buffer into two
    half-sized slots and walks the domain in half-windows, so two
    windows are in flight inside the footprint the planner already
    budgeted — nothing extra is committed against node memory.  Each
    half-window's PFS service (drain to / prefetch from the OSTs) runs
    as a background process across the round barrier; window t lands in
    slot ``t % 2`` and waits for the service of window t-2 before reusing
    it, so only the tail window's service is exposed.  Bytes, message
    totals and the planned round count are those of the lockstep run.

    A host failure noticed at a pipelined round boundary degrades the
    rest of the run in place: in-flight write drains are awaited
    (already-prefetched read windows are consumed, never re-read),
    `failover_config` is armed so :func:`_failover_check` guards the
    remaining rounds, and each remaining window is served without
    overlap — the lockstep behaviour, at half-window granularity.
    """
    ctx, comm = run.ctx, run.comm
    env = ctx.env
    tracer = env.tracer
    pid = comm.placement[ctx.rank]
    # the aggregator's half of a round: gather + write, or read + scatter
    role = _collect_and_write if run.op == "write" else _read_and_scatter
    if run.index.half:
        ntimes = run.plan.half_ntimes
        #: (did, window) -> in-flight background PFS-service process
        service: Optional[dict] = {}
    else:
        ntimes = run.plan.ntimes
        service = None
        run.failover_config = failover_config
    degraded = False
    t = 0
    while t < ntimes:
        if service is not None and not degraded and comm.cluster.any_failed:
            # drain the in-flight windows, then run the rest of the
            # operation without overlap, with failover
            degraded = True
            run.failover_config = failover_config
            if run.op == "write":
                yield from _await_service(env, service)
                service.clear()
            run.stats.extra.setdefault("pipeline_drained_at", t)
        if run.failover_config is not None:
            yield from _failover_check(run, t)
        items, nxt = _round_work(run, t, ntimes)
        if items is None:
            t = yield from _sleep_rounds(run, t, nxt)
            continue
        if tracer.enabled:
            tracer.begin("shuffle", "shuffle.round", pid, ctx.rank, round=t)
        try:
            procs = []
            for did, window, aggregates, nbytes in items:
                if aggregates:
                    gen = role(run, did, window, t, service, degraded)
                    name = f"rank{ctx.rank}.agg{did}.r{t}"
                else:
                    gen = _member_exchange(run, did, window, t, nbytes)
                    name = f"rank{ctx.rank}.m{did}.r{t}"
                procs.append(ctx.spawn(gen, name=name))
            yield env.all_of(procs)
            # ROMIO's per-round synchronisation: the exchange of the next
            # round cannot start before everyone finished this one
            yield from comm.barrier(ctx)
        finally:
            if tracer.enabled:
                tracer.end(pid, ctx.rank, round=t)
        t += 1
    if service:
        # tail: the last windows' PFS service is still in flight
        yield from _await_service(env, service)


def _await_service(env, service: dict):
    """Process generator: wait for every unfinished background stage."""
    pending = [p for p in service.values() if not p.triggered]
    if pending:
        yield env.all_of(pending)


def _failover_check(run: _RunContext, t: int):
    """Between-rounds failover: re-place domains whose host failed.

    Every rank reaches a round boundary at the same simulated instant
    (the preceding barrier guarantees it), reads the same cluster state,
    and therefore takes the same branch: either all ranks return
    immediately (no failed aggregator hosts — no events created, so the
    fault-free schedule is untouched), or all ranks join a memory
    allgather (charging the re-coordination time) and compute an
    identical replacement via :func:`replace_failed_domains`.
    """
    ctx, comm = run.ctx, run.comm
    # the cluster-level health gate keeps the fault-free check O(1); only
    # with a host down does any rank look at its domains' aggregators
    if not comm.cluster.any_failed or not any(
        comm.node_of_rank(d.aggregator_rank).failed for d in run.domains
    ):
        return
    failed_nodes = comm.cluster.failed_node_ids
    # fresh memory snapshot: identical values on every rank, and the
    # allgather itself charges the failover's coordination cost
    mem_pairs = yield from comm.allgather(
        ctx, (ctx.node.node_id, ctx.node.memory.free_available), nbytes=16
    )
    memory_available: dict[int, int] = {}
    for node_id, avail in mem_pairs:
        memory_available.setdefault(node_id, avail)
    decision = replace_failed_domains(
        run.domains,
        run.views,
        comm.placement,
        memory_available,
        run.failover_config,
        failed_nodes,
    )
    previous = {did: run.domains[did] for did in decision.moved}
    for did, old in previous.items():
        if old.aggregator_rank == ctx.rank and did in run.allocs:
            ctx.node.memory.free(run.allocs.pop(did))
            run.paged_flags.pop(did, None)
        run.domains[did] = decision.domains[did]
    if previous:
        run.bind_rounds(run.index.half, moved=True)
        # adopt the moved domains this rank now aggregates
        for did in _walk(run):
            old = previous.get(did)
            new = run.domains[did]
            if old is not None and new.aggregator_rank == ctx.rank:
                _alloc_aggregator_buffer(run, did, new)
                run.stats.record_failover()
                run.stats.extra.setdefault("failover_rounds", []).append(t)
                run.stats.extra.setdefault("failover_targets", []).append(
                    new.aggregator_rank
                )
                tracer = ctx.env.tracer
                if tracer.enabled:
                    tracer.instant(
                        "failover", "failover.move",
                        comm.placement[ctx.rank], ctx.rank,
                        domain=did, round=t, from_rank=old.aggregator_rank,
                    )
    if decision.kept and ctx.rank == 0:
        run.stats.extra["failover_kept"] = (
            run.stats.extra.get("failover_kept", 0) + len(decision.kept)
        )


# ---------------------------------------------------------------------------
# member side
# ---------------------------------------------------------------------------
def _member_exchange(
    run: _RunContext, did: int, window: Extent, tag_round: int, nbytes: int
):
    """Send (write) or receive (read) this rank's `nbytes` of `window`.

    The rank's view is clipped to the window only when payload bytes
    travel; a metadata-only message needs nothing but its size.
    """
    ctx, comm = run.ctx, run.comm
    domain = run.domains[did]
    agg = domain.aggregator_rank
    same_node = comm.node_id_of_rank(agg) == comm.node_id_of_rank(ctx.rank)
    tag = (run.op_seq, did, tag_round)
    if run.op == "write":
        data = None
        if run.payload is not None:
            data = _pack_payload(
                run.views[ctx.rank], run.payload,
                run.plan.clip(did, window, ctx.rank, run.views),
            )
        run.stats.record_shuffle(nbytes, same_node=same_node)
        # physical effect, not a planning decision: if the aggregator's
        # node is overcommitted, inbound data lands at paging speed
        agg_node = comm.node_of_rank(agg)
        paged_wire = domain.paged or agg_node.memory.overcommitted
        yield from comm.send(
            ctx, agg, nbytes, tag=tag, payload=data, paged_dst=paged_wire
        )
    else:
        msg = yield from comm.recv(ctx, source=agg, tag=tag)
        run.stats.record_shuffle(msg.nbytes, same_node=same_node)
        if run.payload is not None and msg.payload is not None:
            _unpack_payload(
                run.views[ctx.rank], run.payload,
                run.plan.clip(did, window, ctx.rank, run.views), msg.payload,
            )


# ---------------------------------------------------------------------------
# aggregator side
# ---------------------------------------------------------------------------
def _gather_window(run: _RunContext, did: int, window: Extent, t: int):
    """Receive each expected sender's slice of `window`.

    Returns ``(buffer, received)``: the assembled window (None when no
    payload bytes travel) and the total bytes received.
    """
    ctx, comm = run.ctx, run.comm
    senders = run.plan.window(did, window.offset, window.end, run.views)[0]
    buffer: Optional[np.ndarray] = None
    received = 0
    for _ in range(len(senders)):
        msg = yield from comm.recv(ctx, tag=(run.op_seq, did, t))
        received += msg.nbytes
        if msg.payload is None:
            continue
        if buffer is None:
            buffer = np.zeros(window.length, dtype=np.uint8)
        q = run.plan.clip(did, window, msg.source, run.views)
        for off, ln, qbuf in q.iter_mapped_extents():
            rel = off - window.offset
            buffer[rel : rel + ln] = msg.payload[qbuf : qbuf + ln]
    return buffer, received


def _scatter_window(
    run: _RunContext, did: int, window: Extent, t: int,
    buffer: Optional[np.ndarray], paged: bool,
):
    """Send each expected rank its slice of `window`, one message apiece."""
    ctx, comm = run.ctx, run.comm
    lo = window.offset
    senders, sizes = run.plan.window(did, lo, window.end, run.views)
    sends = []
    for r in senders:
        nbytes = sizes[r]
        data = None
        if buffer is not None:
            data = np.empty(nbytes, dtype=np.uint8)
            q = run.plan.clip(did, window, r, run.views)
            for off, ln, qbuf in q.iter_mapped_extents():
                rel = off - lo
                data[qbuf : qbuf + ln] = buffer[rel : rel + ln]
        sends.append(
            comm.isend(
                ctx, r, nbytes, tag=(run.op_seq, did, t),
                payload=data, paged_dst=paged,
            )
        )
    if sends:
        yield ctx.env.all_of(sends)


def _collect_and_write(
    run: _RunContext, did: int, window: Extent, t: int,
    service: Optional[dict], degraded: bool,
):
    """Receive all contributions for `window`, assemble, write to the PFS.

    `service` is None in a lockstep run; in a pipelined one the write
    runs as a background drain (:func:`_run_rounds`) unless `degraded`.
    """
    ctx = run.ctx
    if service is not None:
        # double buffering: window t reuses the slot window t-2 drained from
        prev = service.pop((did, t - 2), None)
        if prev is not None:
            yield prev
    buffer, received = yield from _gather_window(run, did, window, t)
    if received == 0:
        return
    # assemble the collective buffer: off-chip memory traffic, throttled
    # for paged buffers (a pipelined run's two half-slots both live
    # inside the planned buffer)
    yield from run.node.memcopy(received, paged=run.paged_flags[did])

    pieces = run.plan.pieces(did, window, run.views)
    if service is None or degraded:
        yield from _write_pieces(run, did, window, t, buffer, pieces)
        return
    _count_overlap(run)
    service[(did, t)] = ctx.spawn(
        _write_pieces(run, did, window, t, buffer, pieces),
        name=f"rank{ctx.rank}.drain{did}.r{t}",
    )


def _read_and_scatter(
    run: _RunContext, did: int, window: Extent, t: int,
    service: Optional[dict], degraded: bool,
):
    """Read `window`'s requested extents, then send each rank its bytes.

    `service` is None in a lockstep run, which reads inline.  A pipelined
    run reads each window in a spawned prefetch process, and unless
    `degraded` starts the next window's prefetch into the other slot
    before scattering this one.  A window's bytes count here, where it
    is consumed, so a prefetch that failover orphans counts nothing.
    """
    ctx = run.ctx
    if service is None:
        buffer, pieces = yield from _read_window(run, did, window, t)
    else:
        pf = service.pop((did, t), None)
        if pf is None:
            # the first window, or degraded mode: fetch this window now
            pf = ctx.spawn(
                _read_window(run, did, window, t),
                name=f"rank{ctx.rank}.pf{did}.r{t}",
            )
        yield pf
        buffer, pieces = pf.value
        nxt = None if degraded else round_window(run.domains[did], t + 1, half=True)
        if nxt is not None and (did, t + 1) not in service:
            # the OST reads of the next window run behind this scatter
            _count_overlap(run)
            service[(did, t + 1)] = ctx.spawn(
                _read_window(run, did, nxt, t + 1),
                name=f"rank{ctx.rank}.pf{did}.r{t + 1}",
            )
    total_read = 0
    for piece in pieces:
        total_read += piece.length
        run.stats.record_bytes(piece.length)
        run.stats.record_io_extent(piece.offset, piece.length)
    if total_read == 0:
        return
    paged = run.paged_flags[did]
    # stage the buffer through the memory system before scattering
    yield from run.node.memcopy(total_read, paged=paged)
    yield from _scatter_window(run, did, window, t, buffer, paged)


def _count_overlap(run: _RunContext) -> None:
    """Count one PFS stage started behind the shuffle."""
    run.stats.extra["pipeline_overlapped"] = (
        run.stats.extra.get("pipeline_overlapped", 0) + 1
    )


def _write_pieces(
    run: _RunContext, did: int, window: Extent, t: int,
    buffer: Optional[np.ndarray], pieces,
):
    """Write `pieces` of `window` (bytes from `buffer`) to the PFS."""
    tracer = run.ctx.env.tracer
    t0 = tracer.now() if tracer.enabled else 0.0
    for piece in pieces:
        data = None
        if buffer is not None:
            rel = piece.offset - window.offset
            data = buffer[rel : rel + piece.length]
        yield from run.pfs.write_extent(run.node, piece, data)
        run.stats.record_bytes(piece.length)
        run.stats.record_io_extent(piece.offset, piece.length)
    if run.index.half and tracer.enabled:
        _overlap_span(run, did, t, t0, "drain", sum(p.length for p in pieces))


def _read_window(run: _RunContext, did: int, window: Extent, t: int):
    """Process generator: read `window`'s requested extents; returns
    ``(buffer, pieces read)`` (buffer None without a datastore)."""
    tracer = run.ctx.env.tracer
    t0 = tracer.now() if tracer.enabled else 0.0
    pieces = run.plan.pieces(did, window, run.views)
    if not pieces:
        return None, ()
    pfs = run.pfs
    buffer: Optional[np.ndarray] = (
        np.zeros(window.length, dtype=np.uint8) if pfs.datastore is not None else None
    )
    for piece in pieces:
        data = yield from pfs.read_extent(run.node, piece)
        if buffer is not None and data is not None:
            rel = piece.offset - window.offset
            buffer[rel : rel + piece.length] = data
    if run.index.half and tracer.enabled:
        _overlap_span(
            run, did, t, t0, "prefetch", sum(p.length for p in pieces)
        )
    return buffer, pieces


def _overlap_span(
    run: _RunContext, did: int, t: int, t0: float, stage: str, nbytes: int
):
    """Trace a pipelined run's PFS stage of window `t` on its slot's track."""
    tracer = run.ctx.env.tracer
    rank = run.ctx.rank
    tracer.complete(
        "pipeline", "pipeline.overlap", PID_PIPELINE,
        rank * 2 + (t % 2), t0, tracer.now() - t0,
        stage=stage, rank=rank, domain=did, window=t, bytes=nbytes,
    )
