"""Memory-Conscious Collective I/O — the paper's contribution (§3).

The planning pipeline mirrors Figure 3's four components:

1. **Aggregation Group Division** (:mod:`repro.core.group_division`) —
   the workload splits into disjoint groups; shuffle traffic stays inside
   a group.
2. **I/O Workload Partition** (:mod:`repro.core.partition_tree`) — each
   group's region is recursively bisected into file domains carrying at
   most ``Msg_ind`` requested bytes.
3. **Workload Portions Remerging** — domains whose hosts lack memory are
   merged with their neighbours (driven from inside the placer).
4. **Aggregators Location** (:mod:`repro.core.aggregator_selection`) —
   per domain, the candidate host with maximum available memory wins,
   subject to ``N_ah`` and ``Mem_min``.

Planning inputs that differ from the baseline: each rank contributes its
node's *available memory* to an allgather, so the plan reacts to the
run-time memory state — "determines I/O aggregators at run time
considering memory consumption and variance among processes".

Execution is the shared machinery in :mod:`repro.core.engine`.
"""

from __future__ import annotations

from dataclasses import replace as _cfg_replace
from time import perf_counter
from typing import Optional, Sequence

import numpy as np

from repro.core.aggregator_selection import PlacementError, place_aggregators
from repro.core.borrow import BorrowDegraded, BorrowSession
from repro.core.config import MCIOConfig
from repro.core.engine import ExecutionPlan, execute_collective
from repro.core.filedomain import FileDomain, even_domains
from repro.core.group_division import divide_groups
from repro.core.metrics import CollectiveStats, StatsCollector
from repro.core.partition_tree import PartitionTree
from repro.core.pattern_array import FileViewIndex, FileViews, file_views
from repro.core.plan_cache import PlanCache
from repro.core.request import AccessPattern
from repro.core.two_phase import default_aggregators
from repro.mpi.comm import RankContext, SimComm
from repro.obs.tracer import PID_PLANNER
from repro.pfs.filesystem import ParallelFileSystem
from repro.sim.subscribers import Subscribers

__all__ = ["MemoryConsciousCollectiveIO"]


def _proportional_rebalance(domains, stripe_size: int = 0):
    """Re-slice one group's region so domain size tracks buffer size.

    Two-phase execution advances all aggregators in lockstep
    (ROMIO's ``ntimes = max rounds``), so a memory-starved aggregator
    with a small buffer and a big domain stalls everyone in a long tail.
    Giving each aggregator file span proportional to its aggregation
    buffer (paged buffers discounted by the paging slowdown) equalizes
    per-domain round counts — the memory-conscious counterpart of
    ROMIO's even split.

    `domains` must be one group's domains in file order (they tile the
    group's region); aggregator assignments, buffers, and paged flags are
    preserved.
    """
    from dataclasses import replace as _replace

    from repro.core.request import Extent

    if len(domains) <= 1:
        return list(domains)
    lo = domains[0].extent.offset
    hi = domains[-1].extent.end
    span = hi - lo
    weights = [
        d.buffer_bytes * (0.25 if d.paged else 1.0) for d in domains
    ]
    total_weight = sum(weights)
    out = []
    pos = lo
    acc = 0.0
    for i, d in enumerate(domains):
        acc += weights[i]
        if i == len(domains) - 1:
            end = hi
        else:
            end = lo + int(span * acc / total_weight)
            if stripe_size > 1:
                end = (end // stripe_size) * stripe_size
            end = min(max(end, pos + 1), hi - (len(domains) - 1 - i))
        out.append(_replace(d, extent=Extent(pos, end - pos)))
        pos = end
    return out


class MemoryConsciousCollectiveIO:
    """The memory-conscious collective I/O strategy.

    Usage is identical to
    :class:`~repro.core.two_phase.TwoPhaseCollectiveIO`; only planning
    differs.
    """

    name = "mcio"

    def __init__(
        self,
        comm: SimComm,
        pfs: ParallelFileSystem,
        config: Optional[MCIOConfig] = None,
        tenant: Optional[str] = None,
    ):
        self.comm = comm
        self.pfs = pfs
        self.config = config if config is not None else MCIOConfig()
        #: Owning job's identity when several engines share one cluster
        #: (see :mod:`repro.tenancy`).  Leases this engine grants are
        #: tagged with it, and lease events from *other* tenants' tagged
        #: leases neither drop this engine's plan cache nor stale its
        #: persistent handles.  None (the default) preserves the
        #: single-job behaviour: every lease event invalidates.
        self.tenant = tenant
        self._rank_seq: dict[int, int] = {}
        #: Floor for freshly seen ranks' sequence numbers: a vectorized
        #: collective consumes one sequence slot for *all* ranks at once
        #: (see :meth:`_advance_seq`), so later per-rank operations must
        #: not collide with it.
        self._seq_floor = 0
        #: Fault injectors wired via :meth:`watch_faults`; a non-empty
        #: schedule on any of them makes the planner refuse vectorization.
        self._fault_injectors: list = []
        #: One-shot refusal reason consumed by the next collector built:
        #: set by the vectorized driver right before it falls back to the
        #: per-rank path, so the fallback's stats carry the refusal.
        self._pending_vec_refusal: Optional[str] = None
        #: Per-operation state, keyed by sequence number and dropped by
        #: the last rank out: the gathered views' index, the plan, the
        #: collector.
        self._views: dict[int, FileViewIndex] = {}
        self._plans: dict = {}
        self._stats: dict[int, StatsCollector] = {}
        #: Per-operation shared lease state (None for lease-free plans).
        self._borrows: dict = {}
        #: Optional :class:`~repro.core.audit.ConservationAuditor`; when
        #: set (via its ``attach``), every operation's collector reports
        #: attempts/extents to it and finalize hands it the final stats.
        self.auditor = None
        #: Finalized stats of completed operations, in call order.
        self.history: list[CollectiveStats] = []
        #: Signature-keyed reuse of finished plans (see
        #: :mod:`repro.core.plan_cache`); disabled unless
        #: ``config.plan_cache`` opts in.
        self.plan_cache = PlanCache(enabled=self.config.plan_cache)
        self.plan_cache.tenant = tenant
        if self.plan_cache.enabled:
            # lease grants/revocations change where aggregation buffers
            # live, so plans cached against the old lease set are stale
            self.comm.cluster.memory_ledger.add_listener(
                self.plan_cache.on_lease_event
            )
        #: Callbacks fired when externally frozen plans go stale (see
        #: :meth:`add_invalidation_listener`); persistent collectives
        #: subscribe here so lease churn, faults, and failover force a
        #: re-plan at their next ``start()``.
        self._invalidation_listeners = Subscribers()
        self.comm.cluster.memory_ledger.add_listener(self._on_lease_event)
        #: Partition-tree evaluations performed by the most recent
        #: :meth:`plan` call (0 when the plan came from the cache).
        self.last_plan_tree_queries = 0

    # ------------------------------------------------------------------
    def watch_faults(self, injector) -> None:
        """Invalidate cached plans on every fault apply/revert.

        Wire any :class:`~repro.faults.injector.FaultInjector` driving
        this engine's cluster or file system: plans were built against a
        platform state a fault just changed (memory shock, node failure,
        server health), so reuse would be unsound.
        """
        injector.add_listener(self.plan_cache.on_fault_event)
        injector.add_listener(self._on_fault_event)
        self._fault_injectors.append(injector)

    # ------------------------------------------------------------------
    def add_invalidation_listener(self, fn) -> None:
        """Register ``fn(reason)`` to fire whenever frozen plans go stale.

        Fires on lease grant/revoke/expire, fault apply/revert (for
        injectors wired via :meth:`watch_faults`), and mid-run aggregator
        failover.  :class:`~repro.core.persistent.PersistentCollective`
        handles use this to drop their frozen plan and re-plan at the
        next ``start()``.  A bound method is held weakly: a handle
        that is dropped without :meth:`free` stops being notified
        instead of being kept alive by the engine.
        """
        self._invalidation_listeners.add(fn)

    def remove_invalidation_listener(self, fn) -> None:
        """Unregister a callback added by :meth:`add_invalidation_listener`."""
        self._invalidation_listeners.remove(fn)

    def _notify_plan_invalidation(self, reason: str) -> None:
        self._invalidation_listeners.notify(reason)

    def _on_lease_event(self, lease, event) -> None:
        # renew/release keep the buffer map intact; only grants and
        # losses move memory between hosts
        if event not in ("grant", "revoke", "expire"):
            return
        # another tenant's tagged lease changes *its* buffer map, not
        # ours: the memory it pins reaches our next plan through the
        # lenders' committed bytes, so staling our frozen plans for it
        # would be pure cross-tenant bleed
        lease_tenant = getattr(lease, "tenant", None)
        if (
            self.tenant is not None
            and lease_tenant is not None
            and lease_tenant != self.tenant
        ):
            return
        self._notify_plan_invalidation(f"lease-{event}")

    def _on_fault_event(self, event, phase) -> None:
        self._notify_plan_invalidation(f"fault-{phase}")

    # ------------------------------------------------------------------
    def write(self, ctx: RankContext, pattern: AccessPattern,
              payload: Optional[np.ndarray] = None):
        """Process generator: collective write of this rank's view."""
        return (yield from self._collective(ctx, pattern, payload, "write"))

    def read(self, ctx: RankContext, pattern: AccessPattern,
             payload: Optional[np.ndarray] = None):
        """Process generator: collective read; fills and returns `payload`."""
        if payload is None and self.pfs.datastore is not None:
            payload = np.zeros(pattern.nbytes, dtype=np.uint8)
        return (yield from self._collective(ctx, pattern, payload, "read"))

    # ------------------------------------------------------------------
    def _next_seq(self, rank: int) -> int:
        seq = self._rank_seq.get(rank, self._seq_floor)
        self._rank_seq[rank] = seq + 1
        return seq

    def _advance_seq(self) -> int:
        """Claim one sequence slot on behalf of every rank at once.

        The vectorized driver runs a whole collective without per-rank
        coroutines, so no rank's counter ticks; this takes the next free
        slot past anything any rank has used and raises the floor so a
        later per-rank collective starts beyond it.
        """
        seq = max(
            self._seq_floor,
            max(self._rank_seq.values(), default=self._seq_floor),
        )
        self._rank_seq.clear()
        self._seq_floor = seq + 1
        return seq

    def _collective(self, ctx, pattern, payload, op):
        if payload is not None and len(payload) != pattern.nbytes:
            raise ValueError(
                f"payload {len(payload)} B != pattern {pattern.nbytes} B"
            )
        seq = self._next_seq(ctx.rank)
        meta_bytes = 32 * (1 + pattern.segment_count)
        patterns = yield from self.comm.allgather(ctx, pattern, nbytes=meta_bytes)
        # run-time memory snapshot: each rank reports its node's available
        # memory net of current commitments, plus the node's health
        mem_state = yield from self.comm.allgather(
            ctx,
            (ctx.node.node_id, ctx.node.memory.free_available, ctx.node.failed),
            nbytes=16,
        )
        views, plan, stats, borrow = self._prepare(seq, patterns, mem_state, op)
        if plan is None:
            # last tier of the fallback chain: uncoordinated independent I/O
            result = yield from self._independent_tier(ctx, pattern, payload, op, stats)
        else:
            try:
                result = yield from execute_collective(
                    ctx, self.comm, self.pfs, plan, views, stats, op, seq,
                    payload=payload, granularity=self.config.shuffle_granularity,
                    failover_config=self.config if self.config.failover else None,
                    borrow=borrow,
                )
            except BorrowDegraded:
                # every rank raises at the same round boundary (after
                # lease teardown); re-enter the normal degradation chain
                # with borrowing disabled
                result = yield from self._borrow_fallback(
                    ctx, pattern, payload, op, seq, views, stats
                )
        self._finish(seq, ctx)
        return result

    def _prepare(self, seq, patterns, mem_state, op):
        """Index the gathered views and plan, once per collective: the
        first-arriving rank does the work, every rank shares the result."""
        if seq not in self._plans:
            # the cache has no environment of its own: point it at the
            # live tracer so hit/miss/invalidate instants land in-trace
            self.plan_cache.tracer = self.comm.env.tracer
            views = self._views[seq] = FileViewIndex(patterns)
            memory_available = {}
            failed_nodes = set()
            for node_id, avail, failed in mem_state:
                memory_available.setdefault(node_id, avail)
                if failed:
                    failed_nodes.add(node_id)
            (plan, tier, reason), cached = self._plan_or_reuse(
                views, memory_available, frozenset(failed_nodes)
            )
            self._plans[seq] = plan
            self._stats[seq] = self._make_collector(op, plan, tier, reason, cached)
            borrowed = plan is not None and any(
                d.lender_node is not None for d in plan.domains
            )
            # lease-free plans get no session at all: the borrow machinery
            # must not perturb never-triggered runs
            self._borrows[seq] = (
                BorrowSession(
                    self.comm.cluster.memory_ledger, self.config, seq,
                    tenant=self.tenant,
                )
                if borrowed
                else None
            )
        return (
            self._views[seq], self._plans[seq], self._stats[seq],
            self._borrows[seq],
        )

    def _make_collector(self, op, plan, tier, reason, cached) -> StatsCollector:
        """Build one operation's collector (shared with the vectorized driver)."""
        collector = StatsCollector(self.name, op, n_ranks=self.comm.size)
        collector.n_groups = plan.n_groups if plan is not None else 1
        collector.set_tier(tier)
        collector.attach_pfs(self.pfs)
        collector.record_plan_cache(
            cached,
            cache_stats=self.plan_cache.stats,
            tree_queries=0 if cached else self.last_plan_tree_queries,
        )
        if reason is not None:
            collector.extra["fallback_reason"] = reason
        if self.auditor is not None:
            collector.auditor = self.auditor
        pending = self._pending_vec_refusal
        if pending is not None:
            self._pending_vec_refusal = None
            collector.record_vectorized_refusal(pending)
        return collector

    def _plan_or_reuse(self, patterns, memory_available, failed_nodes):
        """Plan via the cache: returns ``((plan, tier, reason), cached)``.

        The memory snapshot is normalised (every cluster node present)
        exactly like :meth:`plan` does before the bucket digest is taken,
        so digest and planner see the same state.
        """
        cache = self.plan_cache
        if not cache.enabled:
            entry = self._plan_with_fallback(
                patterns, memory_available, failed_nodes
            )
            return entry, False
        for node in self.comm.cluster.nodes:
            memory_available.setdefault(node.node_id, node.memory.free_available)
        stripe = self.pfs.layout.stripe_size if self.config.stripe_align else 0
        key = cache.signature(
            patterns, self.config, failed_nodes, stripe,
            lease_digest=self.comm.cluster.memory_ledger.digest(
                tenant=self.tenant
            ),
        )
        digest = (
            ()
            if self.config.memory_oblivious
            else cache.memory_digest(memory_available, self.config)
        )
        entry = cache.lookup(key, digest)
        if entry is not None:
            return entry, True
        entry = self._plan_with_fallback(patterns, memory_available, failed_nodes)
        cache.store(key, digest, entry)
        return entry, False

    def _independent_tier(self, ctx, pattern, payload, op, stats):
        """Process generator: serve the collective as independent I/O."""
        stats.mark_start(ctx.env.now)
        stats.record_attempt()
        if op == "write":
            yield from self.pfs.write_pattern(ctx.node, pattern, payload)
            result = payload
        else:
            data = yield from self.pfs.read_pattern(ctx.node, pattern)
            if payload is not None and data is not None:
                payload[:] = data
                data = payload
            result = data
        stats.record_bytes(pattern.nbytes)
        for file_off, length, _buf_off in pattern.iter_mapped_extents():
            stats.record_io_extent(file_off, length)
        # preserve collective-call semantics: no rank leaves early
        yield from self.comm.barrier(ctx)
        return result

    def _borrow_fallback(self, ctx, pattern, payload, op, seq, views, stats):
        """Process generator: re-run a degraded borrowed collective.

        Every rank arrives here at the same sim instant (the abort round's
        boundary).  A fresh memory/health allgather feeds the normal
        degradation chain with ``placement_policy`` forced to
        ``"remerge"``, so the retry re-enters MCIO → two-phase →
        independent exactly as a memory-pressured plan would — no second
        borrow attempt inside the same operation.
        """
        mem_state = yield from self.comm.allgather(
            ctx,
            (ctx.node.node_id, ctx.node.memory.free_available, ctx.node.failed),
            nbytes=16,
        )
        key = ("borrow-fallback", seq)
        if key not in self._plans:
            memory_available = {}
            failed_nodes = set()
            for node_id, avail, failed in mem_state:
                memory_available.setdefault(node_id, avail)
                if failed:
                    failed_nodes.add(node_id)
            remerge_cfg = _cfg_replace(self.config, placement_policy="remerge")
            plan, tier, reason = self._plan_with_fallback(
                views,
                memory_available,
                frozenset(failed_nodes),
                config=remerge_cfg,
            )
            stats.set_tier(tier if tier is not None else "remerge")
            if reason is not None:
                stats.extra.setdefault("fallback_reason", reason)
            self._plans[key] = plan
        plan = self._plans[key]
        if plan is None:
            return (yield from self._independent_tier(ctx, pattern, payload, op, stats))
        remerge_cfg = _cfg_replace(self.config, placement_policy="remerge")
        return (
            yield from execute_collective(
                ctx, self.comm, self.pfs, plan, views, stats, op,
                ("bfb", seq),
                payload=payload, granularity="round",
                failover_config=remerge_cfg if self.config.failover else None,
            )
        )

    def _finish(self, seq, ctx):
        stats = self._stats.get(seq)
        if stats is None:
            return
        stats.extra["finishers"] = stats.extra.get("finishers", 0) + 1
        if stats.extra["finishers"] == self.comm.size:
            stats.mark_end(ctx.env.now)
            final = stats.finalize()
            self.history.append(final)
            del self._stats[seq]
            del self._plans[seq]
            del self._views[seq]
            self._borrows.pop(seq, None)
            self._plans.pop(("borrow-fallback", seq), None)
            if final.failovers:
                # aggregators moved mid-run: every cached plan (including
                # the one just executed) now names stale placements
                self.plan_cache.invalidate("failover")
                self._notify_plan_invalidation("failover")

    # ------------------------------------------------------------------
    def _plan_with_fallback(
        self,
        patterns: Sequence[AccessPattern],
        memory_available: dict[int, int],
        failed_nodes: frozenset = frozenset(),
        config: Optional[MCIOConfig] = None,
    ):
        """Graceful planning degradation: MCIO → two-phase → independent.

        Returns ``(plan, tier, reason)``: `tier` is None when the MCIO
        plan succeeded, ``"two-phase"`` for the ROMIO-style even plan on
        the live hosts, ``"independent"`` (with ``plan=None``) when not
        even one live aggregator host exists; `reason` carries the
        triggering :class:`PlacementError` message.  `config` overrides
        the engine's parameters for this plan only (the borrow fallback
        re-plans with ``placement_policy="remerge"``).
        """
        cfg = self.config if config is None else config
        views = file_views(patterns)
        try:
            plan = self.plan(
                views, memory_available, failed_nodes=failed_nodes,
                config=cfg,
            )
            return plan, None, None
        except PlacementError as exc:
            if not cfg.fallback_chain:
                raise
            reason = str(exc)
        plan = self._two_phase_plan(views, failed_nodes)
        if plan is not None:
            return plan, "two-phase", reason
        return None, "independent", reason

    def _two_phase_plan(
        self, views: FileViews, failed_nodes: frozenset
    ) -> Optional[ExecutionPlan]:
        """ROMIO-style even plan restricted to live hosts, or None."""
        if not views.any_active:
            return ExecutionPlan((), (), n_groups=1)
        lo, hi = views.bounds()
        aggs = [
            r
            for r in default_aggregators(self.comm.placement)
            if self.comm.placement[r] not in failed_nodes
        ]
        if not aggs:
            return None
        stripe = self.pfs.layout.stripe_size if self.config.stripe_align else 0
        extents = even_domains(lo, hi, len(aggs), stripe_size=stripe)
        domains = [
            FileDomain(
                extent=ext,
                aggregator_rank=aggs[i],
                buffer_bytes=self.config.cb_buffer_size,
                paged=False,
                group_id=0,
            )
            for i, ext in enumerate(extents)
        ]
        return ExecutionPlan.build(domains, views, n_groups=1)

    # ------------------------------------------------------------------
    def plan(
        self,
        patterns: Sequence[AccessPattern],
        memory_available: dict[int, int],
        failed_nodes: frozenset = frozenset(),
        config: Optional[MCIOConfig] = None,
    ) -> ExecutionPlan:
        """Run the four-component MCIO planning pipeline.

        Hosts in `failed_nodes` are soft-excluded: they plan as if they
        had no memory at all, so the placer only lands on them when no
        live candidate exists (and marks the placement paged).  `config`
        (when given) overrides the engine's parameters for this plan.
        """
        cfg = self.config if config is None else config
        stripe = self.pfs.layout.stripe_size if cfg.stripe_align else 0
        views = file_views(patterns)
        self.last_plan_tree_queries = 0
        # Planning costs no simulated time: its spans sit at the current
        # sim instant on the planner track with zero sim duration, and
        # the host-side cost rides along as a wall_us annotation.
        tracer = self.comm.env.tracer

        wall0 = perf_counter() if tracer.enabled else 0.0
        groups = divide_groups(
            views, self.comm.placement, cfg.msg_group, stripe_size=stripe
        )
        if tracer.enabled:
            tracer.complete(
                "plan", "plan.group_division", PID_PLANNER, 0,
                tracer.now(), 0.0,
                groups=len(groups),
                wall_us=(perf_counter() - wall0) * 1e6,
            )
        if not groups:
            return ExecutionPlan((), (), n_groups=0)

        # every node must have a memory entry even if no rank reported it
        for node in self.comm.cluster.nodes:
            memory_available.setdefault(node.node_id, node.memory.free_available)
        if cfg.memory_oblivious:
            # ablation: pretend every host has its full physical memory
            memory_available = {
                node.node_id: node.memory.capacity
                for node in self.comm.cluster.nodes
            }
        if failed_nodes:
            memory_available = {
                node_id: (0 if node_id in failed_nodes else avail)
                for node_id, avail in memory_available.items()
            }

        all_domains = []
        # reservations and the N_ah cap are shared across groups: the
        # groups' aggregators all coexist during the collective
        host_state: dict = {}
        for group in groups:
            members = group.ranks

            # a group's members are exactly the ranks with bytes in its
            # region, and the tree only asks about windows inside the
            # region: the sum over every rank is the sum over members
            group_data = views.sum_bytes_in

            # Size the partition to the group's feasible aggregator slots:
            # bisecting far below what memory-qualified hosts can absorb
            # only produces a remerge cascade whose lopsided survivor
            # domains stall the lockstep rounds.  A host counts if it can
            # hold at least half the per-aggregator buffer (the adaptive
            # path accepts those).
            requirement = max(cfg.mem_min, min(cfg.cb_buffer_size, cfg.msg_ind))
            group_nodes = {self.comm.placement[r] for r in members}
            slots = sum(
                max(0, cfg.nah - getattr(host_state.get(n), "aggregators", 0))
                for n in group_nodes
                if memory_available.get(n, 0) >= max(1, requirement // 2)
            )
            group_bytes = group_data(group.region.offset, group.region.end)
            msg_ind_eff = max(
                cfg.msg_ind, -(-group_bytes // max(1, slots))
            )

            wall0 = perf_counter() if tracer.enabled else 0.0
            tree = PartitionTree(
                group.region, group_data, msg_ind=msg_ind_eff, stripe_size=stripe
            )
            # forcing the initial bisection here (rather than inside the
            # placer's first pass) is behaviour-neutral — data_bytes is
            # memoised — and gives the remerge count below a baseline
            initial_leaves = tree.n_leaves
            if tracer.enabled:
                tracer.complete(
                    "plan", "plan.partition_tree", PID_PLANNER, 0,
                    tracer.now(), 0.0,
                    group=group.group_id, leaves=initial_leaves,
                    wall_us=(perf_counter() - wall0) * 1e6,
                )
                wall0 = perf_counter()
            try:
                domains = place_aggregators(
                    tree,
                    group.group_id,
                    members,
                    views,
                    self.comm.placement,
                    memory_available,
                    cfg,
                    host_state=host_state,
                )
            finally:
                self.last_plan_tree_queries += tree.raw_queries
            if tracer.enabled:
                # each remerge folds one leaf into a neighbour, so the
                # leaf deficit is exactly the remerge count
                tracer.complete(
                    "plan", "plan.placement", PID_PLANNER, 0,
                    tracer.now(), 0.0,
                    group=group.group_id, domains=len(domains),
                    remerges=initial_leaves - len(domains),
                    paged=sum(1 for d in domains if d.paged),
                    tree_queries=tree.raw_queries,
                    wall_us=(perf_counter() - wall0) * 1e6,
                )
                wall0 = perf_counter()
            all_domains.extend(_proportional_rebalance(domains, stripe))
            if tracer.enabled:
                tracer.complete(
                    "plan", "plan.rebalance", PID_PLANNER, 0,
                    tracer.now(), 0.0,
                    group=group.group_id,
                    wall_us=(perf_counter() - wall0) * 1e6,
                )
        return ExecutionPlan.build(all_domains, views, n_groups=len(groups))
