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

from time import perf_counter
from typing import Optional, Sequence

import numpy as np

from repro.core.aggregator_selection import place_aggregators
from repro.core.config import MCIOConfig
from repro.core.engine import ExecutionPlan, execute_collective
from repro.core.group_division import divide_groups
from repro.core.metrics import CollectiveStats, StatsCollector
from repro.core.partition_tree import PartitionTree
from repro.core.path import resolve_path
from repro.core.pattern_array import FileViewIndex, file_views
from repro.core.request import AccessPattern
from repro.core.two_phase import CollectiveEngine
from repro.mpi.comm import SimComm
from repro.obs.tracer import PID_PLANNER
from repro.pfs.filesystem import ParallelFileSystem
from repro.sim.subscribers import Subscribers

__all__ = ["MemoryConsciousCollectiveIO", "memory_snapshot"]


def memory_snapshot(mem_state) -> tuple[dict[int, int], frozenset]:
    """``(memory_available, failed_nodes)`` from the planning allgather's
    ``(node_id, free_available, failed)`` entries, one per rank; a node's
    first entry stands for all its ranks.  Only the planning rank parses
    it, once per collective."""
    memory_available: dict[int, int] = {}
    failed_nodes = set()
    for node_id, avail, failed in mem_state:
        memory_available.setdefault(node_id, avail)
        if failed:
            failed_nodes.add(node_id)
    return memory_available, frozenset(failed_nodes)


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


class MemoryConsciousCollectiveIO(CollectiveEngine):
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
    ):
        super().__init__(comm, pfs, config if config is not None else MCIOConfig())
        #: Fault injectors wired via :meth:`watch_faults`; a non-empty
        #: schedule on any of them refuses vectorization
        #: (:func:`~repro.core.path.resolve_path`).
        self._fault_injectors: list = []
        #: Callbacks fired when externally frozen plans go stale (see
        #: :meth:`add_invalidation_listener`); persistent collectives
        #: subscribe here so faults and failover force a re-plan at
        #: their next ``start()``.
        self._invalidation_listeners = Subscribers()

    # ------------------------------------------------------------------
    def watch_faults(self, injector) -> None:
        """Invalidate frozen plans on every fault apply/revert.

        Wire any :class:`~repro.faults.injector.FaultInjector` driving
        this engine's cluster or file system: persistent handles froze
        their plans against a platform state a fault just changed
        (memory shock, node failure, server health), so reuse would be
        unsound.  A scheduled injector also refuses vectorization.
        """
        injector.add_listener(self._on_fault_event)
        self._fault_injectors.append(injector)

    # ------------------------------------------------------------------
    def add_invalidation_listener(self, fn) -> None:
        """Register ``fn(reason)`` to fire whenever frozen plans go stale.

        Fires on fault apply/revert (for injectors wired via
        :meth:`watch_faults`) and mid-run aggregator failover.  :class:`~repro.core.persistent.PersistentCollective`
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

    def _on_fault_event(self, event, phase) -> None:
        self._notify_plan_invalidation(f"fault-{phase}")

    # ------------------------------------------------------------------
    def _advance_seq(self) -> int:
        """Claim one sequence slot on behalf of every rank at once.

        The vectorized driver runs a whole collective without per-rank
        coroutines, so no rank's counter ticks; this takes the next free
        slot past anything any rank has used and raises the sequence
        floor so a later per-rank collective starts beyond it.
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
        views, plan, stats = self._prepare(seq, patterns, mem_state, op)
        result = yield from execute_collective(
            ctx, self.comm, self.pfs, plan, views, stats, op, seq,
            payload=payload,
            failover_config=self.config if self.config.failover else None,
        )
        self._finish(seq, ctx)
        return result

    def _prepare(self, seq, patterns, mem_state, op):
        """Index the gathered views and plan, once per collective: the
        first-arriving rank does the work, every rank shares the result."""
        if seq not in self._plans:
            views = self._views[seq] = FileViewIndex(patterns)
            plan = self.plan(views, *memory_snapshot(mem_state))
            self._plans[seq] = plan
            stats = self._make_collector(op, plan)
            stats.path = resolve_path(self, plan)
            self._stats[seq] = stats
        return self._views[seq], self._plans[seq], self._stats[seq]

    def _make_collector(self, op, plan) -> StatsCollector:
        """Build one operation's collector (shared with the vectorized driver)."""
        collector = StatsCollector(self.name, op, n_ranks=self.comm.size)
        collector.n_groups = plan.n_groups
        collector.attach_pfs(self.pfs)
        if self.auditor is not None:
            collector.auditor = self.auditor
        return collector

    def _finished(self, seq, final: CollectiveStats) -> None:
        if final.failovers:
            # aggregators moved mid-run: every frozen plan now names
            # stale placements
            self._notify_plan_invalidation("failover")

    # ------------------------------------------------------------------
    def plan(
        self,
        patterns: Sequence[AccessPattern],
        memory_available: dict[int, int],
        failed_nodes: frozenset = frozenset(),
    ) -> ExecutionPlan:
        """Run the four-component MCIO planning pipeline.

        Hosts in `failed_nodes` are soft-excluded: they plan as if they
        had no memory at all, so the placer only lands on them when no
        live candidate exists (and marks the placement paged).
        """
        cfg = self.config
        stripe = self.pfs.layout.stripe_size
        views = file_views(patterns)
        # Planning costs no simulated time: its spans sit at the current
        # sim instant on the planner track with zero sim duration, and
        # the host-side cost rides along as a wall_us annotation.
        tracer = self.comm.env.tracer

        wall0 = perf_counter() if tracer.enabled else 0.0
        placement = self.comm.placement_array
        groups = divide_groups(
            views, placement, cfg.msg_group, stripe_size=stripe
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
        n_nodes = len(self.comm.cluster.nodes)
        for group in groups:
            members = np.fromiter(
                group.ranks, dtype=np.int64, count=len(group.ranks)
            )

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
            on_node = np.zeros(n_nodes, dtype=bool)
            on_node[placement[members]] = True
            group_nodes = np.flatnonzero(on_node).tolist()
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
            domains = place_aggregators(
                tree,
                group.group_id,
                members,
                views,
                placement,
                memory_available,
                cfg,
                host_state=host_state,
            )
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
