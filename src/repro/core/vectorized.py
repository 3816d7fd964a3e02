"""Node-level vectorized collective execution (DESIGN.md §11).

The per-rank engine simulates every rank as its own coroutine; at
10^5–10^6 ranks the event count alone makes a sweep intractable.  This
driver runs one whole collective from a *single* simulation process,
carrying per-rank accounting in numpy arrays and charging each
window's traffic as one multi-message
:meth:`~repro.cluster.network.Network.transfer` per (source node,
aggregator) pair.  It is the only place shuffle traffic is
aggregated by node: the per-rank engine sends one message per rank.

Equivalence contract
--------------------
For any fault-free, metadata-only collective the vectorized driver
produces a :class:`~repro.core.metrics.CollectiveStats` whose
deterministic accounting fields (bytes, rounds, aggregators, shuffle
locality split, groups — everything except ``elapsed`` and the path
decision itself) are *identical* to the per-rank reference, and feeds
the byte-conservation auditor the same attempt/extent stream.  ``tests/sim`` pins this with a
differential harness; simulated time is pinned separately by the
vectorized golden traces.

When the planner refuses
------------------------
Per-rank coroutines are retained wherever genuinely per-rank behaviour
could diverge.  :func:`~repro.core.path.resolve_path` owns those rules
(data plane, fault schedule, failed nodes).  This driver asks it once,
before planning; on a refusal it runs the reference per-rank path,
whose stats carry its own decision
with the ``"vectorized:<reason>"`` refusal in front
(``CollectiveStats.path``).

``config.failover = True`` alone does **not** refuse: with no failed
host the per-rank failover check adds no events, so the fault-free
schedule is unchanged — exactly the regime vectorization targets.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.engine import round_window
from repro.core.filedomain import rounds_for
from repro.core.metrics import CollectiveStats
from repro.core.path import PathDecision, hand_over, resolve_path
from repro.core.pattern_array import FileViews, file_views, group_by_host
from repro.core.request import AccessPattern, window_union

__all__ = ["run_vectorized_collective"]


def _per_rank_fallback(
    engine, patterns, op: str, decision: PathDecision, payloads=None
) -> CollectiveStats:
    """Run the reference per-rank path, then record the refusal on its stats."""

    def main(ctx):
        fn = engine.write if op == "write" else engine.read
        payload = payloads[ctx.rank] if payloads is not None else None
        return (yield from fn(ctx, patterns[ctx.rank], payload))

    engine.comm.run_spmd(main)
    final = engine.history[-1]
    hand_over(final, decision)
    return final


def _window_node_traffic(views: FileViews, placement_arr, window):
    """The window's senders and ``[(node_id, [per-rank bytes])]`` by node.

    Node ids ascend; sizes inside a node follow rank order — the same
    per-message sequence the per-rank path would emit, grouped by the
    sender's host.
    """
    idx, nbytes = views.sender_bytes(window.offset, window.end)
    if not idx.size:
        return idx, []
    order, heads, hosts = group_by_host(idx, placement_arr)
    sizes = nbytes[order].tolist()
    bounds = heads.tolist() + [len(sizes)]
    return idx, [
        (node_id, sizes[bounds[k]:bounds[k + 1]])
        for k, node_id in enumerate(hosts.tolist())
    ]


def run_vectorized_collective(
    engine,
    patterns: Sequence[AccessPattern],
    op: str,
    payloads=None,
) -> CollectiveStats:
    """Run one collective through the node-level vectorized driver.

    Parameters
    ----------
    engine:
        A :class:`~repro.core.mcio.MemoryConsciousCollectiveIO` (or any
        engine exposing its planning surface).
    patterns:
        All ranks' file views — a :class:`~repro.core.pattern_array.
        PatternArray` for array-speed planning, or any sequence of
        :class:`~repro.core.request.AccessPattern` (indexed once, as a
        :class:`~repro.core.pattern_array.FileViewIndex`).
    op:
        ``"write"`` or ``"read"``.
    payloads:
        Optional per-rank data buffers.  Real payload bytes force the
        per-rank path (refusal ``"data-plane"``); the argument exists so
        callers need not branch on the refusal themselves.

    Returns
    -------
    CollectiveStats
        The finalized stats, also appended to ``engine.history``.  When
        vectorization is refused the stats come from the per-rank
        fallback, with the refusal first in ``stats.path.refusals``.
    """
    if op not in ("write", "read"):
        raise ValueError(f"op must be 'write' or 'read', got {op!r}")
    comm, pfs = engine.comm, engine.pfs
    if len(patterns) != comm.size:
        raise ValueError("patterns length must equal communicator size")

    decision = resolve_path(engine, vectorize=True, payloads=payloads)
    if decision.driver != "vectorized":
        return _per_rank_fallback(engine, patterns, op, decision, payloads)

    # plan exactly as the per-rank path's first-arriving rank would
    memory_available = {
        node_id: comm.cluster.nodes[node_id].memory.free_available
        for node_id in np.flatnonzero(
            np.bincount(comm.placement_array, minlength=len(comm.cluster.nodes))
        ).tolist()
    }
    views = file_views(patterns)
    plan = engine.plan(views, memory_available)

    seq = engine._advance_seq()
    stats = engine._make_collector(op, plan)
    stats.path = decision

    env = comm.env
    network = comm.cluster.network
    nodes = comm.cluster.nodes
    n_ranks = comm.size
    placement_arr = comm.placement_array
    # the largest pattern-allgather contribution, as the per-rank path sizes it
    meta_t = comm.collective_time(32 * (1 + views.max_segment_count))
    mem_t = comm.collective_time(16)
    barrier_t = comm.collective_time(0)
    tracer = env.tracer

    def _write_window(window, agg_node, paged, paged_wire):
        senders, traffic = _window_node_traffic(views, placement_arr, window)
        received = 0
        for node_id, sizes in traffic:
            nbytes = sum(sizes)
            stats.record_shuffle(nbytes, same_node=node_id == agg_node.node_id)
            yield from network.transfer(
                nodes[node_id], agg_node, nbytes, paged_dst=paged_wire,
                messages=len(sizes),
            )
            received += nbytes
        if received == 0:
            return
        yield from agg_node.memcopy(received, paged=paged)
        for piece in window_union(views, senders, window):
            yield from pfs.write_extent(agg_node, piece, None)
            stats.record_bytes(piece.length)
            stats.record_io_extent(piece.offset, piece.length)

    def _read_window(window, agg_node, paged, paged_wire):
        senders, traffic = _window_node_traffic(views, placement_arr, window)
        if not traffic:
            return
        total_read = 0
        for piece in window_union(views, senders, window):
            yield from pfs.read_extent(agg_node, piece)
            total_read += piece.length
            stats.record_bytes(piece.length)
            stats.record_io_extent(piece.offset, piece.length)
        if total_read == 0:
            return
        yield from agg_node.memcopy(total_read, paged=paged)
        for node_id, sizes in traffic:
            nbytes = sum(sizes)
            stats.record_shuffle(nbytes, same_node=node_id == agg_node.node_id)
            yield from network.transfer(
                agg_node, nodes[node_id], nbytes, paged_dst=paged,
                messages=len(sizes),
            )

    def _driver():
        # the two planning allgathers (pattern metadata, memory state)
        yield env.sleep(meta_t)
        yield env.sleep(mem_t)
        stats.mark_start(env.now)
        stats.record_attempt(n_ranks)
        if tracer.enabled:
            tracer.begin(
                "collective", f"collective.{op}", 0, 0,
                strategy=stats.strategy, seq=seq, path=stats.path.driver,
            )
        allocs = []
        paged_flags: dict[int, bool] = {}
        paged_wire: dict[int, bool] = {}
        try:
            # aggregation buffers commit in (rank, domain) order — the
            # same global sequence the per-rank SPMD launch produces
            order = sorted(
                range(len(plan.domains)),
                key=lambda d: (plan.domains[d].aggregator_rank, d),
            )
            for did in order:
                domain = plan.domains[did]
                agg_node = nodes[comm.placement[domain.aggregator_rank]]
                alloc = agg_node.memory.alloc(
                    domain.buffer_bytes, label=f"cb.{seq}.{did}"
                )
                allocs.append((agg_node, alloc))
                paged = alloc.paged or domain.paged
                paged_flags[did] = paged
                overcommit = max(
                    0, agg_node.memory.committed - agg_node.memory.available
                )
                stats.record_aggregator(
                    domain.aggregator_rank, domain.buffer_bytes, paged, overcommit
                )
                stats.record_rounds(
                    rounds_for(domain.extent.length, domain.buffer_bytes)
                )
            for did, domain in enumerate(plan.domains):
                agg_node = nodes[comm.placement[domain.aggregator_rank]]
                paged_wire[did] = domain.paged or agg_node.memory.overcommitted

            run_window = _write_window if op == "write" else _read_window
            for t in range(plan.ntimes):
                procs = []
                for did, domain in enumerate(plan.domains):
                    window = round_window(domain, t)
                    if window is None:
                        continue
                    agg_node = nodes[comm.placement[domain.aggregator_rank]]
                    procs.append(
                        env.process(
                            run_window(
                                window, agg_node,
                                paged_flags[did], paged_wire[did],
                            ),
                            name=f"vec.d{did}.r{t}",
                        )
                    )
                if procs:
                    yield env.all_of(procs)
                # the per-round lockstep barrier
                yield env.sleep(barrier_t)
        finally:
            for agg_node, alloc in allocs:
                agg_node.memory.free(alloc)
            if tracer.enabled:
                tracer.end(0, 0)
        # the collective's closing barrier
        yield env.sleep(barrier_t)
        stats.mark_end(env.now)

    driver = env.process(_driver(), name="vectorized.driver")
    env.run(until=driver)
    stats.extra["finishers"] = n_ranks
    final = stats.finalize()
    engine.history.append(final)
    return final
