"""Mid-operation aggregator failover (degraded-mode execution).

When an aggregator's host fails while a collective is running, its file
domains are orphaned: the lockstep rounds would crawl at the failed
host's slowdown for the rest of the operation.  Between rounds the
engine detects failed aggregator hosts and calls
:func:`replace_failed_domains` to re-place each orphaned domain on the
next-best live candidate host, re-using the same memory-aware placer
that produced the original plan.

Determinism contract: the function is pure — given identical inputs it
returns identical output, so every rank (which reaches the same round
boundary at the same simulated instant and allgathers the same memory
snapshot) computes the same replacement without extra coordination.

The replacement deliberately preserves each domain's *extent* and
*buffer size*: the round geometry (``ntimes``, window offsets, message
tags) is part of the global lockstep contract already in flight on
every rank, so only the aggregator rank and the paged flag may change.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Optional, Sequence

from repro.core.aggregator_selection import place_aggregators
from repro.core.config import MCIOConfig
from repro.core.filedomain import FileDomain
from repro.core.partition_tree import PartitionTree
from repro.core.pattern_array import FileViews, file_views
from repro.core.request import AccessPattern

__all__ = ["FailoverDecision", "replace_failed_domains"]


class FailoverDecision:
    """Outcome of one between-rounds failover pass.

    Attributes
    ----------
    domains:
        The full domain list with orphaned domains re-placed (same
        length and order as the input).
    moved:
        Indices whose aggregator rank changed.
    kept:
        Indices whose aggregator host failed with no live rank left to
        take them over (the old aggregator is kept and the operation
        limps along at the failed host's speed).
    """

    def __init__(
        self,
        domains: list[FileDomain],
        moved: list[int],
        kept: list[int],
    ):
        self.domains = domains
        self.moved = moved
        self.kept = kept

    @property
    def changed(self) -> bool:
        """True if at least one domain was re-placed."""
        return bool(self.moved)


def _live_ranks_for(
    domain: FileDomain,
    views: FileViews,
    placement: Sequence[int],
    failed_nodes: frozenset,
    live_memory: Mapping[int, int],
    host_state: Mapping[int, object],
) -> list[int]:
    """Candidate ranks for a re-placement, best first.

    Prefer live ranks with data inside the domain (the placer then keeps
    the shuffle local); fall back to any live rank so the domain can
    still be served remotely.  The fallback is ordered by remaining host
    memory because the placer's no-candidate branch takes ``ranks[0]``'s
    host verbatim — the order *is* the placement decision there.
    """
    ext = domain.extent
    with_data = [
        r
        for r in views.senders_in(ext.offset, ext.end).tolist()
        if placement[r] not in failed_nodes
    ]
    if with_data:
        return with_data

    def remaining(node: int) -> int:
        state = host_state.get(node)
        if state is not None:
            return state.remaining
        return live_memory.get(node, 0)

    return sorted(
        (r for r in range(len(views)) if placement[r] not in failed_nodes),
        key=lambda r: (-remaining(placement[r]), r),
    )


def replace_failed_domains(
    domains: Sequence[FileDomain],
    patterns: Sequence[AccessPattern],
    placement: Sequence[int],
    memory_available: Mapping[int, int],
    config: MCIOConfig,
    failed_nodes: frozenset,
) -> FailoverDecision:
    """Re-place every domain whose aggregator host is in `failed_nodes`.

    Parameters
    ----------
    domains:
        Current domain list (the run's mutable view, in file order).
    patterns:
        All ranks' file views (from the planning allgather).
    placement:
        ``placement[rank]`` = node id.
    memory_available:
        Fresh per-node memory snapshot (an allgather taken at the round
        boundary) — identical on every rank.
    config:
        The MCIO parameters governing the placer.
    failed_nodes:
        Node ids currently marked failed; they are excluded both as
        orphan sources and as replacement targets.

    Returns
    -------
    FailoverDecision
        Replacement domains plus which indices moved / were kept.
    """
    out = list(domains)
    moved: list[int] = []
    kept: list[int] = []
    if not failed_nodes:
        return FailoverDecision(out, moved, kept)

    # shared reservation state so multiple orphans re-placed in one pass
    # do not pile onto the same host
    live_memory = {
        node: avail
        for node, avail in memory_available.items()
        if node not in failed_nodes
    }
    views = file_views(patterns)
    host_state: dict = {}
    for did, domain in enumerate(domains):
        if placement[domain.aggregator_rank] not in failed_nodes:
            continue
        ranks = _live_ranks_for(
            domain, views, placement, failed_nodes, live_memory, host_state
        )
        if not ranks:
            kept.append(did)
            continue

        ext = domain.extent

        def domain_data(lo, hi, _ranks=ranks):
            return views.sum_bytes_in(lo, hi, _ranks)

        # single-leaf tree: the extent is fixed mid-flight, so no
        # bisection and no remerge may alter it
        tree = PartitionTree(
            ext,
            domain_data,
            msg_ind=max(1, domain_data(ext.offset, ext.end), ext.length),
            stripe_size=0,
        )
        new = place_aggregators(
            tree,
            domain.group_id,
            ranks,
            views,
            placement,
            live_memory,
            config,
            host_state=host_state,
        )[0]
        # keep the in-flight round geometry: extent and buffer size are
        # frozen, only the aggregator (and its paged status) change
        out[did] = replace(
            domain,
            aggregator_rank=new.aggregator_rank,
            paged=new.paged,
        )
        moved.append(did)
    return FailoverDecision(out, moved, kept)
