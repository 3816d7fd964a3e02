"""Aggregators Location (paper §3.3): memory-aware aggregator placement.

For each file domain produced by the partition tree, the placer:

1. collects the *candidate hosts* — nodes of the processes whose I/O
   requests fall inside the domain, excluding hosts already running
   ``N_ah`` aggregators;
2. picks the candidate host with maximum available memory ``Mem_avl``
   (net of what earlier placements already reserved);
3. if that host can supply the aggregation buffer (and the tuned floor
   ``Mem_min``), selects one of its processes as the domain's aggregator
   and reserves the memory;
4. otherwise the domain "will be integrated with the domain nearby" —
   the partition-tree remerge — and the search repeats "until the one
   that satisfies the memory requirement is identified".

Remerging changes earlier domains' extents, so after every remerge the
whole assignment pass restarts from scratch; each remerge removes one
leaf, so the loop terminates after at most the initial leaf count passes.

If even a single merged domain cannot be satisfied, the placer falls
back to the best available host (allocation marked *paged*): the paged
placement is the one last resort, so placement always succeeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.core.config import MCIOConfig
from repro.core.filedomain import FileDomain
from repro.core.partition_tree import PartitionTree
from repro.core.pattern_array import FileViews, file_views, group_by_host
from repro.core.request import AccessPattern, Extent

__all__ = ["PlacementError", "place_aggregators", "candidate_hosts"]


class PlacementError(RuntimeError):
    """A group's assignment pass did not converge within its bound.

    Attributes
    ----------
    group_id:
        The aggregation group whose assignment failed (None if unknown).
    """

    def __init__(self, message: str, group_id: Optional[int] = None):
        super().__init__(message)
        self.group_id = group_id


def candidate_hosts(
    domain: Extent,
    ranks: Sequence[int],
    patterns: Sequence[AccessPattern],
    placement: Sequence[int],
) -> dict[int, list[int]]:
    """Hosts of the processes with data inside `domain`.

    Returns
    -------
    dict
        ``host node id -> ranks of that host with data in the domain``,
        restricted to `ranks`; hosts in order of first appearance in
        rank order, each host's ranks ascending.
    """
    views = file_views(patterns)
    hosts, _local = _candidate_hosts(
        domain, _eligible(ranks, views), views,
        np.asarray(placement, dtype=np.int64),
    )
    return hosts


def _eligible(ranks: Sequence[int], views: FileViews) -> Optional[np.ndarray]:
    """`ranks` as a boolean mask over every rank, or None when it is
    every rank."""
    if len(ranks) == len(views):
        return None
    mask = np.zeros(len(views), dtype=bool)
    mask[np.asarray(ranks, dtype=np.int64)] = True
    return mask


def _candidate_hosts(
    domain: Extent,
    eligible: Optional[np.ndarray],
    views: FileViews,
    placement: np.ndarray,
) -> tuple[dict[int, list[int]], dict[int, int]]:
    """:func:`candidate_hosts` over the ranks `eligible` marks (a
    boolean mask over every rank; None: all), plus each host's bytes in
    the domain.

    One pass over the domain's senders and their bytes: their hosts, a
    stable sort by host cut where the host changes (each host's ranks
    stay ascending), and the bytes summed per host.
    """
    ranks, nbytes = views.sender_bytes(domain.offset, domain.end)
    if eligible is not None:
        keep = eligible[ranks]
        ranks, nbytes = ranks[keep], nbytes[keep]
    if not ranks.size:
        return {}, {}
    order, heads, nodes = group_by_host(ranks, placement)
    ranks = ranks[order]
    local = np.add.reduceat(nbytes[order], heads).tolist()
    nodes = nodes.tolist()
    bounds = heads.tolist()
    members = ranks.tolist()
    # hosts by first appearance: each run's head is its lowest rank
    heads_rank = [members[b] for b in bounds]
    appearance = sorted(range(len(bounds)), key=heads_rank.__getitem__)
    bounds.append(len(members))
    return (
        {nodes[k]: members[bounds[k]:bounds[k + 1]] for k in appearance},
        {nodes[k]: local[k] for k in appearance},
    )


@dataclass
class _HostState:
    available: int
    reserved: int = 0
    aggregators: int = 0

    @property
    def remaining(self) -> int:
        return self.available - self.reserved


def place_aggregators(
    tree: PartitionTree,
    group_id: int,
    ranks: Sequence[int],
    patterns: Sequence[AccessPattern],
    placement: Sequence[int],
    memory_available: Mapping[int, int],
    config: MCIOConfig,
    host_state: Optional[dict[int, "_HostState"]] = None,
) -> list[FileDomain]:
    """Assign an aggregator to every leaf of `tree`, remerging as needed.

    Parameters
    ----------
    tree:
        The group's partition tree (mutated by remerges).
    group_id:
        Aggregation group id recorded on the produced domains.
    ranks:
        The group's member ranks.
    patterns:
        All ranks' file views (indexed by world rank).
    placement:
        ``placement[rank]`` = node id.
    memory_available:
        Available memory per node id (the allgathered ``Mem_avl``).
    config:
        MCIO parameters (``nah``, ``mem_min``, ``cb_buffer_size``,
        ``adaptive_buffer``, ``min_buffer``).
    host_state:
        Cross-group reservation/aggregator-count state.  Groups execute
        concurrently, so memory reservations and the ``N_ah`` cap must be
        shared: pass the same dict for every group of one collective.
        On success this group's placements are committed into it.

    Returns
    -------
    list of FileDomain
        One per surviving leaf, in file order.
    """
    views = file_views(patterns)
    eligible = _eligible(ranks, views)
    placement = np.asarray(placement, dtype=np.int64)
    if host_state is None:
        host_state = {}
    for node, avail in memory_available.items():
        host_state.setdefault(node, _HostState(available=int(avail)))
    # Remerging restarts the whole pass, and most leaves survive a
    # remerge with their extents untouched — so candidate-host sets and
    # per-host local byte counts are memoised by extent across passes.
    # A remerge only *creates* extents (the absorber's grows), so stale
    # keys are simply never queried again.
    cand_cache: dict[tuple[int, int], tuple[dict, dict]] = {}
    max_passes = tree.n_leaves + 1
    for _ in range(max_passes):
        result = _try_assign(
            tree, group_id, ranks, eligible, views, placement, host_state,
            config, cand_cache,
        )
        if result is not None:
            domains, tentative = result
            # commit this group's reservations into the shared state
            for node, state in tentative.items():
                host_state[node] = state
            return domains
    raise PlacementError(
        f"group {group_id}: assignment did not converge "
        f"after {max_passes} passes over {tree.n_leaves} leaves",
        group_id=group_id,
    )  # pragma: no cover - loop is bounded by leaf count


def _buffer_for(domain: Extent, state: "_HostState", config: MCIOConfig) -> int:
    """Aggregation-buffer size on a satisfying host.

    Memory-conscious sizing cuts both ways:

    * a host with plenty of memory gets a buffer *larger* than the nominal
      ``cb_buffer_size`` (fewer rounds), capped at the domain size, at the
      host's fair share ``available / N_ah`` (so the host can still take
      its other aggregators), and at what actually remains;
    * a host that cannot fit the nominal buffer is handled by the
      adaptive/remerge paths in :func:`_try_assign`.
    """
    nominal = min(config.cb_buffer_size, domain.length)
    generous = state.available // config.nah
    return max(1, min(domain.length, max(nominal, generous), state.remaining))


def _try_assign(
    tree: PartitionTree,
    group_id: int,
    ranks: Sequence[int],
    eligible: Optional[np.ndarray],
    views: FileViews,
    placement: np.ndarray,
    base_state: Mapping[int, "_HostState"],
    config: MCIOConfig,
    cand_cache: dict[tuple[int, int], tuple[dict, dict]],
):
    """One assignment pass over a copy of `base_state`.

    Returns ``(domains, tentative_state)`` on success, or None if a
    remerge happened (the caller restarts the pass).  `cand_cache`
    memoises candidate hosts and per-host local bytes by domain extent
    across restarted passes.
    """
    hosts: dict[int, _HostState] = {
        node: _HostState(
            available=state.available,
            reserved=state.reserved,
            aggregators=state.aggregators,
        )
        for node, state in base_state.items()
    }
    domains: list[FileDomain] = []
    for leaf in tree.leaves():
        domain = leaf.extent
        nominal = max(1, min(config.cb_buffer_size, domain.length))
        requirement = max(config.mem_min, nominal)
        cand_key = (domain.offset, domain.end)
        cached = cand_cache.get(cand_key)
        if cached is None:
            cached = cand_cache[cand_key] = _candidate_hosts(
                domain, eligible, views, placement
            )
        candidates, local = cached
        if not candidates:
            # a domain with no requesting process can appear when the
            # region contains request gaps; fold it into a neighbour
            if tree.n_leaves > 1:
                tree.remerge(leaf)
                return None
            first = int(ranks[0])
            host = int(placement[first])
            candidates, local = {host: [first]}, {host: 0}

        open_hosts = {
            node: members
            for node, members in candidates.items()
            if hosts[node].aggregators < config.nah
        }
        satisfied = {
            node: members
            for node, members in open_hosts.items()
            if hosts[node].remaining >= requirement
        }

        paged = False
        if satisfied:
            # every satisfied host has enough memory, so pick the one
            # owning the most of the domain's data — keeping the shuffle
            # on the intra-node path (the abstract's "coordinates I/O
            # accesses in intra-node and inter-node layer"); memory is the
            # tie-break
            pool = satisfied
            best = max(
                pool,
                key=lambda node: (local[node], hosts[node].remaining, -node),
            )
            buffer = _buffer_for(domain, hosts[best], config)
        else:
            # no host can take the full nominal buffer; prefer a modestly
            # shrunken buffer over relocating work away (a buffer below
            # half-nominal doubles the round count — past that, paging or
            # remerging is cheaper)
            adaptive_floor = max(config.min_buffer, config.mem_min, nominal // 2, 1)
            adaptive = {
                node: members
                for node, members in open_hosts.items()
                if hosts[node].remaining >= adaptive_floor
            }
            if config.adaptive_buffer and adaptive:
                pool = adaptive
                best = max(pool, key=lambda node: (hosts[node].remaining, -node))
                # shrink the buffer to what the host has: with a swap-like
                # paging penalty, extra rounds are cheaper than thrash
                buffer = max(1, min(domain.length, int(hosts[best].remaining)))
            elif tree.n_leaves > 1:
                # "Otherwise ... the file domain will be integrated with
                # the domain nearby" — remerge expands the search area
                tree.remerge(leaf)
                return None
            else:
                pool = open_hosts if open_hosts else candidates
                best = max(pool, key=lambda node: (hosts[node].remaining, -node))
                adaptive_floor = max(config.min_buffer, config.mem_min, nominal // 2, 1)
                if hosts[best].remaining >= requirement:
                    # N_ah is exhausted but the host's memory is not:
                    # oversubscribe the host rather than page
                    buffer = _buffer_for(domain, hosts[best], config)
                elif config.adaptive_buffer and hosts[best].remaining >= adaptive_floor:
                    buffer = max(1, min(domain.length, int(hosts[best].remaining)))
                else:
                    buffer = nominal
                    paged = True

        state = hosts[best]
        # round-robin over the host's member ranks so N_ah aggregators on
        # one node are distinct processes
        members = pool[best]
        agg_rank = members[state.aggregators % len(members)]
        state.aggregators += 1
        state.reserved += buffer
        domains.append(
            FileDomain(
                extent=domain,
                aggregator_rank=agg_rank,
                buffer_bytes=buffer,
                paged=paged,
                group_id=group_id,
            )
        )
    return domains, hosts
