"""Aggregation Group Division (paper §3.1, Figure 4).

MCIO first divides the I/O workload into disjoint aggregation groups;
each group later performs its own aggregation, restricting shuffle
traffic within the group.

Two detection paths, as in the paper:

* **Serial / explicit-offset distributions** ("a large number of
  applications use explicit offset operations ... or the data segments
  are serially distributed among processes"): walk ranks in file order,
  accumulate until the optimal group message size ``Msg_group`` is
  reached, then cut — but only at a *clean* boundary: no rank's data may
  straddle the cut, and the cut is extended "to the ending offset of the
  data accessed by the last process in [the] compute node", so processes
  of one physical node never become aggregators for different groups
  (Figure 4).
* **Interleaved / complex datatypes** ("the beginning and ending offsets
  are interwoven with each other"): the serial walk degenerates to one
  giant group, so the division falls back to analysing the file view:
  the aggregate region is cut into fixed ``Msg_group``-sized chunks
  (stripe-aligned), and each group holds the ranks with data inside its
  chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from repro.core.pattern_array import FileViews, file_views
from repro.core.request import AccessPattern, Extent

__all__ = ["AggregationGroup", "divide_groups"]

DivisionMode = Literal["auto", "serial", "interleaved"]


@dataclass(frozen=True)
class AggregationGroup:
    """One disjoint aggregation group.

    Attributes
    ----------
    group_id:
        Sequential id in file order.
    region:
        The contiguous file region this group aggregates.
    ranks:
        Ranks with at least one requested byte inside the region.
    """

    group_id: int
    region: Extent
    ranks: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.region.empty:
            raise ValueError("group region cannot be empty")
        if not self.ranks:
            raise ValueError("group must contain at least one rank")


def _members(views: FileViews, region: Extent) -> tuple[int, ...]:
    return tuple(views.senders_in(region.offset, region.end).tolist())


def _serial_walk(
    views: FileViews,
    placement: Sequence[int],
    msg_group: int,
    lo: int,
    hi: int,
) -> list[Extent]:
    """Offset-ordered accumulation with node-boundary extension."""
    # vectorized sort, then plain-python lists for the linear walk
    # (numpy scalar indexing in a hot loop is slower than list access)
    active = np.flatnonzero(views.sizes > 0)
    order_arr = active[
        np.lexsort((active, views.ends[active], views.starts[active]))
    ]
    order = order_arr.tolist()
    starts = views.starts[order_arr].tolist()
    ends = views.ends[order_arr].tolist()
    sizes = views.sizes[order_arr].tolist()
    regions: list[Extent] = []
    region_start = lo
    acc_bytes = 0
    reach = lo  # furthest end among ranks added to the open group
    group_nodes: set[int] = set()
    last = len(order) - 1
    for i, rank in enumerate(order):
        acc_bytes += sizes[i]
        if ends[i] > reach:
            reach = ends[i]
        group_nodes.add(placement[rank])
        if i == last:
            break
        clean = starts[i + 1] >= reach
        big_enough = acc_bytes >= msg_group
        node_boundary = placement[order[i + 1]] not in group_nodes
        if big_enough and clean and node_boundary:
            regions.append(Extent(region_start, reach - region_start))
            region_start = reach
            acc_bytes = 0
            group_nodes = set()
    regions.append(Extent(region_start, hi - region_start))
    return regions


def _interleaved_chunks(
    msg_group: int, stripe_size: int, lo: int, hi: int
) -> list[Extent]:
    """Fixed-size, stripe-aligned chunking of the aggregate region."""
    chunk = max(msg_group, stripe_size, 1)
    if stripe_size > 1:
        chunk = -(-chunk // stripe_size) * stripe_size
    out: list[Extent] = []
    pos = lo
    while pos < hi:
        end = min(pos + chunk, hi)
        out.append(Extent(pos, end - pos))
        pos = end
    return out


def _intervals_interleave(views: FileViews) -> bool:
    """True if any two ranks' bounding intervals overlap."""
    active = views.sizes > 0
    starts = views.starts[active]
    ends = views.ends[active]
    order = np.lexsort((ends, starts))
    starts, ends = starts[order], ends[order]
    return bool((starts[1:] < ends[:-1]).any())


def divide_groups(
    patterns: Sequence[AccessPattern],
    placement: Sequence[int],
    msg_group: int,
    stripe_size: int = 0,
    mode: DivisionMode = "auto",
) -> list[AggregationGroup]:
    """Divide the collective workload into disjoint aggregation groups.

    Parameters
    ----------
    patterns:
        ``patterns[rank]`` = the rank's file view (empty patterns allowed).
    placement:
        ``placement[rank]`` = node id.
    msg_group:
        Target bytes per group (``Msg_group``).
    stripe_size:
        Stripe unit for chunk alignment in the interleaved path.
    mode:
        ``"serial"`` / ``"interleaved"`` force a path; ``"auto"`` (default)
        tries the serial walk and falls back to interleaved chunking when
        interleaving collapses the walk into one oversized group.

    Returns
    -------
    list of AggregationGroup
        Regions are disjoint, tile the aggregate file region exactly, and
        every rank with data belongs to at least one group.
    """
    if len(patterns) != len(placement):
        raise ValueError("patterns and placement length mismatch")
    if msg_group < 1:
        raise ValueError("msg_group must be >= 1")
    views = file_views(patterns)
    if not views.any_active:
        return []
    n_active = int((views.sizes > 0).sum())
    lo, hi = views.bounds()

    if mode == "interleaved":
        regions = _interleaved_chunks(msg_group, stripe_size, lo, hi)
    else:
        regions = _serial_walk(views, placement, msg_group, lo, hi)
        # The serial walk collapses when rank intervals interleave (no
        # clean cut ever appears).  Only then fall back to file-view
        # chunking — a serial distribution that happens to fit one group
        # (small data, or a single node) must stay one group.
        degenerate = (
            mode == "auto"
            and len(regions) == 1
            and n_active > 1
            and (hi - lo) > 2 * msg_group
            and _intervals_interleave(views)
        )
        if degenerate:
            regions = _interleaved_chunks(msg_group, stripe_size, lo, hi)

    groups: list[AggregationGroup] = []
    for region in regions:
        ranks = _members(views, region)
        if not ranks:
            # empty slice of the file (gap between rank data): fold it
            # into the previous group's region so regions still tile
            if groups:
                prev = groups[-1]
                merged = Extent(
                    prev.region.offset, region.end - prev.region.offset
                )
                groups[-1] = AggregationGroup(prev.group_id, merged, prev.ranks)
            continue
        groups.append(AggregationGroup(len(groups), region, ranks))
    return groups
