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
    placement: np.ndarray,
    msg_group: int,
    lo: int,
    hi: int,
) -> list[Extent]:
    """Offset-ordered accumulation with node-boundary extension.

    The walk visits the non-empty ranks in file order (start, end,
    rank) and cuts after position ``i`` when the open group holds at
    least `msg_group` bytes, no earlier rank reaches past the next
    rank's start, and the next rank's host is not in the open group.
    Each condition is an array fact, so Python iterates only over cuts:

    * the furthest end seen, *reach*, never resets at a cut: it is the
      running max of the ends;
    * the open group's bytes are a difference of cumulative sizes, so
      its first big-enough position is one bisection;
    * the next rank's host is new to a group opening at position ``g``
      exactly when that host's previous position lies before ``g``.
    """
    sizes = views.sizes
    starts, ends = views.starts, views.ends
    hosts = placement
    if not (sizes > 0).all():
        active = sizes.nonzero()[0]
        starts, ends, sizes = starts[active], ends[active], sizes[active]
        hosts = placement[active]
    # a monotone view set (the tiled checkpoint case) is already in
    # file order; lexsort is stable, so ties stay in rank order
    if (starts[1:] < starts[:-1]).any() or (ends[1:] < ends[:-1]).any():
        order = np.lexsort((ends, starts))
        starts, ends, sizes = starts[order], ends[order], sizes[order]
        hosts = hosts[order]
        # at 10^5+ ranks every full-length temporary raises peak RSS:
        # the allocator keeps freed heap resident
        del order
    last = sizes.size - 1
    reach = np.maximum.accumulate(ends)
    clean = starts[1:] >= reach[:-1]
    cum = np.cumsum(sizes)
    previous = _previous_on_host(hosts)

    regions: list[Extent] = []
    region_start = lo
    first = 0  # position opening the current group
    while first < last:
        base = int(cum[first - 1]) if first else 0
        i = int(cum.searchsorted(base + msg_group))
        cut = _next_cut(clean, previous, first, i, last)
        if cut is None:
            break
        end = int(reach[cut])
        regions.append(Extent(region_start, end - region_start))
        region_start = end
        first = cut + 1
    regions.append(Extent(region_start, hi - region_start))
    return regions


def _previous_on_host(hosts: np.ndarray) -> np.ndarray:
    """``previous[j]`` = the last position before ``j`` on the host of
    ``j``, or -1: a stable sort by host puts each position right after
    its predecessor on the same host."""
    order = hosts.argsort(kind="stable")
    grouped = hosts[order]
    same = grouped[1:] == grouped[:-1]
    del grouped
    previous = np.empty(hosts.size, dtype=np.int64)
    previous[order[:1]] = -1
    previous[order[1:]] = np.where(same, order[:-1], -1)
    return previous


def _next_cut(
    clean: np.ndarray, previous: np.ndarray, first: int, i: int, last: int
):
    """First cut position in ``[i, last)`` for a group opening at
    `first`, or None.  Chunks double, so finding a cut costs the
    distance scanned, not the positions left."""
    chunk = 64
    while i < last:
        stop = min(i + chunk, last)
        ok = clean[i:stop] & (previous[i + 1:stop + 1] < first)
        k = int(ok.argmax())
        if ok[k]:
            return i + k
        i = stop
        chunk *= 2
    return None


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
        ``placement[rank]`` = node id (any int sequence; an int64 array,
        such as :attr:`SimComm.placement_array`, is used as is).
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
    placement = np.asarray(placement, dtype=np.int64)
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
