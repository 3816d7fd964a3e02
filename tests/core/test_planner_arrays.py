"""The planner's array passes against per-rank oracles.

Group division's serial walk and the placer's candidate hosts are array
passes over a collective's file views, so planning a tiled 10^5-rank
workload costs per domain, not per rank.  These tests pin both against
the per-rank loops they replaced:

* :func:`loop_walk` is the offset-ordered walk as a plain loop over
  ranks, kept here as the oracle for ``group_division._serial_walk``;
* :func:`oracle_hosts` asks each rank's :class:`AccessPattern` for its
  bytes in the domain and groups the senders by host in rank order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.aggregator_selection import (
    _candidate_hosts,
    _eligible,
    candidate_hosts,
)
from repro.core.group_division import _serial_walk
from repro.core.pattern_array import FileViewIndex, PatternArray
from repro.core.request import AccessPattern, Extent
from repro.mpi import vector_view


def loop_walk(views, placement, msg_group, lo, hi):
    """The serial walk as a loop over ranks in file order."""
    active = np.flatnonzero(views.sizes > 0)
    order_arr = active[
        np.lexsort((active, views.ends[active], views.starts[active]))
    ]
    order = order_arr.tolist()
    starts = views.starts[order_arr].tolist()
    ends = views.ends[order_arr].tolist()
    sizes = views.sizes[order_arr].tolist()
    regions = []
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


def check_walk(views, placement, msg_group):
    lo, hi = views.bounds()
    want = loop_walk(views, placement, msg_group, lo, hi)
    got = _serial_walk(
        views, np.asarray(placement, dtype=np.int64), msg_group, lo, hi
    )
    assert got == want


@st.composite
def walk_cases(draw):
    """Contiguous per-rank views (zero-length, overlapping, interleaved,
    duplicate starts), a block or random placement, and a group size
    from one byte to past the total."""
    n = draw(st.integers(1, 48))
    layout = draw(st.sampled_from(["tiled", "overlap", "random", "dupes"]))
    lengths = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    if layout == "tiled":
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    elif layout == "overlap":
        # each rank starts inside or just past its predecessor
        steps = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))
        starts = np.cumsum(steps)
    elif layout == "random":
        starts = draw(st.lists(st.integers(0, 400), min_size=n, max_size=n))
    else:
        starts = draw(
            st.lists(st.sampled_from([0, 10, 20, 35]), min_size=n, max_size=n)
        )
    if not any(lengths):
        lengths[draw(st.integers(0, n - 1))] = 1
    views = PatternArray(starts, lengths)
    n_nodes = draw(st.integers(1, 8))
    if draw(st.booleans()):
        per_node = -(-n // n_nodes)
        placement = [r // per_node for r in range(n)]
    else:
        placement = draw(
            st.lists(st.integers(0, n_nodes - 1), min_size=n, max_size=n)
        )
    total = int(views.sizes.sum())
    msg_group = draw(st.integers(1, total + 50))
    return views, placement, msg_group


@given(walk_cases())
@settings(max_examples=300, deadline=None)
def test_array_walk_matches_loop(case):
    check_walk(*case)


@pytest.mark.parametrize("msg_group", [1, 7, 100, 10_000])
def test_array_walk_matches_loop_on_strided_views(msg_group):
    """Interleaved block trains through the segment-level index."""
    pats = [vector_view(r * 10, count=6, block=10, stride=40) for r in range(4)]
    pats += [AccessPattern.contiguous(240 + 25 * r, 25) for r in range(8)]
    pats.append(AccessPattern(()))
    placement = [r // 3 for r in range(len(pats))]
    check_walk(FileViewIndex(pats), placement, msg_group)


def test_array_walk_cuts_long_tiled_run():
    """Many cuts over a long tiled run: one per node boundary."""
    views = PatternArray.tiled(5000, 8)
    placement = [r // 16 for r in range(5000)]
    for msg_group in (1, 100, 129, 4096):
        check_walk(views, placement, msg_group)


# ---------------------------------------------------------------------------
# candidate hosts and local bytes


def oracle_hosts(domain, ranks, patterns, placement):
    """``({host: ranks}, {host: bytes})`` one rank at a time."""
    hosts: dict[int, list[int]] = {}
    local: dict[int, int] = {}
    for r in sorted(ranks):
        nbytes = patterns[r].bytes_in(domain.offset, domain.end)
        if nbytes:
            node = placement[r]
            hosts.setdefault(node, []).append(r)
            local[node] = local.get(node, 0) + nbytes
    return hosts, local


def host_cases():
    rng = np.random.default_rng(11)
    pa = PatternArray(rng.integers(0, 5_000, 60), rng.integers(0, 400, 60))
    yield "random-array", pa
    yield "tiled-array", PatternArray.tiled(64, 100)
    pats = [vector_view(r * 16, count=12, block=16, stride=16 * 9) for r in range(9)]
    pats += [AccessPattern(()), AccessPattern.contiguous(100, 3000)]
    yield "strided-index", FileViewIndex(pats)
    yield "array-as-index", FileViewIndex([pa[r] for r in range(len(pa))])


@pytest.mark.parametrize("name,views", list(host_cases()))
def test_candidate_hosts_match_oracle(name, views):
    rng = np.random.default_rng(3)
    n = len(views)
    patterns = [views[r] for r in range(n)]
    lo, hi = views.bounds()
    placements = {
        "block": [r // 5 for r in range(n)],
        "random": rng.integers(0, 7, n).tolist(),
    }
    subsets = {
        "all": list(range(n)),
        "some": sorted(rng.choice(n, n // 2, replace=False).tolist()),
    }
    step = max(1, (hi - lo) // 7)
    domains = [Extent(lo, hi - lo)] + [
        Extent(x, step) for x in range(lo, hi, step)
    ]
    for pname, placement in placements.items():
        array = np.asarray(placement, dtype=np.int64)
        for sname, ranks in subsets.items():
            for domain in domains:
                want_hosts, want_local = oracle_hosts(
                    domain, ranks, patterns, placement
                )
                got_hosts, got_local = _candidate_hosts(
                    domain, _eligible(ranks, views), views, array
                )
                where = (name, pname, sname, domain)
                # dict order is part of the contract: first appearance
                assert list(got_hosts.items()) == list(want_hosts.items()), where
                assert list(got_local.items()) == list(want_local.items()), where
                assert candidate_hosts(domain, ranks, views, placement) == (
                    want_hosts
                ), where


def test_candidate_hosts_first_appearance_order():
    """Hosts appear in the order of their lowest sending rank, not by id."""
    views = PatternArray.tiled(6, 10)
    placement = [3, 1, 3, 0, 1, 0]
    hosts = candidate_hosts(Extent(0, 60), range(6), views, placement)
    assert list(hosts) == [3, 1, 0]
    assert hosts == {3: [0, 2], 1: [1, 4], 0: [3, 5]}


def test_candidate_hosts_empty_subset():
    views = PatternArray.tiled(4, 10)
    assert candidate_hosts(Extent(0, 40), [], views, [0, 0, 1, 1]) == {}
    assert candidate_hosts(Extent(0, 40), [3], views, [0, 0, 1, 1]) == {1: [3]}
