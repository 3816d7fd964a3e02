"""Tests for memory-aware aggregator placement (paper §3.3)."""

from repro.core.aggregator_selection import candidate_hosts, place_aggregators
from repro.core.config import MCIOConfig
from repro.core.partition_tree import PartitionTree
from repro.core.request import AccessPattern, Extent


def serial_patterns(n, width=100):
    return [AccessPattern.contiguous(r * width, width) for r in range(n)]


def dense_of(patterns, ranks):
    def data(lo, hi):
        return sum(patterns[r].bytes_in(lo, hi) for r in ranks)

    return data


def make_tree(patterns, ranks, region, msg_ind):
    return PartitionTree(region, dense_of(patterns, ranks), msg_ind=msg_ind)


def cfg(**kw):
    defaults = dict(
        msg_group=10**9,
        msg_ind=100,
        mem_min=0,
        nah=2,
        cb_buffer_size=100,
    )
    defaults.update(kw)
    return MCIOConfig(**defaults)


def test_candidate_hosts_only_with_data():
    patterns = serial_patterns(4)
    hosts = candidate_hosts(Extent(0, 200), ranks=[0, 1, 2, 3],
                            patterns=patterns, placement=[0, 0, 1, 1])
    assert hosts == {0: [0, 1]}


def test_picks_host_with_max_available_memory():
    patterns = serial_patterns(4, width=100)
    ranks = [0, 1, 2, 3]
    placement = [0, 0, 1, 1]
    tree = make_tree(patterns, ranks, Extent(0, 400), msg_ind=400)
    domains = place_aggregators(
        tree, 0, ranks, patterns, placement,
        memory_available={0: 50, 1: 500},
        config=cfg(cb_buffer_size=100),
    )
    assert len(domains) == 1
    # node 1 has more memory: aggregator must be one of its ranks
    assert domains[0].aggregator_rank in (2, 3)
    assert not domains[0].paged


def test_nah_caps_aggregators_per_host():
    patterns = serial_patterns(8, width=100)
    ranks = list(range(8))
    placement = [0] * 4 + [1] * 4
    tree = make_tree(patterns, ranks, Extent(0, 800), msg_ind=200)
    domains = place_aggregators(
        tree, 0, ranks, patterns, placement,
        memory_available={0: 10**6, 1: 10**6},
        config=cfg(nah=2, cb_buffer_size=200, msg_ind=200),
    )
    assert len(domains) == 4
    per_host = {}
    for d in domains:
        host = placement[d.aggregator_rank]
        per_host[host] = per_host.get(host, 0) + 1
    assert all(v <= 2 for v in per_host.values())
    # distinct processes serve as aggregators on one host
    assert len({d.aggregator_rank for d in domains}) == 4


def test_memory_shortage_triggers_remerge():
    """Four domains, but only one host has memory for just two buffers:
    domains must remerge until the memory fits."""
    patterns = serial_patterns(4, width=100)
    ranks = [0, 1, 2, 3]
    placement = [0, 0, 1, 1]
    tree = make_tree(patterns, ranks, Extent(0, 400), msg_ind=100)
    assert tree.n_leaves == 4
    domains = place_aggregators(
        tree, 0, ranks, patterns, placement,
        memory_available={0: 100, 1: 100},  # one buffer each
        config=cfg(cb_buffer_size=100, msg_ind=100, nah=2),
    )
    # reserved memory per host never exceeds availability, no paging
    assert all(not d.paged for d in domains)
    reserved = {}
    for d in domains:
        host = placement[d.aggregator_rank]
        reserved[host] = reserved.get(host, 0) + d.buffer_bytes
    assert all(reserved[h] <= {0: 100, 1: 100}[h] for h in reserved)
    assert len(domains) == 2  # remerged from 4 to 2


def test_total_memory_crunch_falls_back_paged():
    patterns = serial_patterns(2, width=100)
    ranks = [0, 1]
    placement = [0, 1]
    tree = make_tree(patterns, ranks, Extent(0, 200), msg_ind=100)
    domains = place_aggregators(
        tree, 0, ranks, patterns, placement,
        memory_available={0: 10, 1: 10},
        config=cfg(cb_buffer_size=200),
    )
    assert len(domains) == 1
    assert domains[0].paged


def test_mem_min_floor_enforced():
    """A host with enough for the buffer but below mem_min is rejected."""
    patterns = serial_patterns(4, width=100)
    ranks = [0, 1, 2, 3]
    placement = [0, 0, 1, 1]
    tree = make_tree(patterns, ranks, Extent(0, 400), msg_ind=200)
    domains = place_aggregators(
        tree, 0, ranks, patterns, placement,
        memory_available={0: 250, 1: 80},  # node 1 below mem_min
        config=cfg(cb_buffer_size=50, mem_min=100, msg_ind=200),
    )
    hosts = {placement[d.aggregator_rank] for d in domains}
    assert hosts == {0}


def test_domains_cover_region_after_placement():
    patterns = serial_patterns(6, width=100)
    ranks = list(range(6))
    placement = [0, 0, 1, 1, 2, 2]
    tree = make_tree(patterns, ranks, Extent(0, 600), msg_ind=150)
    domains = place_aggregators(
        tree, 0, ranks, patterns, placement,
        memory_available={0: 300, 1: 0, 2: 300},
        config=cfg(cb_buffer_size=150, msg_ind=150),
    )
    pos = 0
    for d in domains:
        assert d.extent.offset == pos
        pos = d.extent.end
    assert pos == 600
    # node 1 (no memory) never hosts an aggregator
    assert all(placement[d.aggregator_rank] != 1 for d in domains)


def test_group_id_recorded():
    patterns = serial_patterns(2)
    tree = make_tree(patterns, [0, 1], Extent(0, 200), msg_ind=200)
    domains = place_aggregators(
        tree, 7, [0, 1], patterns, [0, 1],
        memory_available={0: 10**6, 1: 10**6},
        config=cfg(),
    )
    assert all(d.group_id == 7 for d in domains)


def test_buffer_capped_by_domain_size():
    patterns = serial_patterns(2, width=10)
    tree = make_tree(patterns, [0, 1], Extent(0, 20), msg_ind=100)
    domains = place_aggregators(
        tree, 0, [0, 1], patterns, [0, 1],
        memory_available={0: 10**6, 1: 10**6},
        config=cfg(cb_buffer_size=10**6),
    )
    assert domains[0].buffer_bytes == 20
