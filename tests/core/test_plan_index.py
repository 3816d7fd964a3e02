"""ExecutionPlan's rank→domain participation index.

``ExecutionPlan.build`` asks the view set for every domain's senders in
one pass over the ranks' segment rows (``FileViews.senders_in_each``);
the per-rank round loops then visit only ``member_domains(rank)`` plus
the domains the rank aggregates.  These tests pin that pass against the
brute-force ``bytes_in > 0`` probe of every (rank, domain) pair — kept
here as the oracle only — on the shapes that trip up interval reasoning.
"""

from __future__ import annotations

import random

import pytest

from repro.core.engine import ExecutionPlan
from repro.core.filedomain import FileDomain
from repro.core.request import AccessPattern, Extent, StridedSegment

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


def oracle_senders(domains, patterns):
    """Every rank × every domain: ranks with any byte in the domain."""
    return tuple(
        tuple(
            r
            for r, p in enumerate(patterns)
            if p.bytes_in(d.extent.offset, d.extent.end) > 0
        )
        for d in domains
    )


def tile(cuts, shuffle_seed=None):
    """Disjoint domains on the sorted cut points (equal cuts give
    zero-length domains), optionally in shuffled id order."""
    domains = [
        FileDomain(Extent(lo, hi - lo), aggregator_rank=i, buffer_bytes=64)
        for i, (lo, hi) in enumerate(zip(cuts, cuts[1:]))
    ]
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(domains)
    return domains


def check(domains, patterns):
    plan = ExecutionPlan.build(domains, patterns)
    assert plan.senders == oracle_senders(domains, patterns)
    # member_domains is the exact inverse of senders, ascending
    for rank in range(len(patterns)):
        want = tuple(
            did for did, ranks in enumerate(plan.senders) if rank in ranks
        )
        assert plan.member_domains(rank) == want
    assert plan.member_domains(len(patterns) + 5) == ()
    return plan


def ior_interleaved(n_ranks, block, segments):
    return [
        AccessPattern(
            (StridedSegment(r * block, block, n_ranks * block, segments),)
        )
        for r in range(n_ranks)
    ]


class TestSweepMatchesOracle:
    def test_strided_bounding_interval_spans_untouched_domains(self):
        # each rank's bounding interval covers every domain, but its
        # blocks land in only a few of them (the IOR interleaved shape)
        patterns = ior_interleaved(n_ranks=12, block=100, segments=3)
        domains = tile(list(range(0, 3601, 300)))
        plan = check(domains, patterns)
        assert all(len(plan.member_domains(r)) < len(domains) for r in range(12))

    def test_zero_length_domains(self):
        patterns = ior_interleaved(n_ranks=4, block=50, segments=2)
        domains = tile([0, 100, 100, 100, 250, 400, 400])
        plan = check(domains, patterns)
        for did, d in enumerate(domains):
            if d.extent.length == 0:
                assert plan.senders[did] == ()

    def test_empty_patterns(self):
        patterns = [
            AccessPattern(()),
            AccessPattern.contiguous(0, 500),
            AccessPattern(()),
            AccessPattern.contiguous(700, 10),
        ]
        plan = check(patterns=patterns, domains=tile([0, 200, 600, 1000]))
        assert plan.member_domains(0) == () and plan.member_domains(2) == ()
        check(tile([0, 10]), [AccessPattern(())] * 3)

    def test_overlapping_rank_patterns(self):
        # reads: several ranks ask for the same bytes
        patterns = [
            AccessPattern.contiguous(0, 1000),
            AccessPattern.contiguous(400, 300),
            AccessPattern((StridedSegment(0, 10, 250, 4),)),
            AccessPattern.contiguous(0, 1000),
        ]
        check(tile([0, 250, 500, 750, 1000], shuffle_seed=3), patterns)

    def test_one_block_spans_several_domains(self):
        patterns = [AccessPattern.contiguous(50, 900), AccessPattern.contiguous(0, 1)]
        plan = check(tile([0, 100, 200, 300, 1000]), patterns)
        assert plan.member_domains(0) == (0, 1, 2, 3)

    def test_blocks_in_gaps_between_domains(self):
        domains = [
            FileDomain(Extent(100, 100), aggregator_rank=0, buffer_bytes=64),
            FileDomain(Extent(400, 100), aggregator_rank=1, buffer_bytes=64),
        ]
        patterns = [
            AccessPattern.contiguous(0, 100),  # entirely before
            AccessPattern.contiguous(200, 200),  # entirely in the gap
            AccessPattern.contiguous(199, 202),  # touches both edges
            AccessPattern.contiguous(500, 50),  # entirely after
        ]
        plan = check(domains, patterns)
        assert plan.senders == ((2,), (2,))

    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_random(self, seed):
        rng = random.Random(seed)
        size = rng.randint(1, 5000)
        cuts = sorted(rng.randint(0, size) for _ in range(rng.randint(0, 12)))
        domains = tile([0, *cuts, size], shuffle_seed=seed)
        patterns = [random_pattern(rng, size) for _ in range(rng.randint(1, 9))]
        check(domains, patterns)

    def test_no_domains(self):
        plan = check([], ior_interleaved(3, 10, 2))
        assert plan.senders == ()


def random_pattern(rng, size):
    segments = []
    pos = rng.randint(0, size // 4)
    for _ in range(rng.randint(0, 4)):
        block = rng.randint(1, 60)
        count = rng.randint(1, 6)
        stride = block + rng.randint(0, 200)
        seg = StridedSegment(pos, block, stride, count)
        if seg.end > size + 500:
            break
        segments.append(seg)
        pos = seg.end + rng.randint(0, 100)
    return AccessPattern(segments)


if HAVE_HYPOTHESIS:

    @st.composite
    def plan_inputs(draw):
        size = draw(st.integers(min_value=1, max_value=4000))
        cuts = sorted(
            draw(st.lists(st.integers(0, size), max_size=10))
        )
        domains = tile([0, *cuts, size], shuffle_seed=draw(st.integers(0, 99)))
        n_ranks = draw(st.integers(min_value=0, max_value=8))
        patterns = []
        for _ in range(n_ranks):
            segments = []
            pos = draw(st.integers(0, size))
            for _ in range(draw(st.integers(0, 3))):
                block = draw(st.integers(1, 80))
                count = draw(st.integers(1, 5))
                stride = block + draw(st.integers(0, 300))
                segments.append(StridedSegment(pos, block, stride, count))
                pos = segments[-1].end + draw(st.integers(0, 50))
            patterns.append(AccessPattern(segments))
        return domains, patterns

    @settings(max_examples=200, deadline=None)
    @given(plan_inputs())
    def test_sweep_matches_oracle_property(inputs):
        check(*inputs)


def test_overlapping_domains_rejected():
    domains = [
        FileDomain(Extent(0, 100), aggregator_rank=0, buffer_bytes=64),
        FileDomain(Extent(50, 100), aggregator_rank=1, buffer_bytes=64),
    ]
    with pytest.raises(ValueError, match="overlap"):
        ExecutionPlan.build(domains, [AccessPattern.contiguous(0, 10)])


def test_zero_length_domain_inside_another_is_not_an_overlap():
    domains = [
        FileDomain(Extent(0, 100), aggregator_rank=0, buffer_bytes=64),
        FileDomain(Extent(50, 0), aggregator_rank=1, buffer_bytes=64),
    ]
    plan = check(domains, [AccessPattern.contiguous(40, 20)])
    assert plan.senders == ((0,), ())


def test_member_index_is_lazy():
    plan = ExecutionPlan.build(tile([0, 100, 200]), ior_interleaved(2, 50, 2))
    assert plan._member_domains is None
    plan.member_domains(0)
    assert plan._member_domains is not None


def test_ntimes_once_per_plan():
    domains = [
        FileDomain(Extent(0, 1000), aggregator_rank=0, buffer_bytes=300),
        FileDomain(Extent(1000, 10), aggregator_rank=1, buffer_bytes=300),
    ]
    plan = ExecutionPlan.build(domains, [AccessPattern.contiguous(0, 1010)])
    assert plan.ntimes == 4 and plan.half_ntimes == 7
    assert "ntimes" in vars(plan) and "half_ntimes" in vars(plan)
    assert ExecutionPlan((), ()).ntimes == 0
    assert ExecutionPlan((), ()).half_ntimes == 0
