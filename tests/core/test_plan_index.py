"""ExecutionPlan's rank→domain participation index and window layout.

``ExecutionPlan.build`` asks the view set for every domain's senders in
one pass over the ranks' segment rows (``FileViews.senders_in_each``),
and ``ExecutionPlan.round_index`` turns them into each rank's busy
rounds and work items, which the per-rank round loops read.  These tests
pin both against brute force — the ``bytes_in > 0`` probe of every
(rank, domain) pair, and a walk of every domain in every round, kept
here as oracles only — on the shapes that trip up interval reasoning.
They also pin the plan's memoised window layout (``pieces``, ``clip``)
against direct derivation, and that a persistent handle derives each
window's pieces once for all its epochs.
"""

from __future__ import annotations

import random
from dataclasses import replace

import numpy as np
import pytest

import repro.core.engine as engine_mod
from repro.core import MCIOConfig, MemoryConsciousCollectiveIO
from repro.core.engine import ExecutionPlan, round_window
from repro.core.filedomain import FileDomain
from repro.core.pattern_array import file_views
from repro.core.request import AccessPattern, Extent, StridedSegment, window_union
from repro.mpi import SimFile, contiguous_view

from tests.helpers import make_stack, rank_payload

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


def oracle_rounds(domains, patterns, rank, half):
    """Rank `rank`'s rounds as a walk over every domain in every round
    spawns them: ``{round: [(did, window, aggregator?, nbytes)]}``."""
    rounds = {}
    t = 0
    while True:
        windows = [round_window(d, t, half) for d in domains]
        if all(w is None for w in windows):
            return rounds
        for did, (d, w) in enumerate(zip(domains, windows)):
            if w is None:
                continue
            if d.aggregator_rank == rank:
                rounds.setdefault(t, []).append((did, w, True, 0))
            nbytes = patterns[rank].bytes_in(w.offset, w.end)
            if nbytes:
                rounds.setdefault(t, []).append((did, w, False, nbytes))
        t += 1


def check(domains, patterns):
    plan = ExecutionPlan.build(domains, patterns)
    assert plan.senders == oracle_senders(domains, patterns)
    for half in (False, True):
        index = plan.round_index(file_views(patterns), half)
        for rank in range(len(patterns)):
            dids, rounds, work = index.of(rank)
            # the walk: senders inverted, plus the domains it aggregates
            assert dids == tuple(
                did for did, d in enumerate(domains)
                if rank in plan.senders[did] or d.aggregator_rank == rank
            )
            want = oracle_rounds(domains, patterns, rank, half)
            assert rounds == tuple(want)
            assert [list(items) for items in work] == list(want.values())
        assert index.of(10**9) == ((), (), ())
    # the window memo the index filled: ascending senders, exact bytes
    for (did, lo, hi), (senders, sizes) in plan._windows.items():
        want = {
            r: p.bytes_in(lo, hi)
            for r, p in enumerate(patterns)
            if p.bytes_in(lo, hi)
        }
        assert senders == list(want) and sizes == want
    check_layout(plan, domains, patterns)
    return plan


def check_layout(plan, domains, patterns):
    """Every window's memoised pieces are the union of every rank's
    blocks in it, as a tuple, and each sender's memoised clip is its
    view's clip; both are derived once."""
    views = file_views(patterns)
    everyone = range(len(patterns))
    for half in (False, True):
        for did, domain in enumerate(domains):
            t = 0
            while (w := round_window(domain, t, half)) is not None:
                pieces = plan.pieces(did, w, views)
                assert isinstance(pieces, tuple)
                assert pieces == tuple(window_union(patterns, everyone, w))
                assert plan.pieces(did, w, views) is pieces
                for r in plan.window(did, w.offset, w.end, views)[0]:
                    clipped = plan.clip(did, w, r, views)
                    assert clipped.segments == (
                        patterns[r].clip(w.offset, w.end).segments
                    )
                    assert plan.clip(did, w, r, views) is clipped
                t += 1


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
        index = plan.round_index(file_views(patterns))
        assert all(len(index.of(r)[0]) < len(domains) for r in range(12))

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
        index = plan.round_index(file_views(patterns))
        # ranks 0 and 2 send nothing: all their work is aggregating
        for rank in (0, 2):
            assert all(item[2] for items in index.of(rank)[2] for item in items)
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
        assert plan.round_index(file_views(patterns)).of(0)[0] == (0, 1, 2, 3)

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


def test_round_index_is_lazy_and_shared():
    patterns = ior_interleaved(2, 50, 2)
    plan = ExecutionPlan.build(tile([0, 100, 200]), patterns)
    assert plan._rounds == {}
    index = plan.round_index(file_views(patterns))
    assert plan.round_index(file_views(patterns)) is index
    assert plan.round_index(file_views(patterns), half=True) is not index
    # a failover's reassignment is indexed apart, once per assignment
    moved = [replace(d, aggregator_rank=1) for d in plan.domains]
    other = plan.round_index(file_views(patterns), domains=moved)
    assert other is not index
    assert plan.round_index(file_views(patterns), domains=list(moved)) is other
    assert other.of(1)[0] == (0, 1) and index.of(1)[0] == (0, 1)
    assert other.of(0)[0] == (0, 1)  # still a sender of both


def test_every_round_below_worked_has_an_aggregator():
    domains = [
        FileDomain(Extent(0, 1000), aggregator_rank=0, buffer_bytes=300),
        FileDomain(Extent(1000, 0), aggregator_rank=1, buffer_bytes=300),
    ]
    plan = ExecutionPlan.build(domains, [AccessPattern.contiguous(0, 1000)])
    index = plan.round_index(file_views([AccessPattern.contiguous(0, 1000)]))
    assert index.worked == plan.ntimes == 4
    assert index.of(0)[1] == (0, 1, 2, 3)
    # the empty domain's aggregator walks it but never works
    assert index.of(1) == ((1,), (), ())
    # only empty domains: ntimes still counts a round nobody works in
    empty = ExecutionPlan.build(domains[1:], [AccessPattern(())])
    assert empty.ntimes == 1
    assert empty.round_index(file_views([AccessPattern(())])).worked == 0


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


# ---------------------------------------------------------------------------
# a persistent handle derives each window's layout once for all epochs
# ---------------------------------------------------------------------------
N_RANKS = 8
BLOCK = 1200
EPOCHS = 6


@pytest.fixture
def union_calls(monkeypatch):
    """The engine's ``window_union`` calls, each keyed by (view set,
    window): a plan always runs with the view set it was built from."""
    calls = []
    real = engine_mod.window_union

    def counted(views, senders, window):
        calls.append((id(views), window.offset, window.end))
        return real(views, senders, window)

    monkeypatch.setattr(engine_mod, "window_union", counted)
    return calls


def checkpoint_loop(mode, calls):
    """A 6-epoch write loop, then a 6-epoch read loop, of 8 ranks on 2
    nodes in multi-round windows.  `mode` is "blocking", "persistent"
    or "persistent+overlap".  Returns the datastore image, each rank's
    reads, the length of `calls` after each persistent epoch, and the
    drivers the collectives ran on."""
    stack = make_stack(n_ranks=N_RANKS, n_nodes=2, cores=4)
    config = MCIOConfig(
        msg_group=16 * 1024, msg_ind=2 * 1024, mem_min=0, nah=2,
        cb_buffer_size=1024, min_buffer=1,
    )
    engine = MemoryConsciousCollectiveIO(stack.comm, stack.pfs, config)
    fh = SimFile.open(stack.comm, engine)
    after_epoch = {"write": [], "read": []}

    def main(ctx):
        fh.set_view(ctx, contiguous_view(ctx.rank * BLOCK, BLOCK))
        payload = rank_payload(ctx.rank, BLOCK)
        got = []
        for op in ("write", "read"):
            pc = None
            if mode != "blocking":
                init = fh.write_all_init if op == "write" else fh.read_all_init
                pc = init(ctx, overlap=(mode == "persistent+overlap"))
            for _ in range(EPOCHS):
                if pc is not None:
                    pc.start(ctx, payload if op == "write" else None)
                    data = yield from pc.wait(ctx)
                    if ctx.rank == 0:
                        after_epoch[op].append(len(calls))
                elif op == "write":
                    yield from fh.write_all(ctx, payload)
                else:
                    data = yield from fh.read_all(ctx)
                if op == "read":
                    got.append(data.copy())
            if pc is not None:
                assert pc.replans == 1
        return got

    reads = stack.run_spmd(main)
    image = stack.pfs.datastore.read(0, N_RANKS * BLOCK)
    return image, reads, after_epoch, {s.path.driver for s in engine.history}


@pytest.mark.parametrize("mode", ["persistent", "persistent+overlap"])
def test_persistent_handle_derives_each_window_once(mode, union_calls):
    image, reads, after_epoch, drivers = checkpoint_loop(mode, union_calls)
    assert drivers == {"pipelined" if mode == "persistent+overlap" else "lockstep"}
    # once per (plan, window)
    assert union_calls and len(union_calls) == len(set(union_calls))
    for op in ("write", "read"):
        counts = after_epoch[op]
        assert len(counts) == EPOCHS
        # epoch 1 derives every window; epochs 2-6 add nothing
        assert counts[1:] == [counts[0]] * (EPOCHS - 1)
    assert after_epoch["write"][0] > 0
    assert after_epoch["read"][0] > after_epoch["write"][-1]

    blocking_image, blocking_reads, _, _ = checkpoint_loop("blocking", union_calls)
    assert np.array_equal(image, blocking_image)
    for r in range(N_RANKS):
        want = rank_payload(r, BLOCK)
        assert len(reads[r]) == EPOCHS
        assert all(np.array_equal(data, want) for data in reads[r])
        for mine, blocking in zip(reads[r], blocking_reads[r]):
            assert np.array_equal(mine, blocking)
