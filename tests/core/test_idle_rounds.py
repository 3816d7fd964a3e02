"""Idle lockstep rounds: a rank sleeps through them in one counted barrier.

A rank with nothing to exchange in rounds t..u-1 records its arrival at
all of those round barriers at once and wakes only for the release of
round u-1 (``SimComm.counted_barrier``).  The simulated schedule must be
exactly the one of a barrier per round: the same release order, and the
same wake-up at the first round boundary after a host fails, so the
failover allgather sees every rank.  The pinned values were recorded
with a barrier per round for every rank.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core import MCIOConfig, MemoryConsciousCollectiveIO
from repro.mpi import SimComm
from repro.obs import Tracer
from repro.workloads import IORWorkload

from tests.helpers import make_stack, rank_payload

KIB = 1024
MIB = 1024 * KIB
N_RANKS = 32


def interleaved_ior(op, fail_at=None, tracer=False):
    """One MCIO collective of a 32-rank interleaved IOR view (2 blocks
    of 512 KiB per rank) on 4 nodes with tight memory: 9 lockstep rounds,
    in most of which a rank has nothing to exchange.  With `fail_at`,
    node 0 (hosting two aggregators) fails that many simulated seconds
    into the measured collective.  A read is preceded by the write that
    fills the file; both run in one SPMD launch.

    Returns ``(stats, tracer, payloads, results)``.
    """
    stack = make_stack(
        n_ranks=N_RANKS, n_nodes=4, cores=8, memory_bytes=2 * 10**6
    )
    trace = Tracer(capacity=10**6).install(stack.env) if tracer else None
    engine = MemoryConsciousCollectiveIO(
        stack.comm, stack.pfs,
        MCIOConfig(msg_ind=4 * MIB, mem_min=0, nah=4,
                   cb_buffer_size=64 * KIB, failover=True),
    )
    patterns = IORWorkload(
        n_ranks=N_RANKS, block_size=512 * KIB, segments=2
    ).patterns()
    nbytes = patterns[0].nbytes
    payloads = [rank_payload(r, nbytes) for r in range(N_RANKS)]
    results = {}

    def fail_node(at):
        yield stack.env.timeout(at - stack.env.now)
        stack.cluster.nodes[0].fail()

    def main(ctx):
        if op == "read":
            yield from engine.write(ctx, patterns[ctx.rank], payloads[ctx.rank])
        if ctx.rank == 0 and fail_at is not None:
            stack.env.process(fail_node(stack.env.now + fail_at))
        if op == "read":
            buf = np.zeros(nbytes, dtype=np.uint8)
            yield from engine.read(ctx, patterns[ctx.rank], buf)
            results[ctx.rank] = buf
        else:
            yield from engine.write(ctx, patterns[ctx.rank], payloads[ctx.rank])

    stack.run_spmd(main)
    return engine.history[-1], trace, payloads, results


@pytest.fixture
def withdrawals(monkeypatch):
    """Every sleeper woken before its last barrier, as ``(rank, passed)``."""
    seen = []
    real = SimComm._withdraw

    def spy(self, sleeper, passed):
        seen.append((sleeper.rank, passed))
        return real(self, sleeper, passed)

    monkeypatch.setattr(SimComm, "_withdraw", spy)
    return seen


class TestFaultWhileRanksSleep:
    """Node 0 fails mid-collective while most ranks sleep through idle
    rounds: every sleeper wakes at the next round boundary and joins the
    failover, which then runs as with a barrier per round."""

    @pytest.mark.parametrize(
        "op, fail_at, elapsed, rounds, targets",
        [
            ("write", 2.0, "13.208705559999995", [2, 2], [8, 16]),
            ("write", 6.0, "10.321710759999998", [6, 6], [8, 16]),
            ("read", 1.0, "16.831066260000018", [1, 1], [8, 16]),
            ("read", 5.0, "12.105765859999995", [5, 5], [8, 16]),
        ],
    )
    def test_failover_matches_per_round_barriers(
        self, withdrawals, op, fail_at, elapsed, rounds, targets
    ):
        stats, _, payloads, results = interleaved_ior(op, fail_at)
        # the fault landed while ranks slept through later barriers
        assert withdrawals
        assert repr(stats.elapsed) == elapsed
        assert stats.extra["failover_rounds"] == rounds
        assert stats.extra["failover_targets"] == targets
        assert stats.failovers == 2
        for rank, buf in results.items():
            np.testing.assert_array_equal(buf, payloads[rank])

    def test_no_fault_wakes_nobody(self, withdrawals):
        stats, _, _, _ = interleaved_ior("write")
        assert withdrawals == []
        assert repr(stats.elapsed) == "8.637648860000004"
        assert stats.failovers == 0


class TestBarrierCounts:
    """A rank waits once per busy round, once per idle stretch, and once
    at the collective's closing barrier; the messages and PFS requests
    are those of a barrier per round."""

    @pytest.mark.parametrize(
        "op, sends, requests", [("write", 128, 288), ("read", 256, 576)]
    )
    def test_waits_follow_participation(self, op, sends, requests):
        stats, trace, _, _ = interleaved_ior(op, tracer=True)
        events = list(trace.events())
        names = Counter(e.name for e in events)
        assert names["comm.send"] == sends
        assert names["pfs.serve"] == requests
        busy: dict[int, list[set]] = {r: [] for r in range(N_RANKS)}
        waits: Counter = Counter()
        collectives: Counter = Counter()
        for e in events:
            if e.name.startswith("collective.") and e.ph == "B":
                collectives[e.tid] += 1
                busy[e.tid].append(set())
            elif e.name == "shuffle.round" and e.ph == "B":
                busy[e.tid][-1].add(e.args["round"])
            elif e.name == "coll.barrier":
                waits[e.tid] += 1
        ntimes = 1 + max(t for rounds in busy.values() for t in rounds[-1])
        assert ntimes == 9
        idle_rank_rounds = 0
        for rank in range(N_RANKS):
            want = 0
            for rounds in busy[rank]:
                idle = [t for t in range(ntimes) if t not in rounds]
                idle_rank_rounds += len(idle)
                stretches = sum(
                    1 for i, t in enumerate(idle) if i == 0 or idle[i - 1] != t - 1
                )
                want += len(rounds) + stretches + 1
            assert waits[rank] == want, rank
        # most rank-rounds are idle
        assert idle_rank_rounds > sum(collectives.values()) * ntimes / 2


class TestCountedBarrier:
    """``SimComm.counted_barrier`` against a barrier per round."""

    #: per rank: ``work[t]`` is the delay it works before barrier t, or
    #: None when it is idle in round t
    SCHEDULE = {
        0: [0.5, None, None, 0.2, None],
        1: [None, None, None, None, 0.1],
        2: [None, 0.3, None, None, None],
        3: [0.1, 0.1, 0.4, 0.1, 0.3],
    }

    def run(self, counted, fail_at=None):
        stack = make_stack(n_ranks=4, n_nodes=2, cores=2)
        env, comm = stack.env, stack.comm
        log = []

        def rank_main(ctx):
            work = self.SCHEDULE[ctx.rank]
            t = 0
            while t < len(work):
                if work[t] is not None:
                    yield env.timeout(work[t])
                    yield from comm.barrier(ctx)
                    t += 1
                elif counted:
                    stop = t + 1
                    while stop < len(work) and work[stop] is None:
                        stop += 1
                    n = 1 if comm.cluster.any_failed else stop - t
                    t += yield from comm.counted_barrier(ctx, n)
                else:
                    yield from comm.barrier(ctx)
                    t += 1
                log.append((env.now, ctx.rank, t))

        if fail_at is not None:
            def fail():
                yield env.timeout(fail_at)
                stack.cluster.nodes[1].fail()

            env.process(fail())
        comm.run_spmd(rank_main)
        return log

    def test_release_order_matches_per_round_barriers(self):
        plain = self.run(counted=False)
        counted = self.run(counted=True)
        # sleepers skip the boundaries inside their stretch, and resume
        # at the end of it in the same order as with a barrier per round
        assert counted == [entry for entry in plain if entry in counted]
        assert len(counted) < len(plain)

    @pytest.mark.parametrize("fail_at", [0.05, 0.6, 0.75, 0.9])
    def test_failure_wakes_sleepers_in_per_round_order(self, fail_at):
        plain = self.run(counted=False, fail_at=fail_at)
        counted = self.run(counted=True, fail_at=fail_at)
        # from the first boundary after the failure on, every rank is
        # awake at every boundary, in the per-round order
        woke = min(i for i, (now, _, _) in enumerate(plain) if now >= fail_at)
        boundary = plain[woke][0]
        assert [e for e in counted if e[0] >= boundary] == [
            e for e in plain if e[0] >= boundary
        ]

    def test_failure_at_the_release_instant_is_seen(self):
        # the first barrier releases at 0.5 + the barrier's latency; a
        # failure processed before that release wakes the sleepers there
        plain = self.run(counted=False)
        release = plain[0][0]
        counted = self.run(counted=True, fail_at=release)
        assert counted == self.run(counted=False, fail_at=release)

    def test_early_arrival_may_not_complete_a_barrier(self):
        stack = make_stack(n_ranks=2, n_nodes=1, cores=2)
        comm = stack.comm

        def rank_main(ctx):
            yield from comm.counted_barrier(ctx, 2)

        with pytest.raises(Exception, match="would complete"):
            comm.run_spmd(rank_main)

    def test_plain_arrival_first_takes_one_barrier(self):
        stack = make_stack(n_ranks=3, n_nodes=1, cores=4)
        env, comm = stack.env, stack.comm
        passed = {}

        def rank_main(ctx):
            if ctx.rank == 2:
                # arrives after rank 0 is already waiting plainly
                yield env.timeout(0.1)
                passed[2] = yield from comm.counted_barrier(ctx, 3)
            else:
                yield env.timeout(0.2 if ctx.rank else 0.0)
                yield from comm.barrier(ctx)
            yield from comm.barrier(ctx)

        comm.run_spmd(rank_main)
        assert passed == {2: 1}


def test_round_nobody_works_in_takes_plain_barriers():
    """A plan of only empty domains still has one lockstep round
    (``rounds_for`` counts at least one); nobody works in it, so nobody
    may sleep through its barrier.  Recorded with a barrier per round."""
    from repro.core import ExecutionPlan, execute_collective
    from repro.core.filedomain import FileDomain
    from repro.core.metrics import StatsCollector
    from repro.core.path import PathDecision
    from repro.core.request import AccessPattern, Extent

    stack = make_stack(n_ranks=4, n_nodes=2, cores=2)
    patterns = [AccessPattern(())] * 4
    plan = ExecutionPlan.build(
        [FileDomain(Extent(100, 0), aggregator_rank=1, buffer_bytes=64)],
        patterns,
    )
    assert plan.ntimes == 1
    stats = StatsCollector("two-phase", "write", n_ranks=4)
    stats.path = PathDecision("lockstep", ())

    def main(ctx):
        yield from execute_collective(
            ctx, stack.comm, stack.pfs, plan, patterns, stats, "write", 0
        )

    stack.run_spmd(main)
    assert repr(stack.env.now) == "4e-06"
