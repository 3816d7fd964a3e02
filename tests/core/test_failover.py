"""Aggregator failover: unit tests for the placer and end-to-end runs."""

import numpy as np
import pytest

from repro.core import (
    MCIOConfig,
    MemoryConsciousCollectiveIO,
    replace_failed_domains,
)
from repro.core.filedomain import FileDomain
from repro.core.request import AccessPattern, Extent, StridedSegment
from repro.faults import FaultEvent, FaultInjector, FaultSchedule

from tests.helpers import make_stack, rank_payload

KIB = 1024
MIB = 1024 * 1024


def cfg(**kw):
    defaults = dict(
        msg_group=64 * MIB, msg_ind=64 * MIB, mem_min=0, nah=2,
        cb_buffer_size=64 * KIB,
    )
    defaults.update(kw)
    return MCIOConfig(**defaults)


class TestReplaceFailedDomains:
    """Pure-function behaviour of the between-rounds re-placement."""

    # 4 ranks, 2 per node, each writing 1 MiB contiguously
    PATTERNS = tuple(
        AccessPattern.contiguous(r * MIB, MIB) for r in range(4)
    )
    PLACEMENT = [0, 0, 1, 1]
    MEMORY = {0: 8 * MIB, 1: 8 * MIB}
    DOMAINS = [
        FileDomain(Extent(0, 2 * MIB), aggregator_rank=0,
                   buffer_bytes=512 * KIB),
        FileDomain(Extent(2 * MIB, 2 * MIB), aggregator_rank=2,
                   buffer_bytes=512 * KIB),
    ]

    def test_no_failures_is_identity(self):
        decision = replace_failed_domains(
            self.DOMAINS, self.PATTERNS, self.PLACEMENT, self.MEMORY,
            cfg(), frozenset(),
        )
        assert decision.changed is False
        assert decision.domains == self.DOMAINS
        assert decision.moved == [] and decision.kept == []

    def test_orphan_moves_to_live_host(self):
        decision = replace_failed_domains(
            self.DOMAINS, self.PATTERNS, self.PLACEMENT, self.MEMORY,
            cfg(), frozenset({0}),
        )
        assert decision.moved == [0]
        new = decision.domains[0]
        assert self.PLACEMENT[new.aggregator_rank] == 1
        # in-flight round geometry is frozen
        assert new.extent == self.DOMAINS[0].extent
        assert new.buffer_bytes == self.DOMAINS[0].buffer_bytes
        # healthy domain untouched
        assert decision.domains[1] == self.DOMAINS[1]

    def test_deterministic(self):
        args = (
            self.DOMAINS, self.PATTERNS, self.PLACEMENT, self.MEMORY,
            cfg(), frozenset({0}),
        )
        a = replace_failed_domains(*args)
        b = replace_failed_domains(*args)
        assert a.domains == b.domains
        assert a.moved == b.moved and a.kept == b.kept

    def test_no_live_host_keeps_domain(self):
        decision = replace_failed_domains(
            self.DOMAINS, self.PATTERNS, self.PLACEMENT, self.MEMORY,
            cfg(), frozenset({0, 1}),
        )
        assert decision.moved == []
        assert decision.kept == [0, 1]
        assert decision.domains == self.DOMAINS

    def test_fallback_prefers_host_with_memory(self):
        """When no live rank has data in the domain, the re-placement
        must pick the live host with the most remaining memory."""
        patterns = tuple(
            AccessPattern.contiguous(r * MIB, MIB) for r in range(6)
        )
        placement = [0, 0, 1, 1, 2, 2]
        # all data for domain 0 lives on failed node 0; node 2 has the
        # memory headroom
        memory = {0: 8 * MIB, 1: 64 * KIB, 2: 8 * MIB}
        domains = [
            FileDomain(Extent(0, 2 * MIB), aggregator_rank=0,
                       buffer_bytes=512 * KIB),
        ]
        decision = replace_failed_domains(
            domains, patterns, placement, memory, cfg(), frozenset({0}),
        )
        assert decision.moved == [0]
        new = decision.domains[0]
        assert placement[new.aggregator_rank] == 2
        assert new.paged is False


class TestFailoverEndToEnd:
    def _run(self, failover, fail_at=0.05):
        """12 ranks / 3 nodes, tight memory => multi-round collectives."""
        stack = make_stack(memory_bytes=3 * 10**6)
        nbytes = 1 * MIB
        engine = MemoryConsciousCollectiveIO(
            stack.comm, stack.pfs,
            MCIOConfig(msg_ind=4 * MIB, mem_min=0, nah=4,
                       cb_buffer_size=64 * KIB, failover=failover),
        )
        schedule = FaultSchedule(
            [FaultEvent(time=fail_at, kind="node_failure", target=0,
                        magnitude=16.0)]
        ) if fail_at is not None else FaultSchedule()
        injector = FaultInjector(stack.env, stack.cluster, stack.pfs, schedule)
        if len(schedule):
            injector.start()
        payloads = {}

        def main(ctx):
            chunk = 64 * KIB
            pattern = AccessPattern(
                (StridedSegment(ctx.rank * chunk, chunk,
                                stack.comm.size * chunk, nbytes // chunk),)
            )
            payloads[ctx.rank] = rank_payload(ctx.rank, nbytes)
            yield from engine.write(ctx, pattern, payloads[ctx.rank].copy())

        stack.run_spmd(main)
        injector.stop()
        return stack, engine.history[-1], payloads

    def test_failover_moves_orphaned_domains(self):
        stack, stats, payloads = self._run(failover=True)
        assert stats.failovers >= 1
        assert stats.extra.get("failover_rounds")
        # every replacement aggregator lives on a healthy node
        targets = stats.extra["failover_targets"]
        assert len(targets) == stats.failovers
        for rank in targets:
            assert stack.comm.placement[rank] != 0

    def test_failover_preserves_data(self):
        stack, stats, payloads = self._run(failover=True)
        chunk = 64 * KIB
        n = stack.comm.size
        for rank, payload in payloads.items():
            for i in range(len(payload) // chunk):
                off = rank * chunk + i * n * chunk
                got = stack.pfs.datastore.read(off, chunk)
                np.testing.assert_array_equal(
                    got, payload[i * chunk:(i + 1) * chunk],
                    err_msg=f"rank {rank} block {i} corrupt after failover",
                )

    def test_failover_faster_than_riding_out_failure(self):
        _, with_fo, _ = self._run(failover=True)
        _, without, _ = self._run(failover=False)
        assert without.failovers == 0
        assert with_fo.elapsed < without.elapsed

    def test_failover_hooks_timing_neutral_without_faults(self):
        """failover=True must add zero events when no host ever fails."""
        _, a, _ = self._run(failover=True, fail_at=None)
        _, b, _ = self._run(failover=False, fail_at=None)
        assert a.failovers == 0
        assert a.elapsed == b.elapsed
        assert a.rounds_total == b.rounds_total


class TestFailoverPromotesOutsider:
    """A rank promoted to aggregate a domain it neither sent to nor
    aggregated must pick that domain up in its per-rank round walk."""

    def test_promoted_rank_runs_remaining_windows(self, monkeypatch):
        from repro.core import ConservationAuditor
        from repro.core import engine as engine_mod

        stack = make_stack(memory_bytes=3 * 10**6)
        engine = MemoryConsciousCollectiveIO(
            stack.comm, stack.pfs,
            MCIOConfig(msg_ind=4 * MIB, mem_min=0, nah=4,
                       cb_buffer_size=64 * KIB, failover=True),
        )
        auditor = ConservationAuditor(cluster=stack.cluster).attach(engine)
        injector = FaultInjector(
            stack.env, stack.cluster, stack.pfs,
            FaultSchedule([FaultEvent(time=0.05, kind="node_failure",
                                      target=0, magnitude=16.0)]),
        )
        injector.start()
        # contiguous 1 MiB per rank: the domain hosted on node 0 holds
        # only node-0 ranks' bytes, so its replacement host sends nothing
        # to it
        patterns = [
            AccessPattern.contiguous(r * MIB, MIB)
            for r in range(stack.comm.size)
        ]
        payloads = [rank_payload(r, MIB) for r in range(stack.comm.size)]

        walks: dict[int, list[tuple[int, ...]]] = {}
        real_walk = engine_mod._walk

        def spy(run):
            walk = real_walk(run)
            walks.setdefault(run.ctx.rank, []).append(tuple(walk))
            return walk

        monkeypatch.setattr(engine_mod, "_walk", spy)

        def main(ctx):
            yield from engine.write(ctx, patterns[ctx.rank], payloads[ctx.rank].copy())

        stack.run_spmd(main)
        injector.stop()
        stats = engine.history[-1]

        assert stats.failovers == 1
        assert stats.extra["failover_rounds"] == [1]
        (promoted,) = stats.extra["failover_targets"]
        moved = 0  # the domain aggregated on failed node 0
        assert promoted == 8 and stack.comm.placement[promoted] != 0
        # before the move the promoted rank had no business with it ...
        assert moved not in walks[promoted][0]
        # ... after the move its invalidated walk includes it
        assert moved in walks[promoted][-1]
        # every byte reached storage, nothing leaked
        auditor.verify(patterns)
        for rank, payload in enumerate(payloads):
            np.testing.assert_array_equal(
                stack.pfs.datastore.read(rank * MIB, MIB), payload
            )
        # the simulated schedule is the one the full per-domain walk gave
        assert repr(stats.elapsed) == "6.237371023999998"
        assert stats.rounds_total == 20
