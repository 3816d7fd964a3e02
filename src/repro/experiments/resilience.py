"""Resilience extension: collective I/O under injected faults.

The paper's evaluation assumes a healthy machine; at extreme scale the
interesting regime is the unhealthy one — object servers slow down and
disappear, nodes lose memory to co-located services, aggregator hosts
fail mid-collective.  This experiment drives both strategies through a
seeded chaos schedule of increasing intensity and reports how gracefully
each degrades:

* the PFS client retry policy (timeout + capped exponential backoff)
  absorbs server outage windows for *both* strategies;
* MCIO additionally re-plans around degraded hosts (soft exclusion of
  failed nodes) and fails aggregators over to live hosts between rounds
  — the baseline has neither, so the gap widens with the fault rate.
  ``mcio-static`` is the same planner without mid-run failover.

At fault rate 0 the schedule is empty and both engines execute exactly
the code path of a fault-free run (the degraded-mode hooks add no
simulation events), so the rate-0 row doubles as a regression anchor.

Run as a script::

    python -m repro.experiments.resilience
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster import ClusterSpec, NodeSpec, StorageSpec
from repro.core import (
    CollectiveStats,
    MCIOConfig,
    MemoryConsciousCollectiveIO,
    TwoPhaseCollectiveIO,
    TwoPhaseConfig,
)
from repro.core.request import AccessPattern, StridedSegment
from repro.faults import FaultEvent, FaultInjector, FaultSchedule
from repro.pfs import RetryPolicy

from .harness import Platform
from .report import format_table

__all__ = ["ChaosPoint", "ResilienceResult", "chaos_schedule", "run", "main"]

KIB = 1024
MIB = 1024 * 1024


@dataclass(frozen=True)
class ChaosPoint:
    """One (fault rate, strategy) cell of the chaos sweep."""

    fault_rate: float
    strategy: str
    stats: CollectiveStats
    outages: int
    node_failures: int
    completed: bool


@dataclass
class ResilienceResult:
    """Chaos-sweep outcomes for both strategies."""

    points: list[ChaosPoint]

    def rows(self):
        """Report rows, one per (rate, strategy)."""
        out = []
        for p in sorted(self.points, key=lambda p: (p.fault_rate, p.strategy)):
            st = p.stats
            out.append(
                (
                    f"{p.fault_rate:.2f}",
                    p.strategy,
                    f"{st.bandwidth_mib:.1f}",
                    f"{st.elapsed:.2f}",
                    str(p.outages),
                    str(p.node_failures),
                    str(st.io_retries),
                    str(st.failovers),
                    st.strategy,
                )
            )
        return out

    def render(self) -> str:
        """The chaos-sweep comparison table."""
        return format_table(
            [
                "rate", "strategy", "MiB/s", "elapsed s", "outages",
                "node fails", "retries", "failovers", "tier",
            ],
            self.rows(),
            title="Collective write under injected faults",
        )


def _small_spec(n_nodes: int, memory_mib: int) -> ClusterSpec:
    """A deliberately memory-tight platform: multi-round collectives."""
    return ClusterSpec(
        nodes=n_nodes,
        node=NodeSpec(
            cores=4,
            memory_bytes=memory_mib * MIB,
            memory_bandwidth=10**8,
            memory_channels=2,
            nic_bandwidth=10**7,
            nic_latency=1e-6,
        ),
        storage=StorageSpec(
            servers=4,
            server_bandwidth=10**6,
            request_overhead=1e-3,
            stripe_size=256,
        ),
        paging_penalty=4.0,
    )


def chaos_schedule(
    seed: int,
    rate: float,
    horizon: float,
    n_servers: int,
    n_nodes: int,
) -> FaultSchedule:
    """The sweep's fault plan for one intensity level.

    Random faults arrive Poisson at `rate`-proportional per-kind rates
    (node failures transient — the host reboots); on top, one server
    outage and one *permanent* node failure are pinned early in the
    window so every nonzero-rate cell exercises both recovery paths
    (retry/backoff and aggregator failover) regardless of the Poisson
    draw.  The last node is spared so a live failover target always
    exists.
    """
    if rate <= 0:
        return FaultSchedule()
    generated = FaultSchedule.generate(
        seed,
        horizon=horizon,
        n_servers=n_servers,
        n_nodes=n_nodes,
        server_slowdown_rate=0.5 * rate,
        server_outage_rate=0.25 * rate,
        memory_shock_rate=0.5 * rate,
        node_failure_rate=0.1 * rate,
        outage_duration=(0.05, 0.3),
        shock_bytes=(1 * MIB, 2 * MIB),
        failure_slowdown=16.0,
        failure_duration=horizon / 4,
        spare_nodes=(n_nodes - 1,),
    )
    guaranteed = [
        FaultEvent(
            time=horizon * 0.05, kind="server_outage", target=0, duration=0.3
        ),
        FaultEvent(
            time=horizon * 0.1,
            kind="node_failure",
            target=0,
            duration=None,
            magnitude=16.0,
        ),
    ]
    return generated.merged(guaranteed)


def _chaos_cell(cell, tracer=None) -> ChaosPoint:
    """One (rate, strategy) cell of the chaos sweep.

    Module-level and driven by a plain picklable tuple so the
    cell-sharding runner can ship it to worker processes; the body is
    the serial sweep's, cell for cell — same platform seed, same
    ``(seed, rate)``-derived fault schedule — so results are identical
    at any ``jobs`` count.  `tracer` is only ever passed on the serial
    in-process path (a live tracer cannot cross a process boundary).
    """
    from repro.core import ConservationAuditor

    rate, strategy, seed, n_ranks, n_nodes, payload_kib, horizon, audit = cell
    nbytes = payload_kib * KIB
    # 4 MB nodes with N_ah=4 give ~1 MB buffers on ~4 MB domains: four
    # lockstep rounds (so mid-run failover has rounds left to save) and
    # enough headroom on live hosts to absorb an orphaned buffer
    spec = _small_spec(n_nodes, memory_mib=4)
    platform = Platform.build(
        spec, n_ranks, seed=seed, with_data=False, tracer=tracer
    )
    # generous timeout: outage rejections fail instantly (no timeout
    # needed), and a backstop this large never trips on mere queueing
    # congestion, keeping the rate-0 rows retry-free
    platform.pfs.retry = RetryPolicy(
        request_timeout=30.0, backoff_base=0.01, backoff_cap=0.2, max_retries=25
    )
    schedule = chaos_schedule(
        seed, rate, horizon, len(platform.pfs.servers), n_nodes
    )
    injector = FaultInjector(
        platform.env, platform.cluster, platform.pfs, schedule
    )
    if len(schedule):
        injector.start()
    if strategy == "two-phase":
        engine = TwoPhaseCollectiveIO(
            platform.comm, platform.pfs,
            TwoPhaseConfig(cb_buffer_size=64 * KIB),
        )
    else:
        # "mcio-static" ablates mid-run failover: same planner
        engine = MemoryConsciousCollectiveIO(
            platform.comm, platform.pfs,
            MCIOConfig(
                cb_buffer_size=64 * KIB, msg_ind=4 * MIB, mem_min=0,
                nah=4, failover=strategy == "mcio",
            ),
        )
        engine.watch_faults(injector)
    auditor = ConservationAuditor().attach(engine) if audit else None

    def main_fn(ctx):
        # interleaved (coll_perf-style) pattern: every file domain
        # receives data from every node, so a failed aggregator
        # host degrades shuffle *and* storage injection — the
        # regime where failover to a healthy host pays off
        chunk = 64 * KIB
        pattern = AccessPattern(
            (
                StridedSegment(
                    ctx.rank * chunk,
                    chunk,
                    n_ranks * chunk,
                    nbytes // chunk,
                ),
            )
        )
        yield from engine.write(ctx, pattern)

    platform.comm.run_spmd(main_fn)
    injector.stop()
    stats = engine.history[-1]
    if auditor is not None:
        chunk = 64 * KIB
        auditor.verify(
            [
                AccessPattern(
                    (
                        StridedSegment(
                            r * chunk, chunk, n_ranks * chunk,
                            nbytes // chunk,
                        ),
                    )
                )
                for r in range(n_ranks)
            ]
        )
    return ChaosPoint(
        fault_rate=float(rate),
        strategy=strategy,
        stats=stats,
        outages=injector.applied.get("server_outage", 0),
        node_failures=injector.applied.get("node_failure", 0),
        completed=True,
    )


def run(
    fault_rates=(0.0, 0.5, 1.0),
    seed: int = 0,
    n_ranks: int = 12,
    n_nodes: int = 3,
    payload_kib: int = 1024,
    horizon: float = 8.0,
    tracer=None,
    audit: bool = False,
    jobs=1,
) -> ResilienceResult:
    """Sweep fault intensity for both strategies on a paired platform.

    Every (rate, strategy) cell gets a fresh platform built from the same
    seed and the same fault schedule (derived from ``(seed, rate)``), so
    within a rate the two strategies face an identical storm.  Passing a
    :class:`~repro.obs.Tracer` records every cell onto one concatenated
    timeline (see ``--trace-out`` on the CLI).  With `audit`, every cell
    runs under a :class:`~repro.core.audit.ConservationAuditor` and the
    no-lost-bytes invariant is asserted after each storm (raising
    :class:`~repro.core.audit.ConservationError` on violation).

    `jobs` fans the independent cells out across worker processes
    (``None``/``0`` = one per core, ``1`` = serial).  Point-for-point
    identical results at any jobs count; a tracer forces the serial
    path so timelines concatenate deterministically.
    """
    from repro.parallel import ParallelRunner, resolve_jobs

    cells = [
        (rate, strategy, seed, n_ranks, n_nodes, payload_kib, horizon, audit)
        for rate in fault_rates
        for strategy in ("two-phase", "mcio-static", "mcio")
    ]
    if tracer is None and resolve_jobs(jobs) > 1:
        with ParallelRunner(jobs=jobs) as runner:
            points = runner.map(_chaos_cell, cells)
    else:
        points = [_chaos_cell(cell, tracer=tracer) for cell in cells]
    return ResilienceResult(points)


def main(argv=None) -> None:
    """CLI entry point."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.resilience",
        description="Collective write under injected faults.",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="export a Chrome/Perfetto trace of the whole sweep to PATH",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for independent sweep cells "
        "(0 = one per core; ignored with --trace-out)",
    )
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_out:
        from repro.obs import Tracer

        tracer = Tracer(capacity=1 << 20)
    result = run(tracer=tracer, jobs=args.jobs)
    print(result.render())
    if tracer is not None:
        from repro.obs import write_chrome

        write_chrome(tracer, args.trace_out)
        print(
            f"wrote {len(tracer)} trace events to {args.trace_out} "
            f"({tracer.dropped} dropped) — load in ui.perfetto.dev"
        )


if __name__ == "__main__":
    main()
