"""Pipelining extension: persistent collectives with shuffle/PFS overlap.

Iterative checkpoint loops re-run the same collective every timestep.
Two orthogonal savings apply:

* **plan reuse** — a :class:`~repro.core.persistent.PersistentCollective`
  freezes the MCIO plan after the first ``start()`` and skips the
  pattern/memory allgathers and the planning pass on every later epoch;
* **stage overlap** — the pipelined executor double-buffers each planned
  aggregation window as two half-sized slots, so the shuffle of window t
  runs over the PFS service of window t-1 (write: drain to the OSTs;
  read: prefetch) *within the plan's memory budget*.

Whether overlap pays depends on where the aggregators land, which is
exactly what the paper's memory-conscious placement decides.  The sweep
therefore crosses execution mode (blocking loop / persistent /
persistent + overlap) with two memory regimes on the same 16-node
platform:

* ``uniform`` — every node has the same availability, placement spreads
  aggregators everywhere, and every NIC carries shuffle *and* storage
  traffic: the stages share their bottleneck resource and overlap buys
  little;
* ``variance`` — two memory-rich nodes host every aggregator
  (``mem_min`` excludes the poor ones), so shuffle arrives on the rich
  nodes' ingress links while drains leave on egress: disjoint resources,
  and the overlapped pipeline approaches ``max(shuffle, PFS)`` per round
  instead of their sum.

Every cell writes (or reads) the same bytes; the sweep cross-checks the
datastore images across modes within each regime, so the speedup column
is backed by a byte-identical result.

With ``--tenants N`` (N > 1) every cell hosts N copies of the loop as
concurrent tenant jobs on one shared platform
(:class:`repro.tenancy.TenancyHost`): same regimes, same modes, but the
shuffle and the PFS drain now contend with N-1 other tenants.  The
table gains a Jain fairness column over the per-tenant loop times, so
the overlap speedup can be read against what sharing costs.  The
default ``--tenants 1`` keeps the original single-job path bit-for-bit.

Run as a script::

    python -m repro.experiments.pipeline [--tenants N] [--jobs N]
        [--trace-out PATH]
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.cluster import ClusterSpec, NodeSpec, StorageSpec
from repro.core import CollectiveStats, MCIOConfig, MemoryConsciousCollectiveIO
from repro.mpi import SimFile, contiguous_view
from repro.workloads.payload import pattern_bytes

from .harness import Platform
from .report import format_table

__all__ = ["PipelinePoint", "PipelineResult", "run", "main"]

KIB = 1024

#: Per-rank contiguous block per timestep.
BLOCK = 500_000
N_RANKS = 16
N_NODES = 16
STEPS = 3

RICH = 3_000_000
POOR = 100_000

REGIMES = {
    # placement spreads: every node can host, every NIC is shared
    "uniform": (RICH,) * N_NODES,
    # placement concentrates: only two nodes pass mem_min, all
    # aggregation (and all storage traffic) runs through them
    "variance": (RICH, RICH) + (POOR,) * (N_NODES - 2),
}

MODES = ("blocking", "persistent", "persistent+overlap")


def _spec() -> ClusterSpec:
    return ClusterSpec(
        nodes=N_NODES,
        node=NodeSpec(
            cores=1,
            memory_bytes=10**9,
            memory_bandwidth=1e8,
            memory_channels=2,
            nic_bandwidth=1e6,
            nic_latency=1e-6,
        ),
        storage=StorageSpec(
            servers=4,
            server_bandwidth=1e6,
            request_overhead=1e-3,
            stripe_size=256,
        ),
    )


@dataclass
class PipelinePoint:
    """One (regime, mode, op) cell of the sweep."""

    regime: str
    mode: str
    op: str
    elapsed: float  # simulated seconds for the whole STEPS-epoch loop
    replans: int  # planning passes the persistent handle(s) performed
    overlapped: int  # background PFS-service stages across all epochs
    datastore_sha256: str
    stats: CollectiveStats  # last epoch's record (first tenant's)
    tenants: int = 1  # concurrent copies of the loop sharing the platform
    fairness: float = 1.0  # Jain index over per-tenant loop times


def _pipeline_cell(cell, tracer=None) -> PipelinePoint:
    """One sweep cell on a fresh platform.

    Module-level and driven by a plain picklable tuple so the
    cell-sharding runner can ship it to worker processes; identical
    results at any ``jobs`` count.  `tracer` is only passed on the
    serial path (a live tracer cannot cross a process boundary).
    """
    regime, mode, op, steps, seed = cell[:5]
    if len(cell) > 5 and cell[5] > 1:
        return _tenant_pipeline_cell(cell, tracer=tracer)
    platform = Platform.build(
        _spec(), N_RANKS, seed=seed, with_data=True, tracer=tracer
    )
    platform.cluster.set_memory_availability(REGIMES[regime])
    engine = MemoryConsciousCollectiveIO(
        platform.comm,
        platform.pfs,
        MCIOConfig(
            msg_group=10**9, msg_ind=256 * KIB, mem_min=200_000, nah=4,
            min_buffer=1, cb_buffer_size=64 * KIB,
        ),
    )
    fh = SimFile.open(platform.comm, engine)
    if op == "read":
        for r in range(N_RANKS):
            platform.pfs.datastore.write(
                r * BLOCK, pattern_bytes(BLOCK, r * 97 + 13)
            )

    def main_fn(ctx):
        fh.set_view(ctx, contiguous_view(ctx.rank * BLOCK, BLOCK))
        payload = pattern_bytes(BLOCK, ctx.rank * 97 + 13) if op == "write" else None
        if mode == "blocking":
            for _ in range(steps):
                if op == "write":
                    yield from fh.write_all(ctx, payload)
                else:
                    yield from fh.read_all(ctx)
            return
        init = fh.write_all_init if op == "write" else fh.read_all_init
        pc = init(ctx, overlap=(mode == "persistent+overlap"))
        for _ in range(steps):
            pc.start(ctx, payload)
            yield from pc.wait(ctx)

    platform.comm.run_spmd(main_fn)
    image = platform.pfs.datastore.read(0, N_RANKS * BLOCK)
    replans = overlapped = 0
    if mode != "blocking":
        replans = fh._pcs[0].replans if fh._pcs else 0
    for stats in engine.history:
        overlapped += stats.extra.get("pipeline_overlapped", 0)
    return PipelinePoint(
        regime=regime,
        mode=mode,
        op=op,
        elapsed=platform.env.now,
        replans=replans,
        overlapped=overlapped,
        datastore_sha256=hashlib.sha256(np.asarray(image).tobytes()).hexdigest(),
        stats=engine.history[-1],
    )


def _tenant_pipeline_cell(cell, tracer=None) -> PipelinePoint:
    """One sweep cell with N concurrent tenants on a shared platform.

    Each tenant runs the same STEPS-epoch checkpoint loop as the
    single-job cell — same ranks-per-job, block size, mode, and regime —
    against its own disjoint file region, all admitted at t=0 (pure
    contention, no queueing policy).  `elapsed` is the makespan and
    `fairness` the Jain index over the per-tenant loop times; the
    datastore image spans every tenant's region, so the cross-mode
    byte check still holds per (regime, op).
    """
    from repro.tenancy import TenancyHost, TenantJob, jain_index

    regime, mode, op, steps, seed, tenants = cell
    config = MCIOConfig(
        msg_group=10**9, msg_ind=256 * KIB, mem_min=200_000, nah=4,
        min_buffer=1, cb_buffer_size=64 * KIB,
    )
    host = TenancyHost(_spec(), seed=seed, tracer=tracer)
    host.cluster.set_memory_availability(REGIMES[regime])
    # every tenant uses the full machine: rank r on node r, so tenants
    # co-locate on every node and contend for its memory and NIC
    placement = list(range(N_NODES))
    for t in range(tenants):
        host.submit(
            TenantJob(
                name=f"t{t}",
                placement=placement,
                op=op,
                steps=steps,
                block=BLOCK,
                offset=t * N_RANKS * BLOCK,
                mode=mode,
                payload_seed=t,
                config=config,
            )
        )
    records = host.run()
    image = host.pfs.datastore.read(0, tenants * N_RANKS * BLOCK)
    replans = overlapped = 0
    if mode != "blocking":
        for fh in host.files.values():
            replans += fh._pcs[0].replans if fh._pcs else 0
    for engine in host.engines.values():
        for stats in engine.history:
            overlapped += stats.extra.get("pipeline_overlapped", 0)
    return PipelinePoint(
        regime=regime,
        mode=mode,
        op=op,
        elapsed=max(r.finished for r in records),
        replans=replans,
        overlapped=overlapped,
        datastore_sha256=hashlib.sha256(np.asarray(image).tobytes()).hexdigest(),
        stats=host.engines["t0"].history[-1],
        tenants=tenants,
        fairness=jain_index([r.elapsed for r in records]),
    )


@dataclass
class PipelineResult:
    """All sweep points plus derived speedups."""

    points: list[PipelinePoint]
    steps: int

    def speedup(self, point: PipelinePoint) -> float:
        """Loop speedup of `point` vs the blocking loop of its cell."""
        base = next(
            p.elapsed
            for p in self.points
            if p.regime == point.regime
            and p.op == point.op
            and p.mode == "blocking"
        )
        return base / point.elapsed

    def render(self) -> str:
        # single-tenant output is unchanged; the fairness column only
        # appears once a multi-tenant cell is present
        multi = any(p.tenants > 1 for p in self.points)
        rows = [
            (
                p.regime,
                p.op,
                p.mode,
                f"{p.elapsed:.3f}",
                f"{self.speedup(p):.3f}",
                p.replans,
                p.overlapped,
            )
            + ((p.tenants, f"{p.fairness:.4f}") if multi else ())
            for p in self.points
        ]
        return format_table(
            ("regime", "op", "mode", "sim time (s)", "speedup",
             "replans", "overlapped")
            + (("tenants", "jain") if multi else ()),
            rows,
            title=(
                f"Persistent & pipelined collective I/O — "
                f"{self.steps}-step loop, {N_RANKS} ranks / {N_NODES} nodes"
            ),
        )


def run(
    steps: int = STEPS, seed: int = 0, jobs=1, tracer=None, tenants: int = 1
) -> PipelineResult:
    """Sweep execution mode x memory regime x op on paired platforms.

    Every cell runs the same per-rank byte pattern, so within one
    (regime, op) the final datastore image must be identical across
    modes — asserted here, making the speedup column trustworthy.
    `jobs` fans the independent cells out across worker processes
    (``None``/``0`` = one per core, ``1`` = serial); identical results
    at any jobs count.  A tracer forces the serial path and lays every
    cell on one concatenated timeline.  ``tenants > 1`` runs every cell
    as that many concurrent copies of the loop sharing one platform
    (the byte check then spans every tenant's file region).
    """
    from repro.parallel import ParallelRunner, resolve_jobs

    if tenants < 1:
        raise ValueError("tenants must be >= 1")
    cells = [
        (regime, mode, op, steps, seed, tenants)
        for regime in REGIMES
        for op in ("write", "read")
        for mode in MODES
    ]
    if tracer is None and resolve_jobs(jobs) > 1:
        with ParallelRunner(jobs=jobs) as runner:
            points = runner.map(_pipeline_cell, cells)
    else:
        points = [_pipeline_cell(cell, tracer=tracer) for cell in cells]
    for regime in REGIMES:
        for op in ("write", "read"):
            digests = {
                p.datastore_sha256
                for p in points
                if p.regime == regime and p.op == op
            }
            if len(digests) != 1:
                raise AssertionError(
                    f"{regime}/{op}: datastore images diverge across modes"
                )
    return PipelineResult(points=list(points), steps=steps)


def main(argv=None) -> None:
    """CLI entry point."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.pipeline",
        description="Persistent & pipelined collective I/O sweep.",
    )
    parser.add_argument(
        "--steps", type=int, default=STEPS, metavar="N",
        help=f"checkpoint epochs per cell (default {STEPS})",
    )
    parser.add_argument(
        "--tenants", type=int, default=1, metavar="N",
        help="concurrent copies of the loop sharing each cell's platform "
        "(default 1 = the original single-job sweep)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for independent sweep cells "
        "(0 = one per core; ignored with --trace-out)",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="export a Chrome/Perfetto trace of the whole sweep to PATH",
    )
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_out:
        from repro.obs import Tracer

        tracer = Tracer(capacity=1 << 20)
    result = run(
        steps=args.steps, tracer=tracer, jobs=args.jobs, tenants=args.tenants
    )
    print(result.render())
    if tracer is not None:
        from repro.obs import write_chrome

        write_chrome(tracer, args.trace_out)
        print(f"trace written to {args.trace_out}")


if __name__ == "__main__":
    main()
