"""Borrow-vs-remerge sweep: remote-memory leasing under lender faults.

The paper's remerge step answers memory pressure by *shrinking the
aggregator set*: domains whose hosts lack ``Mem_avl`` fold into their
neighbours, lengthening the lockstep tail.  The borrowing extension
answers it by *moving the buffer instead of the work*: a memory-poor
aggregator leases aggregation-buffer capacity from a memory-rich node
and stages rounds across the fabric at α–β cost (see
:mod:`repro.core.borrow`).

This sweep compares the three placement policies (``remerge`` |
``borrow`` | ``hybrid``) across memory-variance regimes and lender-fault
scenarios:

* **uniform-tight** — every node equally memory-poor: no viable lender
  exists, so all three policies collapse to the same remerged plan (the
  regression anchor);
* **skewed** — one memory-rich node among poor ones: the paper's
  memory-variance regime, where borrowing keeps the aggregator set wide;
* faults — ``none``, a **lender-crash** (the rich node dies mid-round),
  and a **lender-shock** (a memory shock squeezes the lender, revoking
  its leases).  Both must complete via the deterministic mid-collective
  degradation to remerge, with zero lost bytes.

Every cell runs with real payloads, verifies the written file image
against the expected per-rank bytes, and passes the
:class:`~repro.core.audit.ConservationAuditor`.  Fault times come from a
fault-free probe of the same cell (≈45 % of its elapsed time), so the
fault always lands mid-collective regardless of policy timing.

Run as a script::

    python -m repro.experiments.borrow --json-out borrow.json
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.core import (
    CollectiveStats,
    ConservationAuditor,
    MCIOConfig,
    MemoryConsciousCollectiveIO,
)
from repro.core.request import AccessPattern, StridedSegment
from repro.workloads.payload import pattern_bytes

from .harness import Platform
from .report import format_table
from .resilience import _small_spec

__all__ = ["BorrowPoint", "BorrowResult", "run", "main"]

KIB = 1024
MIB = 1024 * 1024

POLICIES = ("remerge", "borrow", "hybrid")
REGIMES = ("uniform-tight", "skewed")
FAULTS = ("none", "lender-crash", "lender-shock")


@dataclass(frozen=True)
class BorrowPoint:
    """One (policy, regime, fault) cell of the sweep."""

    policy: str
    regime: str
    fault: str
    stats: CollectiveStats
    image_ok: bool
    audit_ok: bool

    def to_json(self) -> dict:
        st = self.stats
        return {
            "policy": self.policy,
            "regime": self.regime,
            "fault": self.fault,
            "bandwidth_mib": st.bandwidth_mib,
            "elapsed": st.elapsed,
            "tier": st.tier,
            "leases_granted": st.leases_granted,
            "leases_renewed": st.leases_renewed,
            "leases_revoked": st.leases_revoked,
            "leases_expired": st.leases_expired,
            "borrow_bytes": st.borrow_bytes,
            "borrow_fallbacks": st.borrow_fallbacks,
            "failovers": st.failovers,
            "image_ok": self.image_ok,
            "audit_ok": self.audit_ok,
        }


@dataclass
class BorrowResult:
    """Sweep outcomes across policies, regimes, and faults."""

    points: list[BorrowPoint]

    def rows(self):
        out = []
        for p in self.points:
            st = p.stats
            out.append(
                (
                    p.regime,
                    p.fault,
                    p.policy,
                    f"{st.bandwidth_mib:.2f}",
                    f"{st.elapsed:.4f}",
                    str(st.leases_granted),
                    str(st.leases_revoked + st.leases_expired),
                    f"{st.borrow_bytes // KIB}K",
                    str(st.borrow_fallbacks),
                    st.tier,
                    "ok" if (p.image_ok and p.audit_ok) else "VIOLATED",
                )
            )
        return out

    def render(self) -> str:
        return format_table(
            [
                "regime", "fault", "policy", "MiB/s", "elapsed s",
                "leases", "revoked", "borrowB", "aborts", "tier", "audit",
            ],
            self.rows(),
            title="Remote-memory borrowing vs remerge under lender faults",
        )

    def to_json(self) -> list[dict]:
        return [p.to_json() for p in self.points]


def _patterns(n_ranks: int, nbytes: int) -> list[AccessPattern]:
    """Contiguous per-rank blocks tiling ``[0, n_ranks * nbytes)``."""
    return [
        AccessPattern((StridedSegment(r * nbytes, nbytes, nbytes, 1),))
        for r in range(n_ranks)
    ]


def _apply_regime(platform: Platform, regime: str, rich_node: int) -> None:
    """Pin per-node available memory to the regime's shape.

    The rich node is memory-*rich*, not unlimited: 64 KiB keeps even a
    fully remerged plan multi-round (so mid-round faults have rounds
    left to disturb) while leaving room for several 8 KiB leases.
    """
    for node in platform.cluster.nodes:
        if regime == "skewed" and node.node_id == rich_node:
            node.memory.set_available(64 * KIB)
        else:
            node.memory.set_available(6 * KIB)


def _run_cell(
    policy: str,
    regime: str,
    fault: str,
    n_ranks: int,
    n_nodes: int,
    nbytes: int,
    seed: int,
    fault_at,
    tracer=None,
):
    """One sweep cell; returns ``(point, elapsed)``."""
    spec = _small_spec(n_nodes, memory_mib=4)
    platform = Platform.build(
        spec, n_ranks, seed=seed, with_data=True, tracer=tracer
    )
    rich = n_nodes - 1
    _apply_regime(platform, regime, rich)
    config = MCIOConfig(
        placement_policy=policy,
        adaptive_buffer=False,
        mem_min=0,
        cb_buffer_size=8 * KIB,
        msg_ind=4 * KIB,
        msg_group=1 << 30,
        nah=2,
        min_buffer=1,
        failover=True,
    )
    engine = MemoryConsciousCollectiveIO(platform.comm, platform.pfs, config)
    auditor = ConservationAuditor().attach(engine)
    patterns = _patterns(n_ranks, nbytes)
    payloads = [pattern_bytes(nbytes, r * 97 + 13) for r in range(n_ranks)]

    def main_fn(ctx):
        if fault != "none" and fault_at is not None and ctx.rank == 0:
            def saboteur():
                yield ctx.env.sleep(fault_at)
                node = platform.cluster.node_of(rich)
                if fault == "lender-crash":
                    node.fail()
                else:
                    # squeeze the lender into overcommit: available drops
                    # below what its outstanding leases pinned
                    node.memory.apply_shock(node.memory.available)
            ctx.spawn(saboteur(), name="lender-saboteur")
        yield from engine.write(ctx, patterns[ctx.rank], payloads[ctx.rank])

    platform.comm.run_spmd(main_fn)
    stats = engine.history[-1]

    image_ok = all(
        np.array_equal(
            platform.pfs.datastore.read(r * nbytes, nbytes), payloads[r]
        )
        for r in range(n_ranks)
    )
    try:
        auditor.verify(patterns)
        audit_ok = True
    except AssertionError:
        audit_ok = False
    point = BorrowPoint(
        policy=policy,
        regime=regime,
        fault=fault,
        stats=stats,
        image_ok=image_ok,
        audit_ok=audit_ok,
    )
    return point, stats.elapsed


def _cell_tuple(cell):
    """Picklable wrapper around :func:`_run_cell` for cell sharding."""
    policy, regime, fault, n_ranks, n_nodes, nbytes, seed, fault_at = cell
    return _run_cell(
        policy, regime, fault, n_ranks, n_nodes, nbytes, seed,
        fault_at=fault_at,
    )


def run(
    n_ranks: int = 12,
    n_nodes: int = 3,
    payload_kib: int = 8,
    seed: int = 0,
    faults=FAULTS,
    policies=POLICIES,
    regimes=REGIMES,
    tracer=None,
    jobs=1,
) -> BorrowResult:
    """Sweep every (regime, fault, policy) cell.

    Fault cells reuse the fault-free probe's elapsed time to aim the
    lender fault at ≈45 % of the collective, i.e. mid-round for every
    policy.  Cells are fully independent platforms built from `seed`.

    `jobs` fans cells out across worker processes in two waves — all
    fault-free probes first (fault cells need their elapsed times),
    then all fault cells — reassembled in the serial order, so results
    are identical at any jobs count.  A tracer forces the serial path.
    """
    from repro.parallel import ParallelRunner, resolve_jobs

    nbytes = payload_kib * KIB
    pairs = [(regime, policy) for regime in regimes for policy in policies]
    fault_kinds = tuple(f for f in faults if f != "none")

    if tracer is None and resolve_jobs(jobs) > 1:
        with ParallelRunner(jobs=jobs) as runner:
            probes = runner.map(
                _cell_tuple,
                [
                    (policy, regime, "none", n_ranks, n_nodes, nbytes, seed,
                     None)
                    for regime, policy in pairs
                ],
            )
            fault_cells = [
                (policy, regime, fault, n_ranks, n_nodes, nbytes, seed,
                 elapsed * 0.45)
                for (regime, policy), (_, elapsed) in zip(pairs, probes)
                for fault in fault_kinds
            ]
            fault_points = iter(
                p for p, _ in runner.map(_cell_tuple, fault_cells)
            )
        points: list[BorrowPoint] = []
        for (regime, policy), (probe, _) in zip(pairs, probes):
            if "none" in faults:
                points.append(probe)
            points.extend(next(fault_points) for _ in fault_kinds)
        return BorrowResult(points)

    points = []
    for regime, policy in pairs:
        probe, elapsed = _run_cell(
            policy, regime, "none", n_ranks, n_nodes, nbytes, seed,
            fault_at=None, tracer=tracer if "none" in faults else None,
        )
        if "none" in faults:
            points.append(probe)
        for fault in fault_kinds:
            point, _ = _run_cell(
                policy, regime, fault, n_ranks, n_nodes, nbytes, seed,
                fault_at=elapsed * 0.45, tracer=tracer,
            )
            points.append(point)
    return BorrowResult(points)


def main(argv=None) -> None:
    """CLI entry point."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.borrow",
        description="Remote-memory borrowing vs remerge under lender faults.",
    )
    parser.add_argument(
        "--json-out", metavar="PATH", default=None,
        help="write per-cell results as JSON to PATH",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="export a Chrome/Perfetto trace of the sweep to PATH",
    )
    parser.add_argument(
        "--faults", metavar="LIST", default=",".join(FAULTS),
        help=f"comma-separated fault subset of {FAULTS}",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for independent sweep cells "
        "(0 = one per core; ignored with --trace-out)",
    )
    args = parser.parse_args(argv)

    faults = tuple(f for f in args.faults.split(",") if f)
    unknown = [f for f in faults if f not in FAULTS]
    if unknown:
        parser.error(f"unknown faults {unknown}; choose from {FAULTS}")

    tracer = None
    if args.trace_out:
        from repro.obs import Tracer

        tracer = Tracer(capacity=1 << 20)
    result = run(faults=faults, tracer=tracer, jobs=args.jobs)
    print(result.render())
    bad = [p for p in result.points if not (p.image_ok and p.audit_ok)]
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(result.to_json(), fh, indent=2)
        print(f"wrote {len(result.points)} cells to {args.json_out}")
    if tracer is not None:
        from repro.obs import write_chrome

        write_chrome(tracer, args.trace_out)
        print(
            f"wrote {len(tracer)} trace events to {args.trace_out} "
            f"({tracer.dropped} dropped) — load in ui.perfetto.dev"
        )
    if bad:
        raise SystemExit(
            f"{len(bad)} cells violated byte conservation or image equality"
        )


if __name__ == "__main__":
    main()
