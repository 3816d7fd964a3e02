"""Million-rank projection sweeps on the vectorized node-level driver.

The paper's argument is about machines that cannot be simulated one
coroutine per rank: exascale systems with 10^5–10^6 MPI processes.
This CLI sweeps a block-partitioned checkpoint workload (every rank
owns one contiguous tile, :meth:`PatternArray.tiled`) up a geometric
rank ladder to a target scale, running each point through the
node-level vectorized execution mode (DESIGN.md §11) and reporting
projected collective bandwidth, planner output, and wall-clock cost
per point.

Run::

    PYTHONPATH=src python -m repro.experiments.scale_sweep \\
        --ranks 1000000 --ranks-per-node 64 --time-budget 300

The ``--time-budget`` is enforced: the process exits nonzero if the
whole sweep (all ladder points, write + read each) exceeds it, which is
how CI keeps the 10^5-rank smoke sweep honest and how the acceptance
criterion (10^6 ranks in under five minutes) stays pinned.  Every point
must report ``execution_mode == "vectorized"`` with zero refusals —
these are fault-free, metadata-only runs, exactly the
regime vectorization targets — and the CLI exits nonzero otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.cluster import MIB, ClusterSpec, NodeSpec, StorageSpec
from repro.core import MCIOConfig, MemoryConsciousCollectiveIO
from repro.core.pattern_array import PatternArray
from repro.core.vectorized import run_vectorized_collective
from repro.experiments.harness import Platform
from repro.experiments.report import format_table
from repro.parallel import ParallelRunner, cell_seed, resolve_jobs

__all__ = [
    "build_spec", "rank_ladder", "sweep_config", "run_point", "run_sweep", "main",
]


def build_spec(n_nodes: int, ranks_per_node: int) -> ClusterSpec:
    """An exascale-projection platform: fat nodes, fast fabric, big PFS.

    The node and storage numbers are held fixed across the ladder so
    the sweep isolates *scale*: only the node count grows with the rank
    count.
    """
    return ClusterSpec(
        nodes=n_nodes,
        node=NodeSpec(
            cores=ranks_per_node,
            memory_bytes=2**31,
            memory_bandwidth=1e11,
            memory_channels=8,
            nic_bandwidth=1e10,
            nic_latency=1e-6,
        ),
        storage=StorageSpec(
            servers=256,
            server_bandwidth=5e9,
            request_overhead=1e-4,
            stripe_size=8 * MIB,
        ),
    )


def rank_ladder(target: int, base: int = 1000, factor: int = 10) -> list[int]:
    """Geometric rank counts up to and always including `target`."""
    if target < 1:
        raise ValueError("target rank count must be >= 1")
    ladder = []
    point = base
    while point < target:
        ladder.append(point)
        point *= factor
    ladder.append(target)
    return ladder


def sweep_config() -> MCIOConfig:
    """The MCIO parameters of every ladder point: one group, 64 MiB
    domains and buffers, up to four aggregators per host."""
    return MCIOConfig(
        msg_group=1 << 40,
        msg_ind=64 * MIB,
        mem_min=0,
        nah=4,
        cb_buffer_size=64 * MIB,
        min_buffer=1 * MIB,
        execution_mode="vectorized",
    )


def _ladder_cell(cell) -> list[dict]:
    """Picklable wrapper around :func:`run_point` for cell sharding.

    The per-point platform seed is derived from the cell's own
    signature (:func:`~repro.parallel.cell_seed`), never from worker
    identity, so the ladder's records are identical at any ``--jobs``
    count — and to the serial run (these fault-free metadata sweeps
    never draw from the platform RNG).
    """
    n_ranks, ranks_per_node, bytes_per_rank, ops, seed = cell
    return run_point(
        n_ranks,
        ranks_per_node,
        bytes_per_rank,
        ops,
        seed=cell_seed(seed, n_ranks, ranks_per_node, bytes_per_rank),
    )


def run_point(
    n_ranks: int,
    ranks_per_node: int,
    bytes_per_rank: int,
    ops: tuple[str, ...] = ("write", "read"),
    seed: int = 0,
) -> list[dict]:
    """One ladder point: build, plan, and run every op vectorized."""
    n_nodes = -(-n_ranks // ranks_per_node)
    platform = Platform.build(build_spec(n_nodes, ranks_per_node), n_ranks, seed=seed)
    patterns = PatternArray.tiled(n_ranks, bytes_per_rank)
    engine = MemoryConsciousCollectiveIO(
        platform.comm, platform.pfs, sweep_config()
    )
    rows = []
    for op in ops:
        wall0 = time.perf_counter()
        stats = run_vectorized_collective(engine, patterns, op)
        wall = time.perf_counter() - wall0
        rows.append(
            {
                "ranks": n_ranks,
                "nodes": n_nodes,
                "op": op,
                "execution_mode": stats.execution_mode,
                "vectorized_refusals": len(stats.path.reasons("vectorized")),
                "n_aggregators": stats.n_aggregators,
                "rounds_total": stats.rounds_total,
                "total_bytes": stats.total_bytes,
                "sim_elapsed_s": stats.elapsed,
                "bandwidth_mib_s": stats.bandwidth_mib,
                "wall_s": wall,
            }
        )
    return rows


def run_sweep(
    target_ranks: int,
    ranks_per_node: int,
    bytes_per_rank: int,
    ops: tuple[str, ...] = ("write", "read"),
    seed: int = 0,
    jobs: int | None = 1,
) -> list[dict]:
    """Every ladder point up to `target_ranks`, in ascending order.

    `jobs` fans the independent ladder points out across worker
    processes (``None``/``0`` = one per core, ``1`` = serial); record
    order and content are jobs-independent.
    """
    cells = [
        (n_ranks, ranks_per_node, bytes_per_rank, tuple(ops), seed)
        for n_ranks in rank_ladder(target_ranks)
    ]
    rows: list[dict] = []
    if resolve_jobs(jobs) > 1:
        with ParallelRunner(jobs=jobs) as runner:
            for point_rows in runner.map(_ladder_cell, cells):
                rows.extend(point_rows)
    else:
        for cell in cells:
            rows.extend(_ladder_cell(cell))
    return rows


def _render(rows: list[dict]) -> str:
    return format_table(
        ["ranks", "nodes", "op", "aggs", "rounds", "GiB moved",
         "proj. MiB/s", "wall"],
        [
            (
                f"{r['ranks']:,}",
                f"{r['nodes']:,}",
                r["op"],
                str(r["n_aggregators"]),
                str(r["rounds_total"]),
                f"{r['total_bytes'] / 2**30:.1f}",
                f"{r['bandwidth_mib_s']:,.0f}",
                f"{r['wall_s']:.1f}s",
            )
            for r in rows
        ],
        title="Vectorized scale projection (node-level simulation):",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="vectorized-mode rank-scale projection sweep"
    )
    parser.add_argument(
        "--ranks", type=int, default=1_000_000,
        help="target rank count, top of the ladder (default 1e6)",
    )
    parser.add_argument(
        "--ranks-per-node", type=int, default=64,
        help="co-located ranks folded into each node process (default 64)",
    )
    parser.add_argument(
        "--bytes-per-rank", type=int, default=256 * 1024,
        help="checkpoint tile owned by each rank (default 256 KiB)",
    )
    parser.add_argument(
        "--ops", nargs="+", default=["write", "read"],
        choices=["write", "read"],
        help="collective operations per point (default: write read)",
    )
    parser.add_argument(
        "--time-budget", type=float, default=300.0,
        help="wall-clock seconds the whole sweep must fit in (default 300)",
    )
    parser.add_argument(
        "--json", type=Path, default=None,
        help="also write the per-point records as JSON",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for independent ladder points "
        "(0 = one per core; default 1 = serial)",
    )
    args = parser.parse_args(argv)

    wall0 = time.perf_counter()
    rows = run_sweep(
        args.ranks,
        args.ranks_per_node,
        args.bytes_per_rank,
        ops=tuple(args.ops),
        seed=args.seed,
        jobs=args.jobs,
    )
    total_wall = time.perf_counter() - wall0

    print(_render(rows))
    print(
        f"\n{len(rows)} cells, top of ladder {args.ranks:,} ranks x "
        f"{args.ranks_per_node} ranks/node, total wall {total_wall:.1f}s "
        f"(budget {args.time_budget:.0f}s)"
    )

    if args.json is not None:
        args.json.write_text(
            json.dumps(
                {
                    "target_ranks": args.ranks,
                    "ranks_per_node": args.ranks_per_node,
                    "bytes_per_rank": args.bytes_per_rank,
                    "total_wall_s": total_wall,
                    "time_budget_s": args.time_budget,
                    "cells": rows,
                },
                indent=2,
            )
            + "\n"
        )
        print(f"wrote {args.json}")

    failed = False
    not_vectorized = [
        r for r in rows
        if r["execution_mode"] != "vectorized" or r["vectorized_refusals"]
    ]
    if not_vectorized:
        print(
            f"ERROR: {len(not_vectorized)} cell(s) fell back to per-rank "
            "execution — the sweep regime must vectorize",
            file=sys.stderr,
        )
        failed = True
    if total_wall > args.time_budget:
        print(
            f"ERROR: sweep took {total_wall:.1f}s, over the "
            f"{args.time_budget:.0f}s budget",
            file=sys.stderr,
        )
        # per-cell wall times point at the offending ladder rung
        for r in rows:
            print(
                f"  {r['ranks']:>9,} ranks {r['op']:5s} "
                f"{r['wall_s']:6.1f}s",
                file=sys.stderr,
            )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
