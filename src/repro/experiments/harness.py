"""Experiment harness: build platforms, run collectives, sweep memory.

The paper's evaluation methodology (§4):

* a fixed cluster and Lustre-like file system (1 MB round-robin stripes);
* per run, the aggregation-buffer size is swept; the *available memory*
  of each node is drawn from a normal distribution whose mean equals the
  nominal buffer size, with σ = 50 MB ("the memory buffer sizes for
  processes were set up as random variables following a normal
  distribution ... the standard deviation was set as 50");
* the normal two-phase collective I/O uses the fixed nominal buffer on
  ROMIO's default aggregators; memory-conscious collective I/O plans
  against the actual availability;
* both write and read bandwidth are reported.

:func:`run_memory_sweep` reproduces that loop for any workload and both
strategies, returning the per-point
:class:`~repro.core.metrics.CollectiveStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from repro.cluster import Cluster, ClusterSpec, block_placement
from repro.core import (
    CollectiveStats,
    MCIOConfig,
    MemoryConsciousCollectiveIO,
    TwoPhaseCollectiveIO,
    TwoPhaseConfig,
)
from repro.core.path import vectorization_requested
from repro.core.request import AccessPattern
from repro.mpi import SimComm
from repro.obs import Tracer
from repro.parallel import ParallelRunner, cell_seed, resolve_jobs
from repro.pfs import ParallelFileSystem, SparseFile
from repro.sim import Environment, RngFactory

__all__ = [
    "ParallelRunner",
    "Platform",
    "SweepPoint",
    "cell_seed",
    "resolve_jobs",
    "run_collective",
    "run_memory_sweep",
]


@dataclass
class Platform:
    """A complete simulated platform for one experiment run."""

    env: Environment
    cluster: Cluster
    comm: SimComm
    pfs: ParallelFileSystem

    @classmethod
    def build(
        cls,
        spec: ClusterSpec,
        n_ranks: int,
        seed: int = 0,
        with_data: bool = False,
        tracer: Optional[Tracer] = None,
    ) -> "Platform":
        """Construct env + cluster + comm + PFS from a spec.

        A `tracer` is installed on the fresh environment with an offset
        of its current ``max_ts()``, so one tracer passed to a sequence
        of builds lays the runs end to end on a single timeline.
        """
        env = Environment()
        if tracer is not None:
            tracer.install(env, offset=tracer.max_ts())
        cluster = Cluster(env, spec, RngFactory(seed))
        placement = block_placement(n_ranks, spec.nodes, spec.node.cores)
        comm = SimComm(env, cluster, placement)
        store = SparseFile() if with_data else None
        pfs = ParallelFileSystem(env, spec.storage, datastore=store)
        return cls(env=env, cluster=cluster, comm=comm, pfs=pfs)


def run_collective(
    platform: Platform,
    engine,
    patterns: Sequence[AccessPattern],
    ops: Sequence[str] = ("write", "read"),
) -> list[CollectiveStats]:
    """Run `ops` back to back on `platform` and return their stats.

    Engines configured with ``execution_mode="vectorized"`` hand each
    op to the node-level driver
    (:func:`~repro.core.vectorized.run_vectorized_collective`), whose
    path decision falls back to the per-rank path whenever faults or
    the data plane demand per-rank coroutines.
    """
    if len(patterns) != platform.comm.size:
        raise ValueError(
            f"{len(patterns)} patterns for {platform.comm.size} ranks"
        )

    if vectorization_requested(engine):
        from repro.core.vectorized import run_vectorized_collective

        for op in ops:
            run_vectorized_collective(engine, patterns, op)
        return list(engine.history[-len(ops):])

    def main(ctx):
        pattern = patterns[ctx.rank]
        for op in ops:
            if op == "write":
                yield from engine.write(ctx, pattern)
            elif op == "read":
                yield from engine.read(ctx, pattern)
            else:
                raise ValueError(f"unknown op {op!r}")

    platform.comm.run_spmd(main)
    return list(engine.history[-len(ops):])


@dataclass(frozen=True)
class SweepPoint:
    """One cell of a memory-sweep experiment."""

    buffer_bytes: int
    strategy: str
    op: str
    stats: CollectiveStats

    @property
    def bandwidth_mib(self) -> float:
        """Effective MiB/s at this point."""
        return self.stats.bandwidth_mib


def _memory_sweep_cell(cell, tracer: Optional[Tracer] = None) -> list[SweepPoint]:
    """One (buffer, strategy) cell of :func:`run_memory_sweep`.

    Module-level so the cell-sharding runner can ship it to worker
    processes; `cell` is a plain picklable tuple.  The serial path runs
    the same body in-process (optionally traced), so a sweep's points
    are identical at any ``jobs`` count.
    """
    (
        spec, patterns, buffer, strategy, sigma_bytes, seed,
        mcio_template, tp_template, ops,
    ) = cell
    platform = Platform.build(spec, len(patterns), seed=seed, tracer=tracer)
    platform.cluster.sample_memory_availability(
        mean_bytes=float(buffer), sigma_bytes=float(sigma_bytes)
    )
    if strategy == "two-phase":
        engine = TwoPhaseCollectiveIO(
            platform.comm,
            platform.pfs,
            replace(tp_template, cb_buffer_size=int(buffer)),
        )
    elif strategy == "mcio":
        engine = MemoryConsciousCollectiveIO(
            platform.comm,
            platform.pfs,
            replace(mcio_template, cb_buffer_size=int(buffer)),
        )
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    all_stats = run_collective(platform, engine, patterns, ops=ops)
    return [
        SweepPoint(
            buffer_bytes=int(buffer), strategy=strategy, op=op, stats=stats
        )
        for op, stats in zip(ops, all_stats)
    ]


def run_memory_sweep(
    spec: ClusterSpec,
    patterns: Sequence[AccessPattern],
    buffer_sizes: Sequence[int],
    sigma_bytes: float,
    seed: int = 0,
    mcio_config: Optional[MCIOConfig] = None,
    twophase_config: Optional[TwoPhaseConfig] = None,
    ops: Sequence[str] = ("write", "read"),
    strategies: Sequence[str] = ("two-phase", "mcio"),
    # accepted only because perfbench/workloads.py still passes it
    granularity: str = "round",
    tracer: Optional[Tracer] = None,
    jobs: Optional[int] = 1,
) -> list[SweepPoint]:
    """The paper's evaluation loop.

    For every nominal buffer size, both strategies run the same workload
    on a fresh platform whose per-node available memory is drawn from
    ``N(buffer, sigma)`` (same seed ⇒ both strategies see the *same*
    memory landscape, a paired comparison).

    Parameters
    ----------
    spec:
        Platform description.
    patterns:
        Per-rank file views (defines the rank count).
    buffer_sizes:
        Nominal aggregation-buffer sizes to sweep, bytes.
    sigma_bytes:
        Std-dev of the availability distribution (paper: 50 MB).
    mcio_config / twophase_config:
        Templates; ``cb_buffer_size`` is overridden per point.
    ops:
        Which operations to measure (order preserved).
    strategies:
        Subset of ``("two-phase", "mcio")``.
    granularity:
        Must be ``"round"``, the only shuffle timing model; any other
        value raises ValueError.
    tracer:
        Optional :class:`~repro.obs.Tracer` installed on every point's
        platform (timelines concatenated), for exporting the whole sweep
        as one trace.  A tracer forces the serial path (live timelines
        stay in-process), keeping traced sweeps bit-identical.
    jobs:
        Cell-sharding worker count: fan the (buffer, strategy) cells out
        across processes (``None``/``0`` = one per core, ``1`` = serial,
        the default).  Results are identical at any jobs count — every
        cell builds its own platform from the same seed.

    Returns
    -------
    list of SweepPoint
        One per (buffer, strategy, op); order independent of `jobs`.
    """
    if granularity != "round":
        raise ValueError(f"bad granularity {granularity!r}: lockstep only")
    mcio_template = mcio_config if mcio_config is not None else MCIOConfig()
    tp_template = (
        twophase_config if twophase_config is not None else TwoPhaseConfig()
    )
    cells = [
        (
            spec, tuple(patterns), buffer, strategy, sigma_bytes, seed,
            mcio_template, tp_template, tuple(ops),
        )
        for buffer in buffer_sizes
        for strategy in strategies
    ]
    if tracer is None and resolve_jobs(jobs) > 1:
        with ParallelRunner(jobs=jobs) as runner:
            per_cell = runner.map(_memory_sweep_cell, cells)
    else:
        per_cell = [_memory_sweep_cell(cell, tracer=tracer) for cell in cells]
    return [point for cell_points in per_cell for point in cell_points]
