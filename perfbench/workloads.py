"""The benchmark's workloads: fixed work, seeded inputs, checked records.

Each workload is a batch job run closed-loop by one client: the next
iteration starts when the previous one returns.  Sizes are fixed here;
the seed is the only input that varies.  One iteration writes and reads
through the simulator and returns *records* — one per figure sweep
point, ladder row or checkpoint cell — carrying the simulated outputs
the benchmark checks:

* against the expectation file for the seed, when one exists
  (``expected/<workload>.seed<S>.json``, written by ``record``);
* against the first iteration of the same run (the simulator is
  deterministic, so every iteration must reproduce it);
* against the workload's invariants.

Importing this module imports the simulator; call
:func:`perfbench.use_checkout_source` first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Optional

from repro.cluster import KIB, MIB
from repro.experiments import figure6, figure8, pipeline, scale_sweep
from repro.experiments.figures import FigureConfig, FigureResult
from repro.experiments.harness import run_memory_sweep
from repro.parallel import cell_seed
from repro.workloads import CollPerfWorkload, IORWorkload

from perfbench import BENCH_DIR

__all__ = [
    "WORKLOADS",
    "Outcome",
    "Tally",
    "Workload",
    "expected_path",
    "load_expected",
]

EXPECTED_DIR = BENCH_DIR / "expected"

#: fig6-collperf: the Figure 6 small config with the array cut 16x in
#: bytes (512x512x1024 -> 128x128x1024 x 4 B) and every byte-valued knob
#: cut by the same factor, so each sweep point plans about as many
#: rounds as the full small config while one sweep takes seconds.
FIG6_SHAPE = (128, 128, 1024)
FIG6_SCALE = 16
FIG6_BUFFERS_MIB = (64, 16, 4)

#: fig8-ior1080: all 1080 ranks of the Figure 8 small config, 1 MiB per
#: rank as two interleaved 512 KiB segments, at the two ends of the
#: buffer sweep.
FIG8_BLOCK = 512 * KIB
FIG8_SEGMENTS = 2
FIG8_BUFFERS_MIB = (32, 4)

#: scale-250k: the vectorized ladder 10^3, 10^4, 10^5, 2.5x10^5 ranks.
SCALE_TARGET = 250_000
SCALE_RANKS_PER_NODE = 64
SCALE_BYTES_PER_RANK = 256 * KIB

#: ckpt-2tenant: the pipeline sweep's 12 cells, 2 co-located tenants.
CKPT_STEPS = 6
CKPT_TENANTS = 2


@dataclass
class Outcome:
    """What one iteration produced."""

    records: list
    #: qualitative figure-shape violations; reported, never failures
    shape_violations: list


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    An iteration runs every cell once, in order.  Cells are the
    workload's independent units of fixed work — figure sweep points,
    ladder points, checkpoint cells — each on a fresh platform, exactly
    as the experiment's own serial loop runs them; the worker times
    them one by one.
    """

    name: str
    #: seed -> inputs; everything here counts as set-up, not as work
    prepare: Callable[[int], Any]
    #: inputs -> the cells of one iteration
    cells: Callable[[Any], list]
    #: (inputs, cell) -> the cell's result; the work that is timed
    run_cell: Callable[[Any, Any], Any]
    #: (inputs, every cell's result) -> Outcome
    outcome: Callable[[Any, list], Outcome]
    #: (inputs, records) -> [(record key, message)] for broken invariants
    invariants: Callable[[Any, list], list]

    def execute(self, inputs) -> Outcome:
        """One iteration, untimed."""
        results = [self.run_cell(inputs, cell) for cell in self.cells(inputs)]
        return self.outcome(inputs, results)


# ----------------------------------------------------------------------
# figure sweeps (per-rank reference path)


@dataclass(frozen=True)
class _FigureInputs:
    config: FigureConfig
    #: per-rank file views, built once during set-up
    patterns: tuple
    total_bytes: int


def _figure_inputs(config: FigureConfig) -> _FigureInputs:
    patterns = tuple(config.patterns())
    return _FigureInputs(
        config=config,
        patterns=patterns,
        total_bytes=sum(p.nbytes for p in patterns),
    )


def fig6_config(seed: int) -> FigureConfig:
    """The fig6-collperf sweep: the small config, 16x fewer bytes."""
    base = figure6.small_config(seed)
    m = base.mcio
    d = FIG6_SCALE
    return replace(
        base,
        workload=CollPerfWorkload(
            array_shape=FIG6_SHAPE,
            n_ranks=base.workload.n_ranks,
            elem_size=base.workload.elem_size,
        ),
        buffer_sizes=tuple(b * MIB // d for b in FIG6_BUFFERS_MIB),
        sigma_bytes=base.sigma_bytes / d,
        mcio=replace(
            m,
            msg_group=m.msg_group // d,
            msg_ind=m.msg_ind // d,
            min_buffer=m.min_buffer // d,
        ),
    )


def fig8_config(seed: int) -> FigureConfig:
    """The fig8-ior1080 sweep: 1080 ranks, 1 MiB interleaved per rank."""
    base = figure8.small_config(seed)
    return replace(
        base,
        workload=IORWorkload(
            n_ranks=base.workload.n_ranks,
            block_size=FIG8_BLOCK,
            segments=FIG8_SEGMENTS,
        ),
        buffer_sizes=tuple(b * MIB for b in FIG8_BUFFERS_MIB),
    )


def _figure_cells(inputs: _FigureInputs) -> list:
    # run_figure's sweep order: buffers outer, strategies inner
    return [
        (buffer, strategy)
        for buffer in inputs.config.buffer_sizes
        for strategy in ("two-phase", "mcio")
    ]


def _figure_cell(inputs: _FigureInputs, cell) -> list:
    buffer, strategy = cell
    config = inputs.config
    return run_memory_sweep(
        spec=config.spec,
        patterns=inputs.patterns,
        buffer_sizes=(buffer,),
        sigma_bytes=config.sigma_bytes,
        seed=config.seed,
        mcio_config=config.mcio,
        strategies=(strategy,),
        granularity=config.granularity,
    )


def _figure_outcome(inputs: _FigureInputs, results: list) -> Outcome:
    result = FigureResult(
        config=inputs.config, points=[p for points in results for p in points]
    )
    records = [
        {
            "key": f"{p.buffer_bytes}/{p.strategy}/{p.op}",
            "elapsed": repr(p.stats.elapsed),
            "total_bytes": p.stats.total_bytes,
            "rounds_total": p.stats.rounds_total,
            "n_aggregators": p.stats.n_aggregators,
            "execution_mode": p.stats.execution_mode,
            "tier": p.stats.degraded_tier,
        }
        for p in result.points
    ]
    return Outcome(records=records, shape_violations=result.check_shape())


def _figure_invariants(inputs: _FigureInputs, records: list) -> list:
    problems = []
    want = len(inputs.config.buffer_sizes) * 2 * 2
    if len(records) != want:
        problems.append(("sweep", f"{len(records)} points, want {want}"))
    for r in records:
        if r["total_bytes"] != inputs.total_bytes:
            problems.append(
                (r["key"], f"moved {r['total_bytes']} B of {inputs.total_bytes}")
            )
        if r["execution_mode"] != "per-rank":
            problems.append((r["key"], f"ran {r['execution_mode']}"))
    return problems


# ----------------------------------------------------------------------
# vectorized rank ladder


def _scale_cell(seed: int, n_ranks: int) -> list:
    # the per-point seed run_sweep derives, so records match its output
    return scale_sweep.run_point(
        n_ranks,
        SCALE_RANKS_PER_NODE,
        SCALE_BYTES_PER_RANK,
        seed=cell_seed(
            seed, n_ranks, SCALE_RANKS_PER_NODE, SCALE_BYTES_PER_RANK
        ),
    )


def _scale_outcome(seed: int, results: list) -> Outcome:
    records = [
        {
            "key": f"{r['ranks']}/{r['op']}",
            "elapsed": repr(r["sim_elapsed_s"]),
            "total_bytes": r["total_bytes"],
            "rounds_total": r["rounds_total"],
            "n_aggregators": r["n_aggregators"],
            "execution_mode": r["execution_mode"],
            "refusals": r["vectorized_refusals"],
        }
        for rows in results
        for r in rows
    ]
    return Outcome(records=records, shape_violations=[])


def _scale_invariants(seed: int, records: list) -> list:
    problems = []
    want = 2 * len(scale_sweep.rank_ladder(SCALE_TARGET))
    if len(records) != want:
        problems.append(("ladder", f"{len(records)} rows, want {want}"))
    for r in records:
        ranks = int(r["key"].split("/")[0])
        if r["execution_mode"] != "vectorized" or r["refusals"] != 0:
            problems.append(
                (r["key"], f"ran {r['execution_mode']}, {r['refusals']} refusals")
            )
        if r["total_bytes"] != ranks * SCALE_BYTES_PER_RANK:
            problems.append((r["key"], f"moved {r['total_bytes']} B"))
    return problems


# ----------------------------------------------------------------------
# persistent / pipelined checkpoint loop with two tenants


def _ckpt_cells(seed: int) -> list:
    # pipeline.run's cells, in its order
    return [
        (regime, mode, op, CKPT_STEPS, seed, CKPT_TENANTS)
        for regime in pipeline.REGIMES
        for op in ("write", "read")
        for mode in pipeline.MODES
    ]


def _ckpt_outcome(seed: int, points: list) -> Outcome:
    records = [
        {
            "key": f"{p.regime}/{p.mode}/{p.op}",
            "elapsed": repr(p.elapsed),
            "total_bytes": p.stats.total_bytes,
            "rounds_total": p.stats.rounds_total,
            "n_aggregators": p.stats.n_aggregators,
            "execution_mode": p.stats.execution_mode,
            "tier": p.stats.degraded_tier,
            "sha256": p.datastore_sha256,
            "replans": p.replans,
        }
        for p in points
    ]
    return Outcome(records=records, shape_violations=[])


def _ckpt_invariants(seed: int, records: list) -> list:
    problems = []
    want = len(pipeline.REGIMES) * len(pipeline.MODES) * 2
    if len(records) != want:
        problems.append(("cells", f"{len(records)} cells, want {want}"))
    images: dict = {}
    for r in records:
        regime, mode, op = r["key"].split("/")
        images.setdefault((regime, op), set()).add(r["sha256"])
        # a persistent handle plans once per tenant; blocking never replans
        replans = 0 if mode == "blocking" else CKPT_TENANTS
        if r["replans"] != replans:
            problems.append((r["key"], f"{r['replans']} replans, want {replans}"))
        if r["total_bytes"] != pipeline.N_RANKS * pipeline.BLOCK:
            problems.append((r["key"], f"moved {r['total_bytes']} B"))
    for (regime, op), digests in images.items():
        if len(digests) != 1:
            problems.append((f"{regime}/*/{op}", "images differ across modes"))
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fig6-collperf",
            prepare=lambda seed: _figure_inputs(fig6_config(seed)),
            cells=_figure_cells,
            run_cell=_figure_cell,
            outcome=_figure_outcome,
            invariants=_figure_invariants,
        ),
        Workload(
            name="fig8-ior1080",
            prepare=lambda seed: _figure_inputs(fig8_config(seed)),
            cells=_figure_cells,
            run_cell=_figure_cell,
            outcome=_figure_outcome,
            invariants=_figure_invariants,
        ),
        Workload(
            name="scale-250k",
            prepare=lambda seed: seed,
            cells=lambda seed: scale_sweep.rank_ladder(SCALE_TARGET),
            run_cell=_scale_cell,
            outcome=_scale_outcome,
            invariants=_scale_invariants,
        ),
        Workload(
            name="ckpt-2tenant",
            prepare=lambda seed: seed,
            cells=_ckpt_cells,
            # the sweep's own per-cell function, as its serial loop calls it
            run_cell=lambda seed, cell: pipeline._pipeline_cell(cell),
            outcome=_ckpt_outcome,
            invariants=_ckpt_invariants,
        ),
    )
}


def expected_path(name: str, seed: int) -> Path:
    """Where the expectation file of (`name`, `seed`) lives."""
    return EXPECTED_DIR / f"{name}.seed{seed}.json"


def load_expected(name: str, seed: int) -> Optional[list]:
    """The expected records of (`name`, `seed`), or None if unrecorded."""
    path = expected_path(name, seed)
    if not path.is_file():
        return None
    return json.loads(path.read_text())["records"]


class Tally:
    """Counts records checked and failed across one run's iterations."""

    def __init__(self, expected: Optional[list] = None):
        self.expected = expected
        self.reference: Optional[list] = None
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.shape_violations: Optional[list] = None

    def _fail(self, n: int, message: str) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(message)

    def crashed(self, error: str) -> None:
        """An iteration raised: every record it owed counts as failed."""
        owed = len(self.expected or self.reference or ()) or 1
        self.attempted += owed
        self._fail(owed, f"iteration raised: {error}")

    def add(self, inputs, workload: Workload, outcome: Outcome) -> None:
        """Check one iteration's records."""
        if self.reference is None:
            self.reference = outcome.records
            self.shape_violations = outcome.shape_violations
        got = {r["key"]: r for r in outcome.records}
        bad: dict = {}
        for key, message in workload.invariants(inputs, outcome.records):
            bad.setdefault(key, message)
        for label, want in (
            ("expectation", self.expected),
            ("first iteration", self.reference),
        ):
            if want is None:
                continue
            want_by_key = {r["key"]: r for r in want}
            for key in sorted(want_by_key.keys() | got.keys()):
                if want_by_key.get(key) != got.get(key):
                    bad.setdefault(
                        key,
                        f"{label} {want_by_key.get(key)} != {got.get(key)}",
                    )
        keys = set(got) | set(bad)
        if self.expected is not None:
            keys |= {r["key"] for r in self.expected}
        self.attempted += len(keys)
        for key, message in sorted(bad.items()):
            self._fail(1, f"{key}: {message}")
