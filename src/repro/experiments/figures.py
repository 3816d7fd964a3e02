"""Shared configuration/result machinery for the figure experiments."""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import ClassVar, Optional, Sequence

from repro.cluster import ClusterSpec
from repro.core import MCIOConfig
from repro.core.request import AccessPattern

from .harness import SweepPoint, run_memory_sweep
from .report import average_improvements, sweep_rows, sweep_table

__all__ = ["FigureConfig", "FigureResult", "run_figure", "figure_cli"]


@dataclass(frozen=True)
class FigureConfig:
    """One figure's reproduction setup."""

    figure_id: str
    description: str
    spec: ClusterSpec
    workload: object  # CollPerfWorkload | IORWorkload (needs .patterns())
    buffer_sizes: tuple[int, ...]
    sigma_bytes: float
    mcio: MCIOConfig
    # read, not set, by perfbench/workloads.py; not a constructor field
    granularity: ClassVar[str] = "round"
    seed: int = 0
    paper_reference: str = ""

    def patterns(self) -> list[AccessPattern]:
        """Per-rank file views of the workload."""
        return self.workload.patterns()


@dataclass
class FigureResult:
    """Points plus rendering/validation helpers."""

    config: FigureConfig
    points: list[SweepPoint] = field(default_factory=list)

    def rows(self, op: str):
        """``(buffer, baseline, mcio, improvement %)`` per swept buffer."""
        return sweep_rows(self.points, op)

    def table(self, op: str) -> str:
        """One op's results as text."""
        return sweep_table(
            self.points, op,
            title=f"{self.config.figure_id} — {op} — {self.config.description}",
        )

    def render(self) -> str:
        """Both tables plus the headline averages."""
        parts = [self.table("write"), "", self.table("read"), ""]
        avgs = average_improvements(self.points)
        parts.append(
            "average improvement: "
            + ", ".join(f"{op} {v:+.1f}%" for op, v in sorted(avgs.items()))
        )
        if self.config.paper_reference:
            parts.append(f"paper reported: {self.config.paper_reference}")
        return "\n".join(parts)

    def average_improvements(self) -> dict[str, float]:
        """Mean improvement per op across the sweep."""
        return average_improvements(self.points)

    # ------------------------------------------------------------------
    def check_shape(self) -> list[str]:
        """Validate the qualitative claims; returns a list of violations.

        Checks (the reproduction targets from DESIGN.md §4):

        * MCIO's bandwidth is at least the baseline's at every swept point
          (small tolerance) — "who wins" with no crossover;
        * neither strategy *gains* bandwidth as memory shrinks (memory
          pressure hurts; a small tolerance absorbs sampling noise);
        * the MCIO advantage is substantial somewhere in the sweep.
        """
        issues: list[str] = []
        for op in ("write", "read"):
            rows = self.rows(op)
            if not rows:
                continue
            for b, base, mcio, imp in rows:
                if mcio < base * 0.98:
                    issues.append(
                        f"{op}@{b / 2**20:g}MiB: MCIO {mcio:.1f} < "
                        f"baseline {base:.1f} MiB/s"
                    )
            largest, smallest = rows[0], rows[-1]
            for name, big, small in (
                ("two-phase", largest[1], smallest[1]),
                ("mcio", largest[2], smallest[2]),
            ):
                if small > big * 1.10:
                    issues.append(
                        f"{op}: {name} bandwidth rose as memory shrank "
                        f"({big:.1f} -> {small:.1f})"
                    )
            if max(r[3] for r in rows) < 15.0:
                issues.append(
                    f"{op}: MCIO advantage never exceeded 15% "
                    f"(max {max(r[3] for r in rows):+.1f}%)"
                )
        return issues


def run_figure(config: FigureConfig, tracer=None, jobs=1) -> FigureResult:
    """Execute a figure's sweep (optionally tracing every point).

    `jobs` fans the sweep's independent (buffer, strategy) cells out
    across worker processes (``1`` = serial; a tracer forces serial).
    """
    points = run_memory_sweep(
        spec=config.spec,
        patterns=config.patterns(),
        buffer_sizes=config.buffer_sizes,
        sigma_bytes=config.sigma_bytes,
        seed=config.seed,
        mcio_config=config.mcio,
        tracer=tracer,
        jobs=jobs,
    )
    return FigureResult(config=config, points=points)


def figure_cli(
    small_factory, paper_factory, argv: Optional[Sequence[str]] = None
) -> None:
    """Standard ``__main__`` for figure modules: ``--scale small|paper``."""
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--scale",
        choices=["small", "paper"],
        default="small",
        help="small: minutes-scale run; paper: full-size parameters",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also save the sweep points as JSON (repro.sweep/1 schema)",
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
    factory = small_factory if args.scale == "small" else paper_factory
    config = factory(seed=args.seed)
    tracer = None
    if args.trace_out:
        from repro.obs import Tracer

        tracer = Tracer(capacity=1 << 20)
    result = run_figure(config, tracer=tracer, jobs=args.jobs)
    print(result.render())
    if tracer is not None:
        from repro.obs import write_chrome

        write_chrome(tracer, args.trace_out)
        print(
            f"\nwrote {len(tracer)} trace events to {args.trace_out} "
            f"({tracer.dropped} dropped) — load in ui.perfetto.dev"
        )
    if args.json:
        from .persistence import save_points

        save_points(
            args.json,
            result.points,
            figure_id=config.figure_id,
            description=config.description,
        )
        print(f"\nsaved sweep points to {args.json}")
    issues = result.check_shape()
    if issues:
        print("\nSHAPE WARNINGS:")
        for issue in issues:
            print(f"  - {issue}")
    else:
        print("\nshape checks passed")
