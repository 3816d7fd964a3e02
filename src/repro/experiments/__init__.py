"""Reproduction experiments: Table 1 and Figures 6-8, plus extensions.

Each experiment module has a ``run()`` returning a structured result and
a ``main()`` CLI entry point::

    python -m repro.experiments.table1
    python -m repro.experiments.figure6 [--scale small|paper]
    python -m repro.experiments.figure7 [--scale small|paper]
    python -m repro.experiments.figure8 [--scale small|paper]
    python -m repro.experiments.memory_pressure
    python -m repro.experiments.ablation
    python -m repro.experiments.dynamic_memory
    python -m repro.experiments.topology
    python -m repro.experiments.resilience
    python -m repro.experiments.pipeline
    python -m repro.experiments.tenancy

The experiment modules are not imported here (``from repro.experiments
import figure6`` loads one on first use): an eager import would make
``python -m repro.experiments.<name>`` run its module body twice.
"""

from .figures import FigureConfig, FigureResult, run_figure
from .harness import Platform, SweepPoint, run_collective, run_memory_sweep
from .persistence import load_points, save_points, stats_from_dict, stats_to_dict
from .report import (
    average_improvements,
    format_table,
    improvement_pct,
    sweep_rows,
    sweep_table,
)

__all__ = [
    "FigureConfig",
    "FigureResult",
    "Platform",
    "SweepPoint",
    "ablation",
    "average_improvements",
    "dynamic_memory",
    "figure6",
    "figure7",
    "figure8",
    "format_table",
    "improvement_pct",
    "load_points",
    "memory_pressure",
    "pipeline",
    "run_collective",
    "run_figure",
    "run_memory_sweep",
    "save_points",
    "stats_from_dict",
    "stats_to_dict",
    "resilience",
    "sweep_rows",
    "sweep_table",
    "table1",
    "tenancy",
    "topology",
]
