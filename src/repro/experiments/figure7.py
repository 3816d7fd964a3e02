"""Figure 7: IOR write/read bandwidth vs aggregation memory, 120 cores.

Paper setup: IOR interleaved read/write, 32 MB I/O data per MPI process,
120 processes (10 nodes), aggregation memory swept 128 MB -> 2 MB.
Paper result: best write improvement at 16 MB (~2.2x the baseline); read
+89.1 % at 8 MB; write improvements 40.3-121.7 %, read 64.6-97.4 %;
averages +81.2 % write, +82.4 % read.

``small`` scale keeps the 120 processes but moves 4 MiB per process
(480 MiB shared file) and sweeps five points; ``paper`` scale moves the
full 32 MB per process.

Run as a script::

    python -m repro.experiments.figure7 [--scale small|paper]
"""

from __future__ import annotations

from repro.cluster import MIB, ross13_testbed
from repro.core import MCIOConfig
from repro.workloads import IORWorkload

from .figures import FigureConfig, FigureResult, figure_cli, run_figure

__all__ = ["small_config", "paper_config", "run", "main"]

_PAPER_REFERENCE = (
    "write +40.3..121.7% (avg +81.2%), read +64.6..97.4% (avg +82.4%) (Fig. 7)"
)


def _mcio(msg_group: int, msg_ind: int) -> MCIOConfig:
    return MCIOConfig(
        msg_group=msg_group,
        msg_ind=msg_ind,
        mem_min=0,
        nah=4,
        min_buffer=1 * MIB,
    )


def small_config(seed: int = 0) -> FigureConfig:
    """120 ranks x 4 MiB interleaved (480 MiB file); buffers 64 -> 4 MiB."""
    return FigureConfig(
        figure_id="Figure 7 (small)",
        description="IOR interleaved 4 MiB/proc, 120 procs, 10 nodes",
        spec=ross13_testbed(nodes=10),
        workload=IORWorkload(n_ranks=120, block_size=1 * MIB, segments=4),
        buffer_sizes=tuple(m * MIB for m in (64, 32, 16, 8, 4)),
        sigma_bytes=50 * MIB,
        mcio=_mcio(msg_group=96 * MIB, msg_ind=16 * MIB),
        seed=seed,
        paper_reference=_PAPER_REFERENCE,
    )


def paper_config(seed: int = 0) -> FigureConfig:
    """The paper's 32 MB per process, buffers 128 -> 2 MB."""
    return FigureConfig(
        figure_id="Figure 7 (paper)",
        description="IOR interleaved 32 MB/proc, 120 procs, 10 nodes",
        spec=ross13_testbed(nodes=10),
        workload=IORWorkload.paper(n_ranks=120),
        buffer_sizes=tuple(m * MIB for m in (128, 64, 32, 16, 8, 4, 2)),
        sigma_bytes=50 * MIB,
        mcio=_mcio(msg_group=768 * MIB, msg_ind=128 * MIB),
        seed=seed,
        paper_reference=_PAPER_REFERENCE,
    )


def run(config: FigureConfig | None = None, seed: int = 0) -> FigureResult:
    """Run the Figure 7 sweep (small scale by default)."""
    return run_figure(config if config is not None else small_config(seed))


def main() -> None:
    """CLI entry point."""
    figure_cli(small_config, paper_config)


if __name__ == "__main__":
    main()
