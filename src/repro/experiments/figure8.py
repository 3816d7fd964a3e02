"""Figure 8: IOR bandwidth vs aggregation memory at 1080 cores.

Paper setup: IOR interleaved at 1080 processes (90 nodes), aggregation
memory swept 128 MB -> 2 MB.  Paper result: the baseline's write
bandwidth dropped from 1631.91 to 396.36 MB/s (4.1x) and read from
2047.05 to 861.62 MB/s (2.4x); MCIO improved write by +24.3 % and read
by +57.8 % on average.

``small`` scale keeps all 1080 processes but moves 2 MiB per process
(2.1 GiB shared file) over four sweep points; ``paper`` scale moves the
full 32 MB per process (33.75 GB file, metadata-only).

Run as a script::

    python -m repro.experiments.figure8 [--scale small|paper]
"""

from __future__ import annotations

from repro.cluster import MIB, ross13_testbed
from repro.core import MCIOConfig
from repro.workloads import IORWorkload

from .figures import FigureConfig, FigureResult, figure_cli, run_figure

__all__ = ["small_config", "paper_config", "run", "main"]

_PAPER_REFERENCE = (
    "baseline write 1631.91->396.36 MB/s, read 2047.05->861.62 MB/s "
    "(128->2 MB); MCIO avg +24.3% write, +57.8% read (Fig. 8)"
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
    """1080 ranks x 8 MiB interleaved (8.4 GiB file); buffers 32 -> 4 MiB.

    Per-rank data is kept large enough that file domains span several
    buffer rounds — the regime where aggregation memory matters.
    """
    return FigureConfig(
        figure_id="Figure 8 (small)",
        description="IOR interleaved 8 MiB/proc, 1080 procs, 90 nodes",
        spec=ross13_testbed(nodes=90),
        workload=IORWorkload(n_ranks=1080, block_size=2 * MIB, segments=4),
        buffer_sizes=tuple(m * MIB for m in (32, 16, 8, 4)),
        sigma_bytes=50 * MIB,
        mcio=_mcio(msg_group=384 * MIB, msg_ind=96 * MIB),
        seed=seed,
        paper_reference=_PAPER_REFERENCE,
    )


def paper_config(seed: int = 0) -> FigureConfig:
    """The paper's 32 MB per process at 1080 ranks, buffers 128 -> 2 MB."""
    return FigureConfig(
        figure_id="Figure 8 (paper)",
        description="IOR interleaved 32 MB/proc, 1080 procs, 90 nodes",
        spec=ross13_testbed(nodes=90),
        workload=IORWorkload.paper(n_ranks=1080),
        buffer_sizes=tuple(m * MIB for m in (128, 64, 32, 16, 8, 4, 2)),
        sigma_bytes=50 * MIB,
        mcio=_mcio(msg_group=1536 * MIB, msg_ind=256 * MIB),
        seed=seed,
        paper_reference=_PAPER_REFERENCE,
    )


def run(config: FigureConfig | None = None, seed: int = 0) -> FigureResult:
    """Run the Figure 8 sweep (small scale by default)."""
    return run_figure(config if config is not None else small_config(seed))


def main() -> None:
    """CLI entry point."""
    figure_cli(small_config, paper_config)


if __name__ == "__main__":
    main()
