"""Figure 6: coll_perf write/read bandwidth vs aggregation memory, 120 cores.

Paper setup: 2048^3 x 4 B array (32 GB file), 120 MPI processes on the
640-node testbed (10 nodes used), Lustre with 1 MB stripes, aggregation
memory per aggregator swept 128 MB -> 2 MB.  Paper result: memory-
conscious collective I/O outperformed two-phase at every memory size —
average +34.2 % write, +22.9 % read — with the gap widening at small
memory sizes.

``small`` scale shrinks the array to 1 GiB (512x512x1024 x 4 B) and the
sweep to five points so the run takes seconds; ``paper`` scale uses the
full 32 GB geometry (metadata-only, still simulable).

Run as a script::

    python -m repro.experiments.figure6 [--scale small|paper]
"""

from __future__ import annotations

from repro.cluster import MIB, ross13_testbed
from repro.core import MCIOConfig
from repro.workloads import CollPerfWorkload

from .figures import FigureConfig, FigureResult, figure_cli, run_figure

__all__ = ["small_config", "paper_config", "run", "main"]

_PAPER_REFERENCE = "avg +34.2% write, +22.9% read (Fig. 6)"


def _mcio(msg_group: int, msg_ind: int) -> MCIOConfig:
    return MCIOConfig(
        msg_group=msg_group,
        msg_ind=msg_ind,
        mem_min=0,
        nah=2,
        min_buffer=1 * MIB,
    )


def small_config(seed: int = 0) -> FigureConfig:
    """1 GiB array on 120 ranks / 10 nodes; buffers 64 -> 4 MiB."""
    return FigureConfig(
        figure_id="Figure 6 (small)",
        description="coll_perf 512x512x1024 x 4 B, 120 procs, 10 nodes",
        spec=ross13_testbed(nodes=10),
        workload=CollPerfWorkload(
            array_shape=(512, 512, 1024), n_ranks=120, elem_size=4
        ),
        buffer_sizes=tuple(m * MIB for m in (64, 32, 16, 8, 4)),
        sigma_bytes=50 * MIB,
        # groups spanning ~4 nodes so aggregator relocation has room
        mcio=_mcio(msg_group=384 * MIB, msg_ind=32 * MIB),
        seed=seed,
        paper_reference=_PAPER_REFERENCE,
    )


def paper_config(seed: int = 0) -> FigureConfig:
    """The paper's full geometry: 2048^3 x 4 B = 32 GB, buffers 128 -> 2 MB."""
    return FigureConfig(
        figure_id="Figure 6 (paper)",
        description="coll_perf 2048^3 x 4 B (32 GB), 120 procs, 10 nodes",
        spec=ross13_testbed(nodes=10),
        workload=CollPerfWorkload.paper(),
        buffer_sizes=tuple(m * MIB for m in (128, 64, 32, 16, 8, 4, 2)),
        sigma_bytes=50 * MIB,
        mcio=_mcio(msg_group=2048 * MIB, msg_ind=128 * MIB),
        seed=seed,
        paper_reference=_PAPER_REFERENCE,
    )


def run(config: FigureConfig | None = None, seed: int = 0) -> FigureResult:
    """Run the Figure 6 sweep (small scale by default)."""
    return run_figure(config if config is not None else small_config(seed))


def main() -> None:
    """CLI entry point."""
    figure_cli(small_config, paper_config)


if __name__ == "__main__":
    main()
