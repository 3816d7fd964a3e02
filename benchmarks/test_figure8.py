"""Benchmark: Figure 8 — IOR at 1080 cores vs aggregation memory.

Times the benchmark's fig8-ior1080 sweep (``perfbench.workloads``: all
1080 ranks on 90 nodes, 1 MiB interleaved per rank, 32 and 4 MiB
buffers) over several rounds, so this suite and ``python -m perfbench``
measure the same work.  The paper's shape is asserted on the reduced
small-config sweep (32/4 MiB), where it holds; at 1 MiB per rank the
baseline barely degrades and MCIO's write advantage stays under 15%.
The full sweep is ``python -m repro.experiments.figure8``.
"""

from dataclasses import replace

from perfbench.workloads import fig8_config
from repro.cluster import MIB
from repro.experiments.figure8 import small_config
from repro.experiments.figures import run_figure


def test_figure8_sweep(sweep):
    timed = sweep(lambda: run_figure(fig8_config(0)))
    for op in ("write", "read"):
        assert len(timed.rows(op)) == 2

    config = replace(
        small_config(),
        buffer_sizes=tuple(m * MIB for m in (32, 4)),
    )
    result = run_figure(config)
    issues = result.check_shape()
    assert issues == [], "\n".join(issues)

    for op in ("write", "read"):
        rows = result.rows(op)
        big, small = rows[0], rows[-1]
        # the paper's headline degradation: the baseline loses a large
        # factor from the big-memory to the small-memory end
        # (write 4.1x, read 2.4x in the paper)
        assert big[1] / small[1] > 2.0, f"{op}: baseline degraded too little"
        # MCIO wins at both ends, by more at the starved end
        assert small[3] > big[3]
        assert small[3] > 50.0
