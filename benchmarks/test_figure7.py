"""Benchmark: Figure 7 — IOR bandwidth vs aggregation memory, 120 cores.

Reduced sweep (three buffer points) of the Figure 7 reproduction.  The
full sweep is ``python -m repro.experiments.figure7``.
"""

from dataclasses import replace

from repro.cluster import MIB
from repro.experiments.figure7 import small_config
from repro.experiments.figures import run_figure


def test_figure7_sweep(sweep):
    config = replace(
        small_config(),
        buffer_sizes=tuple(m * MIB for m in (64, 16, 4)),
    )
    result = sweep(lambda: run_figure(config))
    issues = result.check_shape()
    assert issues == [], "\n".join(issues)

    avgs = result.average_improvements()
    # paper: +81.2% write / +82.4% read on the interleaved IOR workload
    assert avgs["write"] > 40.0
    assert avgs["read"] > 40.0
    # baseline read bandwidth degrades as memory shrinks (paper Fig. 7)
    rows = result.rows("read")
    assert rows[-1][1] < rows[0][1]
