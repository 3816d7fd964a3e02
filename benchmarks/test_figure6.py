"""Benchmark: Figure 6 — coll_perf bandwidth vs aggregation memory.

Times the benchmark's fig6-collperf sweep (``perfbench.workloads``: the
small config with 16x fewer bytes, three buffer points, write+read)
over several rounds, so this suite and ``python -m perfbench`` measure
the same work.  The paper's shape — MCIO wins at every point — is
asserted on the reduced small-config sweep (64/16/4 MiB), where it
holds; the fig6-collperf config does not reproduce it (MCIO loses at
its 1 MiB point).  The full five-point sweep is
``python -m repro.experiments.figure6``.
"""

from dataclasses import replace

from perfbench.workloads import fig6_config
from repro.cluster import MIB
from repro.experiments.figure6 import small_config
from repro.experiments.figures import run_figure


def test_figure6_sweep(sweep):
    timed = sweep(lambda: run_figure(fig6_config(0)))
    for op in ("write", "read"):
        assert len(timed.rows(op)) == 3

    config = replace(
        small_config(),
        buffer_sizes=tuple(m * MIB for m in (64, 16, 4)),
    )
    result = run_figure(config)
    issues = result.check_shape()
    assert issues == [], "\n".join(issues)

    for op in ("write", "read"):
        rows = result.rows(op)
        assert len(rows) == 3
        for buffer_bytes, base, mcio, improvement in rows:
            assert mcio >= base, f"{op}@{buffer_bytes}: MCIO lost"
    # the paper's headline: positive average improvement on both ops
    avgs = result.average_improvements()
    assert avgs["write"] > 15.0
    assert avgs["read"] > 15.0
