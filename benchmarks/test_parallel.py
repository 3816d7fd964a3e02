"""Benchmark tier for cell-parallel sweeps.

Two cells pin the cell-sharding story on the trajectory:

* a reduced resilience chaos sweep through the serial cell loop — the
  baseline the parallel runner must beat;
* the same sweep fanned across 4 workers — on a multi-core runner the
  ratio of these two medians is the cell-sharding speedup (the issue's
  target is >=3x at jobs=4).  The ratio is *recorded*, not asserted:
  it measures the runner's core count as much as the code, and on a
  single-core machine (CI fallback, this container) the two medians
  legitimately coincide.  The compare step's machine stamp flags such
  runs.

Functional results are asserted so a silent fallback to the serial
path fails loudly rather than just slowly.

Run with::

    PYTHONPATH=src python -m pytest benchmarks -q --benchmark-json=BENCH_FULL.json
"""

from repro.experiments import resilience

#: Reduced chaos sweep: 3 rates x 3 strategies = 9 cells, ~2s serial.
CHAOS = dict(fault_rates=(0.0, 0.5, 1.0), n_ranks=8, n_nodes=2,
             payload_kib=256, horizon=6.0)


def _check_chaos(result) -> int:
    assert len(result.points) == 9
    assert {p.strategy for p in result.points} == {
        "two-phase", "mcio-static", "mcio"
    }
    return len(result.points)


def test_chaos_sweep_serial(benchmark):
    """Baseline: the reduced resilience sweep through the serial loop."""
    assert _check_chaos(benchmark(lambda: resilience.run(**CHAOS))) == 9


def test_chaos_sweep_jobs4(benchmark):
    """The same sweep fanned across 4 worker processes.

    median(serial) / median(jobs4) is the trajectory's cell-sharding
    speedup figure; compare it across BENCH_N points with the machine
    stamp in mind.
    """
    result = benchmark(lambda: resilience.run(jobs=4, **CHAOS))
    _check_chaos(result)
    # parallel cells must reproduce the serial sweep exactly
    serial = resilience.run(**CHAOS)

    def flat(res):
        return [
            (p.fault_rate, p.strategy, p.outages, p.node_failures,
             p.completed, p.stats.to_json())
            for p in res.points
        ]

    assert flat(result) == flat(serial)

