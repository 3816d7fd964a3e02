"""Shared fixtures for the benchmark suite.

Figure benchmarks run reduced sweeps (fewer buffer points than the
experiment CLIs) via ``benchmark.pedantic`` — a full simulated
collective is the unit of measurement, not a micro-op.  Most run once
per session; the sweeps shared with ``perfbench`` run
:data:`SWEEP_ROUNDS` times so their spread is measured.
"""

import pytest


#: Timed rounds of a figure sweep: enough for a nonzero spread.
SWEEP_ROUNDS = 3


def one_shot(benchmark, fn, rounds=1):
    """Run `fn` `rounds` times under the benchmark timer; return its value."""
    return benchmark.pedantic(fn, rounds=rounds, iterations=1, warmup_rounds=0)


@pytest.fixture
def once(benchmark):
    """Fixture wrapping :func:`one_shot`."""

    def _run(fn):
        return one_shot(benchmark, fn)

    return _run


@pytest.fixture
def sweep(benchmark):
    """:func:`one_shot` over :data:`SWEEP_ROUNDS` rounds."""

    def _run(fn):
        return one_shot(benchmark, fn, rounds=SWEEP_ROUNDS)

    return _run
