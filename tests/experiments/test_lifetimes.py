"""A finished cell's platform is freed by reference counting alone.

Every simulated platform is cycle-free: owners hold their parts, parts
refer back weakly or not at all, subscriber registries hold bound methods
weakly, and no event holds itself.  Failures are no exception: a failed
storage request's exception keeps no frame of the hold that raised it or
of the processes it was thrown into, and a request raced against its
retry timeout leaves a timer that refers to nothing (DESIGN.md §7).  So
the moment a cell's result is dropped, its environment, cluster,
communicator, file system, datastore and engines are gone — with the
cyclic collector disabled — and a collection afterwards finds nothing of
ours to reclaim.

This is the contract that keeps ``Environment.run``'s collector pause
sound: a cycle made during a run would stay until the run returns.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace

import pytest

from repro.cluster import KIB, Cluster
from repro.core import MemoryConsciousCollectiveIO, TwoPhaseCollectiveIO
from repro.experiments import figure6, figure8, pipeline, resilience, scale_sweep
from repro.experiments.harness import run_memory_sweep
from repro.mpi import SimComm
from repro.pfs import ParallelFileSystem, SparseFile
from repro.sim import Environment, Resource
from repro.workloads import CollPerfWorkload, IORWorkload

from tests.pfs import test_service_order as service_order

TRACKED = (
    Environment,
    Cluster,
    SimComm,
    ParallelFileSystem,
    SparseFile,
    MemoryConsciousCollectiveIO,
    TwoPhaseCollectiveIO,
)


@pytest.fixture
def births(monkeypatch):
    """Weak references to every tracked object constructed in the test."""
    born: list = []

    def track(cls):
        original = cls.__init__

        def init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            born.append(weakref.ref(self))

        monkeypatch.setattr(cls, "__init__", init)

    for cls in TRACKED:
        track(cls)
    return born


def _run_cell_without_collector(run, born):
    """Run `run()` with the collector off, drop its result, check lifetimes."""
    gc.collect()
    gc.disable()
    try:
        result = run()
        assert result is not None
        del result
        kinds = {type(ref()).__name__ for ref in born if ref() is not None}
        assert not kinds, f"alive after the cell returned: {sorted(kinds)}"
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        ours = sorted(
            {
                f"{type(o).__module__}.{type(o).__qualname__}"
                for o in gc.garbage
                if type(o).__module__.startswith("repro.")
            }
        )
        assert ours == [], f"reclaimed only by the cyclic collector: {ours}"
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def _figure_point(config, patterns, strategy):
    mcio = replace(
        config.mcio, msg_group=256 * KIB, msg_ind=64 * KIB, min_buffer=4 * KIB
    )
    return lambda: run_memory_sweep(
        spec=config.spec,
        patterns=patterns,
        buffer_sizes=(64 * KIB,),
        sigma_bytes=16 * KIB,
        seed=0,
        mcio_config=mcio,
        strategies=(strategy,),
    )


@pytest.mark.parametrize("strategy", ["two-phase", "mcio"])
def test_fig6_point(births, strategy):
    config = figure6.small_config(0)
    patterns = CollPerfWorkload((32, 32, 64), n_ranks=120, elem_size=4).patterns()
    _run_cell_without_collector(_figure_point(config, patterns, strategy), births)
    # env, cluster, comm, pfs, engine
    assert len(births) == 5


def test_fig8_point(births):
    config = figure8.small_config(0)
    patterns = IORWorkload(n_ranks=240, block_size=4 * KIB, segments=2).patterns()
    _run_cell_without_collector(_figure_point(config, patterns, "mcio"), births)
    assert len(births) == 5


def test_vectorized_ladder_point(births):
    _run_cell_without_collector(
        lambda: scale_sweep.run_point(1000, 64, 64 * KIB, seed=0), births
    )
    assert len(births) == 5


@pytest.mark.parametrize("tenants", [1, 2])
@pytest.mark.parametrize("mode", pipeline.MODES)
def test_pipeline_cell(births, mode, tenants):
    cell = ("variance", mode, "write", 2, 0, tenants)
    _run_cell_without_collector(lambda: pipeline._pipeline_cell(cell), births)
    # env, cluster, pfs, datastore, and one comm + engine per tenant
    assert len(births) == 4 + 2 * tenants


@pytest.mark.parametrize("strategy", ["two-phase", "mcio"])
def test_resilience_outage_cell(births, monkeypatch, strategy):
    """A chaos cell whose outage fails requests while they queue; its
    collective returns with the requests' retry timers still queued."""
    failed_in_queue = []
    fail_waiters = Resource.fail_waiters

    def counting(resource, exception):
        failed = fail_waiters(resource, exception)
        failed_in_queue.append(failed)
        return failed

    monkeypatch.setattr(Resource, "fail_waiters", counting)
    cell = (1.0, strategy, 0, 12, 3, 1024, 8.0, False)
    _run_cell_without_collector(lambda: resilience._chaos_cell(cell), births)
    assert sum(failed_in_queue) > 0
    # env, cluster, comm, pfs, engine
    assert len(births) == 5


@pytest.mark.parametrize("name", ["outage_while_queued", "retry_timeout"])
def test_failed_storage_request_cell(births, name):
    """Requests rejected at issue, at the grant and in the queue; under a
    ``RetryPolicy``, requests timed out in service and in the queue,
    retried and abandoned (``tests/pfs/test_service_order.py``)."""
    scenario = service_order.SCENARIOS[name]

    def cell():
        out = service_order.run(scenario)
        assert sum(out["rejections"]) > 0
        assert any(status != "ok" for _, _, status, _ in out["log"])
        if scenario.retry is not None:
            retries, abandons = out["retries"]
            assert retries > 0 and abandons > 0
        return out

    _run_cell_without_collector(cell, births)
    # env, cluster, pfs
    assert len(births) == 3
