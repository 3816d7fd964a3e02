"""Tests of the benchmark itself, on reduced inputs (no worker processes)."""

import cProfile
import json
import re
from collections import namedtuple

import pytest

from perfbench import BENCH_DIR, ROOT, SRC
from perfbench import workloads as wl
from perfbench.bench import (
    END_TO_END,
    PER_LAYER,
    compare_sets,
    load_benchmark_spec,
    main,
    verdict,
)
from perfbench.reference import NOMINAL_S
from perfbench.worker import iteration_time
from perfbench.layers import (
    LAYERS,
    MODULE_LAYERS,
    PACKAGE_LAYERS,
    attribute,
    layer_of,
    module_of,
)

Entry = namedtuple(
    "Entry", "code callcount reccallcount inlinetime totaltime calls"
)
Sub = namedtuple("Sub", "code callcount reccallcount inlinetime totaltime")


def _code(path, name):
    """A code object that claims to live in `path`."""
    namespace = {}
    exec(compile(f"def {name}(): pass", str(path), "exec"), namespace)
    return namespace[name].__code__


def test_every_module_has_a_layer():
    assert set(MODULE_LAYERS.values()) <= set(LAYERS)
    assert set(PACKAGE_LAYERS.values()) <= set(LAYERS)
    modules = [module_of(str(p), SRC) for p in (SRC / "repro").rglob("*.py")]
    assert len(modules) > 50
    unmapped = [m for m in modules if layer_of(m) not in LAYERS]
    assert unmapped == []
    assert layer_of("repro.core.request") == "core.extent"
    assert layer_of("repro.mpi.request") == "mpi"
    assert layer_of("repro.core.vectorized") == "core.engine"
    assert layer_of("elsewhere.module") is None


def test_builtins_split_across_callers_by_self_time():
    extent = _code(SRC / "repro/core/request.py", "clip")
    sim = _code(SRC / "repro/sim/engine.py", "step")
    helper = _code(ROOT / "site-packages/numpy/helper.py", "helper")
    sort = "<built-in method builtins.sorted>"
    entries = [
        Entry(extent, 5, 0, 1.0, 2.0, [
            Sub(sort, 3, 0, 0.3, 0.3),
            Sub(helper, 1, 0, 0.2, 0.25),
        ]),
        Entry(sim, 1, 0, 0.5, 2.5, [
            Sub(sort, 1, 0, 0.1, 0.1),
            Sub(extent, 5, 0, 1.0, 2.0),
        ]),
        Entry(sort, 5, 0, 0.45, 0.45, None),
        Entry(helper, 1, 0, 0.2, 0.25, [Sub(sort, 1, 0, 0.05, 0.05)]),
    ]
    # the builtin's time splits by per-caller time: 0.3 s to extent, 0.1 s
    # to sim, and 0.05 s to the helper, which (not being repro code)
    # passes it and its own 0.2 s up to extent
    profile = attribute(entries, SRC, BENCH_DIR)
    assert profile.total_s == pytest.approx(2.15)
    assert profile.self_s["core.extent"] == pytest.approx(1.55)
    assert profile.self_s["sim"] == pytest.approx(0.6)
    assert sum(profile.self_s.values()) == pytest.approx(profile.total_s)
    assert profile.calls_in["core.extent"] == 5
    assert profile.calls_in["sim"] == 0


def test_layer_self_times_sum_to_profiled_total():
    inputs = wl.WORKLOADS["scale-250k"].prepare(0)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        from repro.experiments import scale_sweep

        scale_sweep.run_sweep(1000, 64, 64 * 1024, seed=inputs)
    finally:
        profiler.disable()
    profile = attribute(profiler.getstats(), SRC, BENCH_DIR)
    layered = sum(profile.self_s.values())
    assert profile.total_s > 0
    assert abs(layered - profile.total_s) <= 0.01 * profile.total_s
    # numpy and builtins are folded into the repro callers, not dropped
    assert profile.self_s["core.extent"] > 0
    assert profile.self_s["sim"] > 0
    assert profile.counts["core.planner.plans"] == 2
    assert profile.counts["mpi.sends"] == 0


def _small_scale_outcome(monkeypatch):
    monkeypatch.setattr(wl, "SCALE_TARGET", 1000)
    workload = wl.WORKLOADS["scale-250k"]
    return workload, workload.execute(workload.prepare(0))


def test_exact_expectation_passes(monkeypatch):
    workload, outcome = _small_scale_outcome(monkeypatch)
    assert workload.invariants(0, outcome.records) == []
    tally = wl.Tally(expected=json.loads(json.dumps(outcome.records)))
    tally.add(0, workload, outcome)
    tally.add(0, workload, workload.execute(0))
    assert (tally.attempted, tally.failed) == (4, 0)


def test_perturbed_expectation_fails(monkeypatch):
    workload, outcome = _small_scale_outcome(monkeypatch)
    expected = json.loads(json.dumps(outcome.records))
    expected[1]["elapsed"] = repr(float(expected[1]["elapsed"]) * (1 + 1e-12))
    tally = wl.Tally(expected=expected)
    tally.add(0, workload, outcome)
    assert tally.attempted == 2
    assert tally.failed == 1


def test_broken_invariant_and_crash_fail(monkeypatch):
    workload, outcome = _small_scale_outcome(monkeypatch)
    outcome.records[0]["refusals"] = 1
    tally = wl.Tally()
    tally.add(0, workload, outcome)
    assert tally.failed == 1
    tally.crashed("boom")
    assert (tally.attempted, tally.failed) == (4, 3)


def test_iteration_time_scales_each_cell_by_the_references_beside_it():
    ref = NOMINAL_S
    iterations = [  # per cell: (wall, reference before, reference after)
        [(1.0, ref, ref), (2.0, ref, ref)],
        # a contention burst halved the host's speed around this cell
        [(2.0, 2 * ref, 2 * ref), (2.0, ref, ref)],
        [(1.2, ref, ref), (9.0, ref, ref)],
    ]
    assert iteration_time(iterations) == pytest.approx(1.0 + 2.0)
    assert iteration_time(iterations, scaled=False) == pytest.approx(1.2 + 2.0)


def test_compare_verdicts_at_bound_edges():
    parent = [100.0] * 5
    assert verdict(parent, [125.0] * 5, 0.25, "lower") == "unchanged"
    assert verdict(parent, [125.5] * 5, 0.25, "lower") == "regressed"
    assert verdict(parent, [75.0] * 5, 0.25, "lower") == "unchanged"
    assert verdict(parent, [74.5] * 5, 0.25, "lower") == "improved"
    assert verdict(parent, [74.5] * 5, 0.25, "higher") == "regressed"


def test_compare_unresolved_when_parent_spread_exceeds_bound():
    parent = [80.0, 90.0, 100.0, 110.0, 120.0]  # quartile spread 0.3
    assert verdict(parent, [200.0] * 5, 0.25, "lower") == "unresolved"
    assert verdict(parent, [100.0] * 5, 0.25, "lower") == "unresolved"
    # every change run beats every parent run: the gain stands
    assert verdict(parent, [79.0, 70.0, 60.0], 0.25, "lower") == "improved"


def _set(spec, values, failed=0, drop=()):
    """A run-set file with the same `values` for every metric."""
    return {
        "provenance": {},
        "workloads": {
            w["name"]: {
                "attempted": 10,
                "failed": failed,
                "metrics": {
                    m["name"]: {"unit": m["unit"], "values": list(values)}
                    for m in spec["end_to_end"]
                },
            }
            for w in spec["workloads"]
            if w["name"] not in drop
        },
    }


def _compare(tmp_path, parent, change):
    paths = []
    for label, data in (("parent", parent), ("change", change)):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(data))
        paths.append(str(path))
    return main(["compare", *paths])


def test_compare_reports_ops_and_marks_failed_changes_invalid(tmp_path):
    spec = load_benchmark_spec()
    parent = _set(spec, [1.0, 1.01, 0.99])
    rows, valid = compare_sets(spec, parent, _set(spec, [1.0, 1.0, 1.0]))
    assert valid
    by_key = {(r[0], r[1]): r for r in rows}
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            assert by_key[(w["name"], m["name"])][-1] == "unchanged"
        assert by_key[(w["name"], "ops")][3:5] == (10, 10)
        assert by_key[(w["name"], "ops_failed")][3:] == (0, 0, "ok")
    assert _compare(tmp_path, parent, _set(spec, [1.0, 1.0, 1.0])) == 0

    # a change that fails records has no speed to compare, even if faster
    broken = _set(spec, [0.5, 0.5, 0.5], failed=1)
    rows, valid = compare_sets(spec, parent, broken)
    assert not valid
    assert {r[-1] for r in rows if r[1] != "ops"} == {"invalid"}
    assert _compare(tmp_path, parent, broken) == 1


def test_compare_refuses_sets_missing_a_workload(tmp_path):
    spec = load_benchmark_spec()
    full = _set(spec, [1.0, 1.0, 1.0])
    partial = _set(spec, [1.0, 1.0, 1.0], drop=[spec["workloads"][-1]["name"]])
    assert _compare(tmp_path, full, partial) == 1
    assert _compare(tmp_path, partial, full) == 1


def test_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == [
            tuple(m) for m in ours
        ]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += list(wl.WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(name.fullmatch(n) for n in names)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
