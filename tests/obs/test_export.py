"""Exporter schema tests on a real, fault-injected MCIO run.

The fixture runs the ``pressure`` golden cluster under a deterministic
fault storm (a server slowdown and a memory shock) with a tracer
installed, then validates the exported Chrome ``trace_event`` document
the way the viewers do: required fields per phase type, monotonic
timestamps per ``(pid, tid)`` track, balanced and properly nested B/E
pairs, non-negative durations.
"""

import json

import pytest

from repro.faults import FaultEvent, FaultInjector, FaultSchedule
from repro.obs import PID_PFS, Tracer, to_chrome, write_chrome, write_jsonl
from repro.obs.tracer import TID_NODE

from tests.goldens.cases import CLUSTER_CASES, build_patterns, make_engine
from tests.helpers import make_stack, rank_payload

PRESSURE = CLUSTER_CASES[1]


@pytest.fixture(scope="module")
def traced_run():
    """One fault-injected MCIO collective write, traced end to end."""
    case = PRESSURE
    patterns = build_patterns(case)
    stack = make_stack(
        n_ranks=case.n_ranks,
        n_nodes=case.n_nodes,
        cores=case.cores,
        stripe_size=case.stripe_size,
    )
    tracer = Tracer().install(stack.env)
    stack.cluster.set_memory_availability(case.memory_availability)
    engine = make_engine("mcio", stack, case)
    injector = FaultInjector(
        stack.env,
        stack.cluster,
        stack.pfs,
        FaultSchedule(
            [
                FaultEvent(
                    time=0.001, kind="server_slowdown", target=0,
                    duration=0.4, magnitude=4.0,
                ),
                FaultEvent(
                    time=0.002, kind="memory_shock", target=1,
                    duration=0.3, magnitude=1024.0,
                ),
            ]
        ),
    )
    injector.start()
    payloads = {
        r: rank_payload(r, patterns[r].nbytes) for r in range(case.n_ranks)
    }

    def main(ctx):
        yield from engine.write(ctx, patterns[ctx.rank], payloads[ctx.rank].copy())
        yield from engine.write(ctx, patterns[ctx.rank], payloads[ctx.rank].copy())

    stack.run_spmd(main)
    injector.stop()
    return tracer


def test_run_produced_events_without_drops(traced_run):
    assert len(traced_run) > 0
    assert traced_run.dropped == 0


def test_expected_categories_present(traced_run):
    cats = {ev.cat for ev in traced_run.events()}
    for expected in (
        "collective", "shuffle", "comm", "pfs", "plan", "fault", "kernel",
    ):
        assert expected in cats, f"no {expected!r} events in trace"


def test_planning_phases_once_per_collective(traced_run):
    names = [ev.name for ev in traced_run.events()]
    for phase in ("plan.partition_tree", "plan.placement"):
        assert phase in names
    # two identical blocking writes: each plans from its own snapshot
    assert names.count("plan.group_division") == 2


def test_fault_instants_on_target_tracks(traced_run):
    faults = [ev for ev in traced_run.events() if ev.cat == "fault"]
    assert {ev.name for ev in faults} == {"fault.apply", "fault.revert"}
    tracks = {(ev.pid, ev.tid) for ev in faults}
    assert (PID_PFS, 0) in tracks  # server_slowdown on ost0
    assert (1, TID_NODE) in tracks  # memory_shock on node1


def test_chrome_document_schema(traced_run):
    doc = to_chrome(traced_run)
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    events = doc["traceEvents"]
    assert events, "empty traceEvents"

    last_ts: dict[tuple, float] = {}
    open_spans: dict[tuple, list] = {}
    for ev in events:
        assert {"ph", "name", "pid", "tid"} <= set(ev), ev
        if ev["ph"] == "M":
            assert ev["name"] in (
                "process_name", "thread_name", "process_sort_index"
            )
            continue
        assert "ts" in ev and "cat" in ev, ev
        track = (ev["pid"], ev["tid"])
        assert ev["ts"] >= last_ts.get(track, 0.0), (
            f"non-monotonic ts on track {track}"
        )
        last_ts[track] = ev["ts"]
        if ev["ph"] == "X":
            assert ev["dur"] >= 0.0
        elif ev["ph"] == "i":
            assert ev["s"] == "t"
        elif ev["ph"] == "B":
            open_spans.setdefault(track, []).append(ev["name"])
        elif ev["ph"] == "E":
            assert open_spans.get(track), (
                f"E without open B on track {track}"
            )
            open_spans[track].pop()
        else:
            raise AssertionError(f"unexpected phase {ev['ph']!r}")
    unbalanced = {t: s for t, s in open_spans.items() if s}
    assert not unbalanced, f"unclosed spans: {unbalanced}"


def test_metadata_names_every_track(traced_run):
    doc = to_chrome(traced_run)
    named = {
        (ev["pid"], ev["tid"])
        for ev in doc["traceEvents"]
        if ev["ph"] == "M" and ev["name"] == "thread_name"
    }
    used = {
        (ev["pid"], ev["tid"])
        for ev in doc["traceEvents"]
        if ev["ph"] != "M"
    }
    assert used <= named


def test_write_chrome_loads_back(traced_run, tmp_path):
    path = tmp_path / "trace.json"
    doc = write_chrome(traced_run, path)
    assert json.loads(path.read_text()) == doc


def test_write_jsonl_round_trips_units(traced_run, tmp_path):
    path = tmp_path / "trace.jsonl"
    n = write_jsonl(traced_run, path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == n == len(traced_run)
    # JSONL keeps simulated seconds and the raw seq ordering keys
    assert all("seq" in d and "ts" in d for d in lines)
    ts = [(d["ts"], d["seq"]) for d in lines]
    assert ts == sorted(ts)


class TestReportCLI:
    def test_report_on_chrome_json(self, traced_run, tmp_path, capsys):
        from repro.obs.report import main

        path = tmp_path / "trace.json"
        write_chrome(traced_run, path)
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "pfs.serve" in out
        assert "total" in out

    def test_report_by_category(self, traced_run, tmp_path, capsys):
        from repro.obs.report import main

        path = tmp_path / "trace.jsonl"
        write_jsonl(traced_run, path)
        assert main([str(path), "--by", "cat"]) == 0
        out = capsys.readouterr().out
        assert "shuffle" in out

    def test_report_empty_trace(self, tmp_path, capsys):
        from repro.obs.report import main

        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main([str(path)]) == 1
