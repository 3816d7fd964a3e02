"""Benchmark driver: ``python3 -m perfbench <command>``.

Commands (run from the root of the checkout):

``measure --workload W --seed S --seconds T --trace 0|1``
    One run of one workload.  Spawns fresh worker interpreters one at a
    time: set-up probes, then one worker that iterates the workload for
    ``T`` seconds (``--trace 1``: partly under the profiler).  Prints
    one JSON object as the last line of standard output.  Every time it
    reports is scaled to the baseline host's speed by the reference
    kernel (:mod:`perfbench.reference`); the unscaled wall time goes to
    standard error.
``run --seed S [--runs N] [--out SET.json]``
    ``N`` runs of every workload, interleaved round-robin, each of
    BENCHMARK.json's ``run_seconds`` (as is every ``trace`` run); prints each
    end-to-end metric's median, quartiles and run count per workload
    and exits nonzero if any record failed its check.
``trace --seed S [--out TRACE.json]``
    One traced run of every workload; prints the per-layer table.
``record [--seeds 0 1]``
    Writes ``expected/<workload>.seed<S>.json`` from the current tree.
``compare PARENT.json CHANGE.json [--trace PARENT_TRACE CHANGE_TRACE]``
    Verdict per (workload, end-to-end metric) against BENCHMARK.json's
    bounds, ops and ops_failed per workload, and the per-layer self-time
    deltas of two trace files.  Every file must cover every workload; the
    verdicts are invalid, and the command exits nonzero, when the change
    set failed any record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

from perfbench import ROOT, use_checkout_source
from perfbench.layers import COUNTERS, LAYERS
from perfbench.reference import NOMINAL_S

#: (name, unit, better) of the end-to-end metrics, measured untraced
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)

#: (name, unit, better) of the per-layer metrics, from the traced run
PER_LAYER = (
    tuple(
        metric
        for layer in LAYERS
        for metric in (
            (f"{layer}.self_s", "s", "lower"),
            (f"{layer}.share", "fraction", "lower"),
            (f"{layer}.calls_in", "count", "lower"),
        )
    )
    + tuple((name, "count", "lower") for name in COUNTERS)
    + (("trace_overhead", "ratio", "lower"),)
)

#: set-up-only workers per run; with the measuring worker, set-up is
#: timed this many times plus one and reported as the median
PROBES = 4
#: a measure command ends within this many seconds or fails
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """A worker failed; the run has no result."""


def _spawn(name: str, seed: int, seconds: float, mode: str, deadline: float):
    """Run one worker; return (spawn-to-ready seconds, result or None)."""
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", name, "--seed", str(seed),
        "--seconds", repr(float(seconds)), "--mode", mode,
    ]
    # a fixed hash seed keeps dict/set layouts, and so timings, repeatable
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, text=True,
    )
    try:
        readable, _, _ = select.select(
            [proc.stdout], [], [], max(0.0, deadline - time.monotonic())
        )
        line = proc.stdout.readline() if readable else ""
        setup = time.perf_counter() - t0
        if line.strip() != "ready":
            raise BenchError(f"{name}: {mode} worker failed during set-up")
        out, _ = proc.communicate(
            timeout=max(0.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: {mode} worker overran the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{name}: {mode} worker exited {proc.returncode}")
    lines = [ln for ln in out.splitlines() if ln.strip()]
    return setup, (json.loads(lines[-1]) if lines else None)


def _number(value: float):
    """Counts averaged over identical iterations stay whole numbers."""
    return int(value) if float(value).is_integer() else value


def measure(name: str, seed: int, seconds: float, trace: bool):
    """One run of `name`: the contract result and the worker's raw data."""
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    modes = ["trace"] if trace else ["probe"] * PROBES + ["measure"]
    for mode in modes:
        setup, raw = _spawn(name, seed, seconds, mode, deadline)
        if raw is None:
            raise BenchError(f"{name}: {mode} worker printed no result")
        # the worker timed the reference kernel once before set-up (inside
        # the spawn-to-ready interval) and once after; the time is scaled
        # to the baseline host's speed, like every reported time
        before, after = raw["setup_refs"]
        setups.append((setup - before) * NOMINAL_S * 2 / (before + after))
    if trace:
        values = {}
        for layer in LAYERS:
            values[f"{layer}.self_s"] = raw["self_s"][layer]
            values[f"{layer}.share"] = raw["share"][layer]
            values[f"{layer}.calls_in"] = _number(raw["calls_in"][layer])
        for counter in COUNTERS:
            values[counter] = _number(raw["counts"][counter])
        values["trace_overhead"] = raw["traced_wall_s"] / raw["wall_s"]
        specs = PER_LAYER
    else:
        values = {
            "wall_s": raw["wall_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mib": raw["maxrss_mib"],
        }
        specs = END_TO_END
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit, _ in specs
        },
    }
    return result, raw


# ----------------------------------------------------------------------
# statistics and comparison


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` cuts them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, bound: float, better: str) -> str:
    """improved / regressed / unchanged / unresolved for one metric.

    Unresolved when the parent's own quartile spread, as a share of its
    median, is wider than `bound` — unless every change run beats every
    parent run.  Otherwise the medians decide: worse by more than
    `bound` regresses, better by more than `bound` improves.
    """
    sign = 1.0 if better == "lower" else -1.0
    q1, p_med, q3 = quartiles(parent)
    worse = sign * (statistics.median(change) - p_med) / p_med
    beats = max(sign * c for c in change) < min(sign * p for p in parent)
    if (q3 - q1) / p_med > bound:
        return "improved" if beats else "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def load_benchmark_spec() -> dict:
    """BENCHMARK.json at the root of the checkout."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def provenance() -> dict:
    """Where a set of runs was measured."""
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git": sha,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.4g}"


def _table(header, rows) -> str:
    widths = [
        max(len(str(x)) for x in col) for col in zip(header, *rows)
    ]
    lines = ["  ".join(str(h).ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(x).ljust(w) for x, w in zip(row, widths)))
    return "\n".join(lines)


def _summary(values) -> str:
    q1, med, q3 = quartiles(values)
    return f"{_fmt(med)} [{_fmt(q1)}, {_fmt(q3)}] n={len(values)}"


# ----------------------------------------------------------------------
# commands


def _run_seconds() -> float:
    return float(load_benchmark_spec()["run_seconds"])


def cmd_measure(args) -> int:
    use_checkout_source()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}")
    result, raw = measure(args.workload, args.seed, args.seconds, args.trace == 1)
    for problem in raw["problems"]:
        print(f"failed: {problem}", file=sys.stderr)
    if raw["shape_violations"]:
        print(
            f"shape_violations: {raw['shape_violations']}", file=sys.stderr
        )
    print(
        f"{raw['iterations']} iterations, unscaled wall {raw['raw_wall_s']:.4f} s, "
        f"reference kernel {raw['ref_s']:.4f} s (nominal {NOMINAL_S} s)",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0


def cmd_run(args) -> int:
    use_checkout_source()
    from perfbench.workloads import WORKLOADS

    seconds = _run_seconds()
    out = {
        "kind": "perfbench.set",
        "seed": args.seed,
        "seconds": seconds,
        "provenance": provenance(),
        "workloads": {
            name: {
                "attempted": 0,
                "failed": 0,
                "metrics": {
                    m: {"unit": u, "values": []} for m, u, _ in END_TO_END
                },
            }
            for name in WORKLOADS
        },
    }
    for i in range(args.runs):
        for name in WORKLOADS:
            result, raw = measure(name, args.seed, seconds, trace=False)
            entry = out["workloads"][name]
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            for metric, m in result["metrics"].items():
                entry["metrics"][metric]["values"].append(m["value"])
            for problem in raw["problems"]:
                print(f"{name}: failed: {problem}", file=sys.stderr)
            if i == 0 and raw["shape_violations"]:
                print(
                    f"{name}: shape_violations: {raw['shape_violations']}",
                    file=sys.stderr,
                )
            print(
                f"run {i + 1}/{args.runs} {name}: "
                + ", ".join(
                    f"{k}={_fmt(v['value'])}"
                    for k, v in result["metrics"].items()
                ),
                file=sys.stderr,
                flush=True,
            )
    rows = []
    for name, entry in out["workloads"].items():
        for metric, m in entry["metrics"].items():
            q1, med, q3 = quartiles(m["values"])
            rows.append(
                (name, metric, m["unit"], _fmt(med), _fmt(q1), _fmt(q3),
                 len(m["values"]))
            )
        rows.append((name, "ops", "count", entry["attempted"], "", "", ""))
        rows.append((name, "ops_failed", "count", entry["failed"], "", "", ""))
    print(
        _table(("workload", "metric", "unit", "median", "q1", "q3", "n"), rows)
    )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1)
    return 1 if any(e["failed"] for e in out["workloads"].values()) else 0


def cmd_trace(args) -> int:
    use_checkout_source()
    from perfbench.workloads import WORKLOADS

    seconds = _run_seconds()
    out = {
        "kind": "perfbench.trace",
        "seed": args.seed,
        "seconds": seconds,
        "provenance": provenance(),
        "workloads": {},
    }
    failed = 0
    for name in WORKLOADS:
        result, raw = measure(name, args.seed, seconds, trace=True)
        failed += result["failed"]
        out["workloads"][name] = {
            "metrics": result["metrics"],
            "total_s": raw["total_s"],
            "attempted": result["attempted"],
            "failed": result["failed"],
        }
        metrics = result["metrics"]
        rows = [
            (
                layer,
                _fmt(metrics[f"{layer}.self_s"]["value"]),
                f"{metrics[f'{layer}.share']['value']:.3f}",
                _fmt(metrics[f"{layer}.calls_in"]["value"]),
            )
            for layer in LAYERS
        ]
        total = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
        print(f"\n{name} (seed {args.seed}, per traced iteration)")
        print(_table(("layer", "self_s", "share", "calls_in"), rows))
        print(
            f"layer sum {total:.4f} s of profiled {raw['total_s']:.4f} s; "
            + ", ".join(
                f"{c}={_fmt(metrics[c]['value'])}" for c in COUNTERS
            )
            + f", trace_overhead={metrics['trace_overhead']['value']:.2f}"
        )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1)
    return 1 if failed else 0


def cmd_record(args) -> int:
    use_checkout_source()
    from perfbench.workloads import WORKLOADS, expected_path

    for seed in args.seeds:
        for workload in WORKLOADS.values():
            name = workload.name
            inputs = workload.prepare(seed)
            outcome = workload.execute(inputs)
            problems = workload.invariants(inputs, outcome.records)
            if problems:
                print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            path = expected_path(name, seed)
            path.parent.mkdir(exist_ok=True)
            path.write_text(
                json.dumps(
                    {"workload": name, "seed": seed, "records": outcome.records},
                    indent=1,
                )
                + "\n"
            )
            print(f"wrote {path.relative_to(ROOT)}")
    return 0


def _require_every_workload(spec: dict, path: str, data: dict) -> None:
    """A set or trace file must cover exactly BENCHMARK.json's workloads."""
    want = sorted(w["name"] for w in spec["workloads"])
    have = sorted(data["workloads"])
    if have != want:
        raise BenchError(f"{path} covers workloads {have}, want {want}")


def compare_sets(spec: dict, parent: dict, change: dict):
    """Rows of the comparison table, and whether every verdict counts.

    Verdicts count only when the change set failed no record: a change
    whose outputs are wrong, or that failed more records than its parent,
    has no speed to compare.  Its rows read ``invalid``.
    """
    rows, valid = [], True
    for w in spec["workloads"]:
        workload = w["name"]
        p_entry = parent["workloads"][workload]
        c_entry = change["workloads"][workload]
        broken = c_entry["failed"] > 0
        valid = valid and not broken
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = p_entry["metrics"][name]["values"]
            c = c_entry["metrics"][name]["values"]
            rows.append(
                (
                    workload, name, metric["unit"], _summary(p), _summary(c),
                    "invalid" if broken
                    else verdict(p, c, metric["bound"], metric["better"]),
                )
            )
        rows.append(
            (workload, "ops", "count",
             p_entry["attempted"], c_entry["attempted"], "")
        )
        rows.append(
            (workload, "ops_failed", "count",
             p_entry["failed"], c_entry["failed"], "invalid" if broken else "ok")
        )
    return rows, valid


def cmd_compare(args) -> int:
    spec = load_benchmark_spec()
    with open(args.parent) as fh:
        parent = json.load(fh)
    with open(args.change) as fh:
        change = json.load(fh)
    _require_every_workload(spec, args.parent, parent)
    _require_every_workload(spec, args.change, change)
    for key in ("nproc", "cpu", "python", "numpy"):
        a, b = parent["provenance"].get(key), change["provenance"].get(key)
        if a != b:
            print(f"warning: {key} differs: {a!r} vs {b!r}", file=sys.stderr)
    for workload, entry in parent["workloads"].items():
        if entry["failed"]:
            print(
                f"warning: the parent set failed {entry['failed']} records "
                f"on {workload}",
                file=sys.stderr,
            )
    rows, valid = compare_sets(spec, parent, change)
    print(
        _table(
            ("workload", "metric", "unit", "parent median [q1, q3]",
             "change median [q1, q3]", "verdict"),
            rows,
        )
    )
    if args.trace:
        with open(args.trace[0]) as fh:
            tp = json.load(fh)
        with open(args.trace[1]) as fh:
            tc = json.load(fh)
        _require_every_workload(spec, args.trace[0], tp)
        _require_every_workload(spec, args.trace[1], tc)
        rows = []
        for workload, entry in tp["workloads"].items():
            for layer in LAYERS:
                key = f"{layer}.self_s"
                a = entry["metrics"][key]["value"]
                b = tc["workloads"][workload]["metrics"][key]["value"]
                pct = f"{100 * (b - a) / a:+.1f}%" if a else "n/a"
                rows.append(
                    (workload, layer, f"{a:.4f}", f"{b:.4f}", f"{b - a:+.4f}", pct)
                )
        print()
        print(
            _table(
                ("workload", "layer", "parent self_s", "change self_s",
                 "delta", "delta %"),
                rows,
            )
        )
    if not valid:
        print(
            "perfbench: verdicts invalid: the change set failed records",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="one run of one workload (JSON line)")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.set_defaults(func=cmd_measure)

    for command, func, doc in (
        ("run", cmd_run, "interleaved runs of every workload"),
        ("trace", cmd_trace, "one traced run of every workload"),
    ):
        p = sub.add_parser(command, help=doc)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="write the results as JSON")
        if command == "run":
            p.add_argument("--runs", type=int, default=5)
        p.set_defaults(func=func)

    p = sub.add_parser("record", help="write the expectation files")
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    p.set_defaults(func=cmd_record)

    p = sub.add_parser("compare", help="verdicts between two sets of runs")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--trace", nargs=2, metavar=("PARENT_TRACE", "CHANGE_TRACE"))
    p.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
