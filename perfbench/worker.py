"""One fresh interpreter running one workload: ``python -m perfbench.worker``.

Protocol on standard output (the program's own output goes to standard
error): the line ``ready`` once the inputs are built, then one JSON line
with the reference kernel times just before and after set-up and —
unless the mode is ``probe`` — the timings, the record check tally and,
in ``trace`` mode, the per-layer profile.

* ``probe``: set up and exit; the parent times spawn-to-ready.
* ``measure``: iterate the workload closed-loop for ``--seconds``.
* ``trace``: iterate unprofiled for a third of ``--seconds``, then under
  ``cProfile`` for the rest (at least one iteration each).

Each iteration runs every cell of the workload once, timing each cell
on its own and the reference kernel (:mod:`perfbench.reference`) after
it.  A cell's time is scaled to the baseline host's speed by the mean
of the reference times just before and after it.  The time of one
iteration is the sum over cells of the cell's median scaled time: a
burst of host contention slows a few cells of one iteration, not the
median of any cell.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import resource
import statistics
import sys
import time
import traceback

from perfbench import reference

MIN_ITERATIONS = 3


class _Runner:
    """Iterates one workload, keeping the last reference kernel time."""

    def __init__(self, workload, inputs, tally, last_ref: float):
        self.workload = workload
        self.inputs = inputs
        self.tally = tally
        self.cells = workload.cells(inputs)
        self.last_ref = last_ref
        self.refs: list = []

    def iterate(self, profiler=None):
        """Run every cell once.

        Returns per-cell ``(wall, reference before, reference after)``
        seconds, or None when the iteration raised.
        """
        times, results = [], []
        try:
            for cell in self.cells:
                t0 = time.perf_counter()
                if profiler is not None:
                    profiler.enable()
                try:
                    results.append(self.workload.run_cell(self.inputs, cell))
                finally:
                    if profiler is not None:
                        profiler.disable()
                wall = time.perf_counter() - t0
                ref = reference.timed()
                self.refs.append(ref)
                times.append((wall, self.last_ref, ref))
                self.last_ref = ref
            outcome = self.workload.outcome(self.inputs, results)
        except Exception:
            self.tally.crashed(
                traceback.format_exc(limit=-2).strip().replace("\n", " | ")
            )
            return None
        self.tally.add(self.inputs, self.workload, outcome)
        return times

    def loop(self, seconds: float, minimum: int, profiler=None) -> list:
        """Iterate until the next iteration would overrun `seconds`."""
        iterations, durations = [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            times = self.iterate(profiler)
            if times is not None:
                iterations.append(times)
            durations.append(time.perf_counter() - t0)
            spent = time.perf_counter() - start
            if (
                len(durations) >= minimum
                and spent + statistics.median(durations) > seconds
            ):
                break
        if not iterations:
            raise RuntimeError(f"{self.workload.name}: no iteration completed")
        return iterations


def iteration_time(iterations, scaled: bool = True) -> float:
    """Sum over cells of the cell's median wall time.

    `scaled` converts each cell's time to the baseline host's speed by
    the reference kernel times measured beside it.
    """

    def value(sample):
        wall, before, after = sample
        if not scaled:
            return wall
        return wall * reference.NOMINAL_S * 2 / (before + after)

    return sum(
        statistics.median(value(times[cell]) for times in iterations)
        for cell in range(len(iterations[0]))
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument(
        "--mode", choices=("probe", "measure", "trace"), required=True
    )
    args = parser.parse_args(argv)

    protocol = sys.stdout
    sys.stdout = sys.stderr
    ref_before_setup = reference.timed()

    from perfbench import BENCH_DIR, SRC, use_checkout_source

    use_checkout_source()
    from perfbench.layers import attribute
    from perfbench.workloads import WORKLOADS, Tally, load_expected

    workload = WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed)
    tally = Tally(load_expected(workload.name, args.seed))
    print("ready", file=protocol, flush=True)
    ref_after_setup = reference.timed()
    result = {"setup_refs": [ref_before_setup, ref_after_setup]}
    if args.mode == "probe":
        print(json.dumps(result), file=protocol, flush=True)
        return 0

    runner = _Runner(workload, inputs, tally, ref_after_setup)
    if args.mode == "measure":
        iterations = runner.loop(args.seconds, MIN_ITERATIONS)
        result.update(
            iterations=len(iterations),
            wall_s=iteration_time(iterations),
            raw_wall_s=iteration_time(iterations, scaled=False),
        )
    else:
        plain = runner.loop(args.seconds / 3, 1)
        profiler = cProfile.Profile()
        first = len(runner.refs)
        traced = runner.loop(args.seconds * 2 / 3, 1, profiler)
        profile = attribute(profiler.getstats(), SRC, BENCH_DIR)
        n = len(traced)
        # per traced iteration, at the baseline host's speed
        scale = reference.NOMINAL_S / statistics.median(runner.refs[first:]) / n
        result.update(
            iterations=len(plain),
            traced_iterations=n,
            wall_s=iteration_time(plain),
            raw_wall_s=iteration_time(plain, scaled=False),
            traced_wall_s=iteration_time(traced),
            self_s={k: v * scale for k, v in profile.self_s.items()},
            share={k: profile.share(k) for k in profile.self_s},
            calls_in={k: v / n for k, v in profile.calls_in.items()},
            counts={k: v / n for k, v in profile.counts.items()},
            total_s=profile.total_s * scale,
        )
    result.update(
        ref_s=statistics.median(runner.refs),
        maxrss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=tally.attempted,
        failed=tally.failed,
        problems=tally.problems,
        shape_violations=tally.shape_violations or [],
    )
    print(json.dumps(result), file=protocol, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
