"""Per-layer host time from the stdlib deterministic profiler.

``cProfile`` times every call into every function from outside the
program, so nothing under ``src/`` carries instrumentation.  This module
folds the profiler's raw per-function entries into the simulator's
layers:

* a function defined in ``src/repro`` belongs to its module's layer
  (:data:`MODULE_LAYERS`, then :data:`PACKAGE_LAYERS`);
* a function defined in this benchmark package belongs to ``harness``;
* any other function — builtins such as ``sorted``, numpy, the
  ``__init__`` that ``dataclasses`` generates, the stdlib — has its self
  time split across its callers by the per-caller self time the
  profiler recorded, recursively, until a caller with a layer is found.

Every second of profiled self time therefore lands in exactly one
layer, and the layer self times sum to the profiled total.

Generator functions are entered once per resume, so a layer's
``calls_in`` counts resumptions of its generators as entries.
"""

from __future__ import annotations

import os
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

__all__ = [
    "COUNTERS",
    "LAYERS",
    "LayerProfile",
    "attribute",
    "layer_of",
    "module_of",
]

LAYERS = (
    "core.extent",
    "core.planner",
    "core.engine",
    "sim",
    "mpi",
    "cluster",
    "pfs",
    "obs",
    "harness",
)

#: Single modules whose layer differs from their package's.  The
#: vectorized driver executes plans, so it sits with the per-rank
#: executors in ``core.engine``.
MODULE_LAYERS = {
    "repro": "harness",
    "repro.core.request": "core.extent",
    "repro.core.pattern_array": "core.extent",
    "repro.mpi.datatypes": "core.extent",
    "repro.core.mcio": "core.planner",
    "repro.core.two_phase": "core.planner",
    "repro.core.group_division": "core.planner",
    "repro.core.partition_tree": "core.planner",
    "repro.core.aggregator_selection": "core.planner",
    "repro.core.filedomain": "core.planner",
    "repro.core.plan_cache": "core.planner",
    "repro.core.tuning": "core.planner",
    "repro.core.config": "core.planner",
    "repro.core.metrics": "obs",
    "repro.core.audit": "obs",
}

#: Package prefixes.  ``repro.core`` modules not listed above (engine,
#: persistent, borrow, failover, independent, vectorized, and any new
#: one) execute plans.
PACKAGE_LAYERS = {
    "repro.core": "core.engine",
    "repro.sim": "sim",
    "repro.mpi": "mpi",
    "repro.cluster": "cluster",
    "repro.pfs": "pfs",
    "repro.obs": "obs",
    "repro.experiments": "harness",
    "repro.workloads": "harness",
    "repro.tenancy": "harness",
    "repro.parallel": "harness",
    "repro.faults": "harness",
}

#: Exact call counts: metric -> ``(module, qualname, caller)`` triples,
#: `caller` a ``(module, qualname)`` pair that restricts the count to
#: calls made from that function, or None for every call.
COUNTERS = {
    "core.extent.extent_objects": [
        ("repro.core.request", "Extent.__post_init__", None),
    ],
    "core.planner.plans": [
        ("repro.core.mcio", "MemoryConsciousCollectiveIO.plan", None),
        ("repro.core.two_phase", "TwoPhaseCollectiveIO.plan", None),
    ],
    # one delivery per point-to-point message, whichever send made it
    "mpi.sends": [("repro.mpi.comm", "SimComm._deliver", None)],
    # serve() is a generator, entered once per resume; the service-time
    # lookup it makes is once per request served
    "pfs.requests": [
        (
            "repro.pfs.server",
            "IOServer.service_time",
            ("repro.pfs.server", "IOServer.serve"),
        ),
    ],
    "sim.resumes": [
        ("repro.sim.engine", "Process._resume", None),
        ("repro.sim.engine", "Process._resume_sleep", None),
    ],
}


def layer_of(module: str) -> Optional[str]:
    """The layer of a ``repro`` module, or None when it has none."""
    if module in MODULE_LAYERS:
        return MODULE_LAYERS[module]
    parts = module.split(".")
    for n in range(len(parts), 1, -1):
        layer = PACKAGE_LAYERS.get(".".join(parts[:n]))
        if layer is not None:
            return layer
    return None


def module_of(filename: str, src_root: Path) -> Optional[str]:
    """Dotted module name of a file under `src_root`, else None."""
    try:
        rel = Path(os.path.realpath(filename)).relative_to(src_root)
    except ValueError:
        return None
    parts = list(rel.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) or None


@dataclass
class LayerProfile:
    """One profile folded into layers."""

    self_s: dict = field(default_factory=dict)
    calls_in: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    #: sum of every profiled function's self time
    total_s: float = 0.0

    def share(self, layer: str) -> float:
        """`layer`'s fraction of the profiled self time."""
        return self.self_s[layer] / self.total_s if self.total_s > 0 else 0.0


def _key(code):
    # builtins are reported as label strings; code objects are keyed by
    # identity because equal bytecode (generated dataclass __init__s)
    # compares equal across different functions
    return code if isinstance(code, str) else id(code)


def attribute(entries, src_root: Path, bench_root: Path) -> LayerProfile:
    """Fold raw ``cProfile.Profile.getstats()`` entries into layers."""
    src_root = Path(os.path.realpath(src_root))
    bench_root = Path(os.path.realpath(bench_root))
    names: dict = {}  # key -> (module, qualname) for repro code
    own: dict = {}  # key -> layer, for functions that have one
    self_time: dict = defaultdict(float)
    ncalls: dict = defaultdict(int)
    callers: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
    file_cache: dict = {}

    def classify(code):
        if isinstance(code, str):
            return None, None
        fn = code.co_filename
        if fn not in file_cache:
            module = module_of(fn, src_root)
            if module is not None:
                layer = layer_of(module) or "harness"
            elif module_of(fn, bench_root) is not None:
                layer = "harness"
            else:
                layer = None
            file_cache[fn] = (module, layer)
        module, layer = file_cache[fn]
        return (module, code.co_qualname) if module else None, layer

    for entry in entries:
        key = _key(entry.code)
        name, layer = classify(entry.code)
        if layer is not None:
            own[key] = layer
        if name is not None:
            names[key] = name
        self_time[key] += entry.inlinetime
        ncalls[key] += entry.callcount
        for sub in entry.calls or ():
            edge = callers[_key(sub.code)][key]
            edge[0] += sub.callcount
            edge[1] += sub.inlinetime

    dist_cache: dict = {}
    in_progress: set = set()

    def dist(key) -> dict:
        """Share of `key`'s self time owed to each layer."""
        if key in own:
            return {own[key]: 1.0}
        if key in dist_cache:
            return dist_cache[key]
        in_progress.add(key)
        edges = callers.get(key, {})
        by_time = sum(tt for _, tt in edges.values()) > 0
        acc: dict = defaultdict(float)
        for caller, (nc, tt) in edges.items():
            weight = tt if by_time else nc
            if weight <= 0 or caller in in_progress:
                continue
            for layer, part in dist(caller).items():
                acc[layer] += weight * part
        in_progress.discard(key)
        norm = sum(acc.values())
        result = (
            {layer: v / norm for layer, v in acc.items()}
            if norm > 0
            else {"harness": 1.0}
        )
        dist_cache[key] = result
        return result

    profile = LayerProfile(
        self_s={layer: 0.0 for layer in LAYERS},
        calls_in={layer: 0 for layer in LAYERS},
        counts={metric: 0 for metric in COUNTERS},
    )
    for key, tt in self_time.items():
        profile.total_s += tt
        for layer, part in dist(key).items():
            profile.self_s[layer] += tt * part

    def main_layer(key) -> str:
        shares = dist(key)
        return max(shares, key=shares.get)

    for key, layer in own.items():
        for caller, (nc, _) in callers.get(key, {}).items():
            if main_layer(caller) != layer:
                profile.calls_in[layer] += nc

    for metric, targets in COUNTERS.items():
        for module, qualname, via in targets:
            for key, name in names.items():
                if name != (module, qualname):
                    continue
                if via is None:
                    profile.counts[metric] += ncalls[key]
                    continue
                for caller, (nc, _) in callers.get(key, {}).items():
                    if names.get(caller) == via:
                        profile.counts[metric] += nc
    return profile
