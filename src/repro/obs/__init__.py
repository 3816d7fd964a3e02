"""repro.obs — observability for collective I/O runs.

Structured tracing (:class:`Tracer`, sim-time spans/instants in a
bounded ring buffer) and exporters to Chrome/Perfetto ``trace_event``
JSON and flat JSONL.  Collective counters are not kept here: they are
plain fields of :class:`~repro.core.metrics.StatsCollector`.  ``python -m repro.obs.report``
prints a per-phase breakdown of an exported trace.

Quick start::

    from repro.obs import Tracer, write_chrome

    tracer = Tracer().install(env)   # before building the stack
    ...run the collective...
    write_chrome(tracer, "trace.json")   # load in ui.perfetto.dev
"""

from .tracer import (
    NULL_TRACER,
    PID_KERNEL,
    PID_PFS,
    PID_PLANNER,
    TID_NODE,
    NullTracer,
    TraceEvent,
    Tracer,
)
from .export import to_chrome, write_chrome, write_jsonl

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "PID_KERNEL",
    "PID_PFS",
    "PID_PLANNER",
    "TID_NODE",
    "TraceEvent",
    "Tracer",
    "to_chrome",
    "write_chrome",
    "write_jsonl",
]
