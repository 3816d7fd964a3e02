"""Benchmark workload generators: coll_perf, IOR, multi-tenant job-arrival
streams, and verifiable payload bytes."""

from .arrivals import JobArrival, PoissonArrivals, TraceArrivals
from .coll_perf import CollPerfWorkload
from .ior import IORWorkload
from .payload import pattern_bytes

__all__ = [
    "CollPerfWorkload",
    "IORWorkload",
    "JobArrival",
    "PoissonArrivals",
    "TraceArrivals",
    "pattern_bytes",
]
