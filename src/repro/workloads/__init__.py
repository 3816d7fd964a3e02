"""Benchmark workload generators: coll_perf, IOR, synthetic patterns,
multi-tenant job-arrival streams, and verifiable payload bytes."""

from .arrivals import JobArrival, PoissonArrivals, TraceArrivals
from .coll_perf import CollPerfWorkload
from .ior import IORWorkload
from .payload import pattern_bytes
from .synthetic import SkewedWorkload, SmallRequestWorkload

__all__ = [
    "CollPerfWorkload",
    "IORWorkload",
    "JobArrival",
    "PoissonArrivals",
    "SkewedWorkload",
    "SmallRequestWorkload",
    "TraceArrivals",
    "pattern_bytes",
]
