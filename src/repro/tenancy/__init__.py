"""Multi-tenant collective I/O: concurrent jobs sharing one platform.

The rest of the simulator runs one collective at a time; real
extreme-scale PFS pain is N concurrent jobs hammering the same OSTs.
This package hosts multiple jobs — each with its *own* communicator,
engine, and file handle — on one :class:`~repro.sim.engine.Environment`,
sharing the cluster's nodes, network links and PFS servers, so
cross-job interference is simulated rather than assumed:

* :class:`TenantJob` / :class:`JobRecord` — one job's spec (placement,
  arrival time, op, size, execution mode) and its measured lifecycle;
* :class:`TenancyHost` — admits, launches, and accounts the jobs on one
  sim clock, deterministically for a fixed submission set;
* the scheduler seam (:class:`SchedulerPolicy` and the stock
  :class:`FreeForAll` / :class:`FifoAdmission` / :class:`OstThrottle`
  policies) — pluggable cooperative admission;
* fairness metrics (:func:`jain_index`, :class:`FairnessReport`) —
  per-job slowdown vs. an isolated baseline, the Jain fairness index
  over those slowdowns, and aggregate PFS utilization.
"""

from .job import JobRecord, TenantJob, jobs_from_arrivals
from .metrics import FairnessReport, jain_index
from .scheduler import (
    FifoAdmission,
    FreeForAll,
    OstThrottle,
    SchedulerPolicy,
    SchedulerState,
    resolve_policy,
)
from .host import TenancyHost, run_isolated

__all__ = [
    "FairnessReport",
    "FifoAdmission",
    "FreeForAll",
    "JobRecord",
    "OstThrottle",
    "SchedulerPolicy",
    "SchedulerState",
    "TenancyHost",
    "TenantJob",
    "jain_index",
    "jobs_from_arrivals",
    "resolve_policy",
    "run_isolated",
]
