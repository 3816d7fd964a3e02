"""Seeded fault injection and degraded-mode support.

The fault model covers the transient misbehaviour extreme-scale I/O
systems actually exhibit — slow and absent object servers, sudden memory
loss on compute nodes, failed aggregator hosts — as deterministic,
seed-reproducible schedules:

* :class:`~repro.faults.schedule.FaultSchedule` /
  :class:`~repro.faults.schedule.FaultEvent` — the pure-data fault plan
  (explicit or :meth:`~repro.faults.schedule.FaultSchedule.generate`-d
  from a seed);
* :class:`~repro.faults.injector.FaultInjector` — the simulation process
  that applies and reverts the plan against a cluster + file system.

Recovery lives with the components it protects:
:class:`~repro.pfs.filesystem.RetryPolicy` (client retries),
aggregator failover in :mod:`repro.core.engine`, and soft exclusion
of failed hosts in :mod:`repro.core.mcio`'s planner, whose last resort
is a paged placement.
"""

from .injector import FaultInjector
from .schedule import FAULT_KINDS, FaultEvent, FaultSchedule

__all__ = ["FAULT_KINDS", "FaultEvent", "FaultInjector", "FaultSchedule"]
