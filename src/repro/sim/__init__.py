"""Deterministic discrete-event simulation kernel.

The :mod:`repro.sim` package provides the event engine
(:class:`~repro.sim.engine.Environment`, processes-as-generators), shared
resources (:class:`~repro.sim.resources.Resource`) with callback-driven
timed holds on them (:class:`~repro.sim.resources.Hold`), and seeded RNG streams
(:class:`~repro.sim.rng.RngFactory`).  Everything above it — the cluster,
the MPI runtime, the parallel file system — is built from these pieces.
"""

from .engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from .resources import Countdown, Hold, Request, Resource, start_holds
from .rng import RngFactory, derive_seed

__all__ = [
    "AllOf",
    "AnyOf",
    "Countdown",
    "Environment",
    "Event",
    "Hold",
    "Interrupt",
    "Process",
    "Request",
    "Resource",
    "RngFactory",
    "SimulationError",
    "Timeout",
    "derive_seed",
    "start_holds",
]
