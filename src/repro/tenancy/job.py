"""Tenant job specs and per-job lifecycle records."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.config import MCIOConfig
from repro.workloads.payload import pattern_bytes

__all__ = ["JobRecord", "TenantJob", "jobs_from_arrivals"]


@dataclass
class TenantJob:
    """One tenant's collective-I/O job on a shared platform.

    The default body is an iterative checkpoint loop: every rank owns a
    contiguous ``block`` at ``offset + rank * block`` and writes (or
    reads) it collectively ``steps`` times, either as fresh blocking
    collectives or through a persistent handle (``mode``).  A custom
    body — e.g. a sweep cell's own loop — replaces it via `main_fn`.

    Parameters
    ----------
    name:
        Tenant identity; stamped on the job's engine (and therefore its
        leases) so invalidation stays per-job.  Must be unique per host.
    placement:
        ``placement[rank]`` = node id on the *shared* cluster.  Jobs may
        occupy disjoint node subsets or co-locate ranks on the same
        nodes (contending for node memory); each job's communicator
        validates its own placement independently.
    arrival:
        Sim time at which the job enters the admission queue.
    op / steps / block / offset / mode / payload_seed:
        The default checkpoint body: `mode` is ``"blocking"``,
        ``"persistent"``, or ``"persistent+overlap"``; `payload_seed`
        varies the deterministic byte pattern so distinct jobs write
        distinct data.
    config:
        Engine config (a fresh default :class:`MCIOConfig` if None).
    main_fn:
        Optional custom rank body ``main_fn(ctx, fh, job)`` — a process
        generator run instead of the checkpoint loop.
    """

    name: str
    placement: Sequence[int]
    arrival: float = 0.0
    op: str = "write"
    steps: int = 1
    block: int = 64 * 1024
    offset: int = 0
    mode: str = "blocking"
    payload_seed: int = 0
    config: Optional[MCIOConfig] = None
    main_fn: Optional[Callable] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.op not in ("write", "read"):
            raise ValueError(f"bad op {self.op!r}")
        if self.mode not in ("blocking", "persistent", "persistent+overlap"):
            raise ValueError(f"bad mode {self.mode!r}")
        if self.steps < 1 or self.block < 1 or not self.placement:
            raise ValueError("need steps >= 1, block >= 1, a placement")
        if self.arrival < 0:
            raise ValueError("arrival must be >= 0")

    @property
    def n_ranks(self) -> int:
        """Ranks in this job's communicator."""
        return len(self.placement)

    @property
    def region_bytes(self) -> int:
        """File-region footprint (one block per rank)."""
        return self.n_ranks * self.block

    @property
    def total_bytes(self) -> int:
        """Bytes the whole job moves over all steps."""
        return self.steps * self.region_bytes

    def payload(self, rank: int) -> np.ndarray:
        """Deterministic per-rank bytes (a function of seed and rank)."""
        return pattern_bytes(
            self.block, rank * 97 + self.payload_seed * 131 + 13
        )


@dataclass
class JobRecord:
    """One job's measured lifecycle on the shared platform.

    All times are sim seconds.  ``elapsed`` (admission to completion) is
    what slowdown compares against the isolated baseline; ``wait`` is
    the admission delay the scheduler policy imposed on top.
    """

    name: str
    op: str
    mode: str
    steps: int
    n_ranks: int
    total_bytes: int
    arrived: float
    admitted: float
    finished: float
    collectives: int = 0
    replans: int = 0

    @property
    def wait(self) -> float:
        """Seconds spent queued before admission."""
        return self.admitted - self.arrived

    @property
    def elapsed(self) -> float:
        """Seconds from admission to completion (the running time)."""
        return self.finished - self.admitted

    @property
    def span(self) -> float:
        """Seconds from arrival to completion (what the tenant felt)."""
        return self.finished - self.arrived

    def to_json(self) -> dict:
        """Stable plain-dict form (byte-identical for identical runs)."""
        return {
            "name": self.name,
            "op": self.op,
            "mode": self.mode,
            "steps": self.steps,
            "n_ranks": self.n_ranks,
            "total_bytes": self.total_bytes,
            "arrived": self.arrived,
            "admitted": self.admitted,
            "finished": self.finished,
            "collectives": self.collectives,
            "replans": self.replans,
        }

    def to_json_str(self) -> str:
        """Canonical JSON line (sorted keys, no whitespace)."""
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))


def jobs_from_arrivals(
    arrivals,
    n_nodes: int,
    ranks_per_job: Optional[int] = None,
    layout: str = "striped",
    config: Optional[MCIOConfig] = None,
    mode: str = "blocking",
) -> list[TenantJob]:
    """Map an arrival stream onto concrete :class:`TenantJob` specs.

    Parameters
    ----------
    arrivals:
        Iterable of :class:`~repro.workloads.arrivals.JobArrival`.
    n_nodes:
        Node count of the shared cluster.
    ranks_per_job:
        Override of each arrival's rank count (None keeps them).
    layout:
        ``"striped"`` — job *j*'s ranks go round-robin over all nodes
        starting at node ``j`` (neighbouring jobs co-locate, contending
        for node memory and NICs); ``"packed"`` — job *j* occupies the
        contiguous node window starting at ``(j * ranks) % n_nodes``
        (disjoint subsets while the cluster has room).
    config / mode:
        Engine config template and execution mode for every job.

    File regions never overlap: job *j* starts at the running sum of the
    previous jobs' region sizes.
    """
    if layout not in ("striped", "packed"):
        raise ValueError(f"bad layout {layout!r}")
    jobs = []
    offset = 0
    for j, arr in enumerate(arrivals):
        n_ranks = ranks_per_job if ranks_per_job is not None else arr.n_ranks
        if layout == "striped":
            placement = [(j + i) % n_nodes for i in range(n_ranks)]
        else:
            base = (j * n_ranks) % n_nodes
            placement = [(base + i) % n_nodes for i in range(n_ranks)]
        job = TenantJob(
            name=f"job{j}",
            placement=placement,
            arrival=arr.time,
            op=arr.op,
            steps=arr.steps,
            block=arr.block,
            offset=offset,
            mode=mode,
            payload_seed=j,
            config=config,
        )
        jobs.append(job)
        offset += job.region_bytes
    return jobs
