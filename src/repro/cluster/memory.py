"""Per-node memory model: capacity, availability variance, paging penalty.

The paper's evaluation creates memory pressure two ways: it shrinks the
collective-buffer size per aggregator, and it gives each process an
*available* memory drawn from a normal distribution (mean = nominal buffer
size, σ = 50 MB).  This module models the node-side mechanics:

* every node has a physical ``capacity`` and an ``available`` amount
  (capacity minus background usage — applications, OS, other ranks);
* allocations never fail (real systems overcommit); instead an allocation
  that pushes committed memory beyond ``available`` is marked **paged**, and
  memory traffic touching a paged allocation is charged a multiplicative
  :attr:`paging penalty <MemoryModel.paging_penalty>` — the observable cost
  of swap/thrash the paper argues aggregators suffer;
* committed/peak statistics feed the memory-pressure and memory-variance
  metrics reported by the experiments.

Remote-memory borrowing (DOLMA-style disaggregation) adds a second
allocation channel: a :class:`LeaseLedger` hands out sim-time-bounded
:class:`Lease` claims on a *lender* node's available memory, backed by a
real :class:`Allocation` on the lender's :class:`MemoryModel`.  The
ledger is the shared source of truth the collective engine's
round-boundary checks read — lender death, a memory shock squeezing the
leased bytes, or plain expiry all surface as a revocation verdict, and
every lifecycle edge notifies registered listeners (the plan cache drops
entries on grants and revocations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.sim.subscribers import Subscribers

__all__ = [
    "Allocation",
    "Lease",
    "LeaseLedger",
    "MemoryModel",
    "availability_bucket",
]


def availability_bucket(
    avail_bytes: int, thresholds: tuple[int, ...], quantum: int
) -> tuple[int, int]:
    """Quantize an available-memory reading into planning-relevant buckets.

    Returns ``(rank, quanta)`` where `rank` counts how many of the given
    `thresholds` the reading meets and `quanta` is the reading divided by
    `quantum` (e.g. ``Msg_ind``: roughly how many aggregation domains the
    host could absorb).  Two readings with equal buckets are
    indistinguishable to the remerge / placement thresholds derived from
    those values, which is what lets the plan cache reuse a plan across
    small memory wiggle while a genuine threshold crossing — a memory
    shock, a big background-load step — forces a replan.
    """
    if avail_bytes < 0:
        raise ValueError("avail_bytes must be >= 0")
    rank = sum(1 for t in thresholds if avail_bytes >= t)
    return rank, avail_bytes // max(1, quantum)


@dataclass
class Allocation:
    """A live memory allocation on a node.

    Attributes
    ----------
    nbytes:
        Size of the allocation.
    label:
        Free-form tag ("collective-buffer", ...) used in traces.
    paged:
        True if, at allocation time, committed memory exceeded the node's
        available memory — every touch of this buffer pays the paging
        penalty.
    """

    nbytes: int
    label: str = ""
    paged: bool = False
    _freed: bool = field(default=False, repr=False)


class MemoryModel:
    """Tracks memory commitments on one node.

    Parameters
    ----------
    capacity_bytes:
        Physical memory size.
    available_bytes:
        Memory actually available to collective-I/O buffers (capacity minus
        background usage).  Defaults to the full capacity.
    paging_penalty:
        Multiplier applied to memory-copy time for paged allocations.
    """

    def __init__(
        self,
        capacity_bytes: int,
        available_bytes: Optional[int] = None,
        paging_penalty: float = 4.0,
    ):
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if paging_penalty < 1.0:
            raise ValueError("paging_penalty must be >= 1.0")
        self.capacity = int(capacity_bytes)
        avail = capacity_bytes if available_bytes is None else int(available_bytes)
        if avail < 0:
            raise ValueError("available_bytes must be >= 0")
        self._base_available = min(avail, self.capacity)
        self.paging_penalty = float(paging_penalty)
        self._committed = 0
        self._peak = 0
        self._paged_allocs = 0
        self._total_allocs = 0
        #: Bytes claimed by injected memory shocks (fault model); available
        #: memory is the externally set base minus the live shock total.
        self._shock = 0

    # ------------------------------------------------------------------
    @property
    def available(self) -> int:
        """Memory available to collective-I/O buffers right now.

        The externally managed base (set at construction, by experiment
        setup, or by :class:`~repro.cluster.background.BackgroundLoad`)
        minus any live injected memory shock, floored at zero — so shocks
        compose with the background-load walk instead of being overwritten
        by its next update.
        """
        return max(0, self._base_available - self._shock)

    @property
    def shock_bytes(self) -> int:
        """Bytes currently claimed by injected memory shocks."""
        return self._shock

    @property
    def committed(self) -> int:
        """Bytes currently allocated."""
        return self._committed

    @property
    def peak_committed(self) -> int:
        """High-water mark of committed bytes."""
        return self._peak

    @property
    def free_available(self) -> int:
        """Available memory not yet committed (>= 0)."""
        return max(0, self.available - self._committed)

    @property
    def paged_alloc_count(self) -> int:
        """How many allocations so far were paged."""
        return self._paged_allocs

    @property
    def alloc_count(self) -> int:
        """Total allocations so far."""
        return self._total_allocs

    # ------------------------------------------------------------------
    def set_available(self, available_bytes: int) -> None:
        """Reset the node's base available memory (experiment setup hook).

        Live memory shocks persist across this call: the effective
        :attr:`available` stays ``base - shock``.
        """
        if available_bytes < 0:
            raise ValueError("available_bytes must be >= 0")
        self._base_available = min(int(available_bytes), self.capacity)

    def apply_shock(self, nbytes: int) -> None:
        """Inject a sudden step drop of `nbytes` in available memory."""
        if nbytes < 0:
            raise ValueError("shock nbytes must be >= 0")
        self._shock += int(nbytes)

    def release_shock(self, nbytes: int) -> None:
        """Lift `nbytes` of a previously applied shock."""
        if nbytes < 0:
            raise ValueError("shock nbytes must be >= 0")
        self._shock = max(0, self._shock - int(nbytes))

    def would_page(self, nbytes: int) -> bool:
        """True if allocating `nbytes` now would exceed available memory."""
        return self._committed + nbytes > self.available

    @property
    def overcommitted(self) -> bool:
        """True while committed memory exceeds available memory."""
        return self._committed > self.available

    @property
    def current_paging_factor(self) -> float:
        """Slowdown of memory traffic given the current overcommit.

        1.0 while commitments fit in available memory; grades linearly up
        to the full :attr:`paging_penalty` as the overcommitted fraction
        of committed memory approaches 1 (mild spill thrashes mildly, a
        buffer many times larger than available memory pays nearly the
        full swap-bandwidth ratio).
        """
        if self._committed <= self.available:
            return 1.0
        frac = (self._committed - self.available) / self._committed
        return 1.0 + (self.paging_penalty - 1.0) * frac

    def alloc(self, nbytes: int, label: str = "") -> Allocation:
        """Commit `nbytes`; never blocks, may return a paged allocation."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        paged = self.would_page(nbytes) and nbytes > 0
        self._committed += nbytes
        self._peak = max(self._peak, self._committed)
        self._total_allocs += 1
        if paged:
            self._paged_allocs += 1
        return Allocation(nbytes=int(nbytes), label=label, paged=paged)

    def free(self, allocation: Allocation) -> None:
        """Release a previous allocation (idempotent per allocation)."""
        if allocation._freed:
            raise ValueError(f"double free of allocation {allocation.label!r}")
        allocation._freed = True
        self._committed -= allocation.nbytes
        if self._committed < 0:  # pragma: no cover - defensive
            raise RuntimeError("memory model went negative")

    def copy_time(self, nbytes: int, bandwidth: float, paged: bool = False) -> float:
        """Seconds to move `nbytes` at `bandwidth`, with paging penalty."""
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        t = nbytes / bandwidth
        return t * self.paging_penalty if paged else t


@dataclass
class Lease:
    """A sim-time-bounded claim on a lender node's memory.

    Backed by a live :class:`Allocation` on the lender's
    :class:`MemoryModel`; the allocation is released exactly once, when
    the lease leaves the ``active`` state (release, revoke, or expiry).

    Attributes
    ----------
    lease_id:
        Ledger-unique, monotonically increasing id (grant order).
    lender_node:
        Node id of the node whose memory backs the lease.
    borrower_rank:
        Rank that acquired the lease (the aggregator of a borrowed
        file domain) — the only rank allowed to renew or release it.
    nbytes:
        Leased capacity.
    granted_at / expires_at:
        Sim-time lease term; :meth:`LeaseLedger.renew` pushes
        ``expires_at`` forward.
    tenant:
        Owning job's identity in a multi-tenant environment (None for
        single-job runs).  Invalidation listeners filter on it so one
        tenant's lease churn never stales another tenant's cached or
        frozen plans; an untagged lease conservatively invalidates
        everyone.
    state:
        ``active`` | ``released`` | ``revoked`` | ``expired``.
    outcome_reason:
        Why the lease left the active state (``lender-failed``,
        ``memory-squeeze``, ``expired``, ...); None while active or
        after a normal release.
    """

    lease_id: int
    lender_node: int
    borrower_rank: int
    nbytes: int
    granted_at: float
    expires_at: float
    label: str = ""
    tenant: Optional[str] = None
    state: str = "active"
    outcome_reason: Optional[str] = None
    _alloc: Optional[Allocation] = field(default=None, repr=False)

    @property
    def active(self) -> bool:
        return self.state == "active"


class LeaseLedger:
    """Cluster-wide registry of remote-memory leases.

    One ledger per :class:`~repro.cluster.cluster.Cluster`; all ranks
    share it, which makes it the single source of truth the engine's
    deterministic round-boundary checks read.  Mutations (grant, renew,
    release, revoke) are performed only by the borrowing rank; other
    ranks observe state through :meth:`soundness` snapshots taken at
    barrier-aligned instants.

    Listeners registered with :meth:`add_listener` are called as
    ``listener(lease, event)`` for events ``grant``, ``renew``,
    ``release``, ``revoke``, and ``expire`` — the plan cache subscribes
    so cached plans never replay against a changed lease landscape.
    Bound-method listeners are held weakly (see
    :class:`~repro.sim.subscribers.Subscribers`), so subscribing never
    keeps an engine alive.

    The ledger holds the cluster's node list, not the cluster: the
    cluster owns its ledger, and a back-reference would make every
    platform a reference cycle.
    """

    def __init__(self, nodes: list):
        self._nodes = nodes
        self._next_id = 0
        self._active: dict[int, Lease] = {}
        self.history: list[Lease] = []
        self._listeners = Subscribers()
        # lifecycle counters
        self.granted = 0
        self.renewed = 0
        self.released = 0
        self.revoked = 0
        self.expired = 0
        self.denied = 0
        self.granted_bytes = 0

    # ------------------------------------------------------------------
    def add_listener(self, listener) -> None:
        """Register ``listener(lease, event)`` for lifecycle events."""
        self._listeners.add(listener)

    def _notify(self, lease: Lease, event: str) -> None:
        self._listeners.notify(lease, event)

    @property
    def outstanding(self) -> int:
        """Number of currently active leases."""
        return len(self._active)

    @property
    def outstanding_bytes(self) -> int:
        """Bytes currently held under active leases."""
        return sum(lease.nbytes for lease in self._active.values())

    def active_leases(self) -> list[Lease]:
        """Active leases in grant order."""
        return [self._active[k] for k in sorted(self._active)]

    def digest(self, tenant: Optional[str] = None) -> tuple:
        """Order-stable fingerprint of the active lease set.

        Part of the plan-cache signature: a plan built against one lease
        landscape must not be replayed against another.  With `tenant`,
        foreign tenants' tagged leases are excluded — their pinned bytes
        already show through the lenders' committed memory (and hence the
        memory digest), so they must not churn this tenant's signatures.
        Untagged leases are always included.
        """
        leases = self.active_leases()
        if tenant is not None:
            leases = [
                lease for lease in leases if lease.tenant in (None, tenant)
            ]
        return tuple(
            (lease.lease_id, lease.lender_node, lease.nbytes)
            for lease in leases
        )

    # ------------------------------------------------------------------
    def grant(
        self,
        lender_node: int,
        borrower_rank: int,
        nbytes: int,
        now: float,
        term: float,
        headroom: int = 0,
        tenant: Optional[str] = None,
    ) -> Optional[Lease]:
        """Try to lease `nbytes` on `lender_node`; None on denial.

        A grant is denied — and counted — when the lender is failed,
        the request is empty, or the lender's uncommitted available
        memory cannot cover the request plus the configured `headroom`.
        The backing allocation is a first-class commitment on the
        lender's memory model, so a later shock can push the lender into
        overcommit, which :meth:`soundness` reports as a squeeze.
        """
        node = self._nodes[lender_node]
        if nbytes <= 0 or term <= 0 or node.failed:
            self.denied += 1
            return None
        if node.memory.free_available < nbytes + max(0, headroom):
            self.denied += 1
            return None
        lease_id = self._next_id
        self._next_id += 1
        label = f"lease.{lease_id}.r{borrower_rank}"
        lease = Lease(
            lease_id=lease_id,
            lender_node=lender_node,
            borrower_rank=borrower_rank,
            nbytes=int(nbytes),
            granted_at=float(now),
            expires_at=float(now) + float(term),
            label=label,
            tenant=tenant,
            _alloc=node.memory.alloc(int(nbytes), label=label),
        )
        self._active[lease_id] = lease
        self.history.append(lease)
        self.granted += 1
        self.granted_bytes += lease.nbytes
        self._notify(lease, "grant")
        return lease

    def renew(self, lease: Lease, now: float, term: float) -> bool:
        """Extend an active, healthy lease's term; False otherwise."""
        if not lease.active or self.soundness(lease, now) is not None:
            return False
        lease.expires_at = float(now) + float(term)
        self.renewed += 1
        self._notify(lease, "renew")
        return True

    def release(self, lease: Lease, now: float) -> None:
        """Normal end-of-use teardown by the borrower (idempotent)."""
        if not lease.active:
            return
        lease.state = "released"
        self._retire(lease)
        self.released += 1
        self._notify(lease, "release")

    def revoke(self, lease: Lease, now: float, reason: str) -> None:
        """Forcible teardown: lender failure, squeeze, expiry (idempotent)."""
        if not lease.active:
            return
        lease.outcome_reason = reason
        if reason == "expired":
            lease.state = "expired"
            self._retire(lease)
            self.expired += 1
            self._notify(lease, "expire")
        else:
            lease.state = "revoked"
            self._retire(lease)
            self.revoked += 1
            self._notify(lease, "revoke")

    def _retire(self, lease: Lease) -> None:
        self._active.pop(lease.lease_id, None)
        if lease._alloc is not None:
            self._nodes[lease.lender_node].memory.free(lease._alloc)
            lease._alloc = None

    # ------------------------------------------------------------------
    def soundness(self, lease: Lease, now: float) -> Optional[str]:
        """Why this lease must be revoked right now, or None if healthy.

        Pure read — safe for every rank to evaluate at the same sim
        instant.  Checks, in order: lender death, a memory squeeze on
        the lender (committed memory, leases included, exceeds its
        post-shock availability), and term expiry.
        """
        if not lease.active:
            return lease.outcome_reason or lease.state
        node = self._nodes[lease.lender_node]
        if node.failed:
            return "lender-failed"
        if node.memory.overcommitted:
            return "memory-squeeze"
        if now >= lease.expires_at:
            return "expired"
        return None
