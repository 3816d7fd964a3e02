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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["Allocation", "MemoryModel"]


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
