"""Process-pool plumbing for cell-parallel sweeps.

Two primitives live here:

* :class:`ParallelRunner` — a thin, order-preserving ``map`` over a lazy
  :class:`concurrent.futures.ProcessPoolExecutor`.  ``jobs <= 1`` runs
  the callable in-process (no pickling constraints, tracers allowed),
  which keeps a single code path for serial and parallel callers; with
  ``jobs > 1`` the callable must be module-level and every item and
  result picklable.
* :func:`cell_seed` — deterministic per-cell RNG seeds derived from the
  *cell signature*, never from worker identity or submission order, so a
  sweep's results are identical whether it runs serially, with 2
  workers, or with 32 (DESIGN.md §12's determinism contract).

The pool is created on first parallel use and reused across ``map``
calls, so repeated small fan-outs (e.g. hypothesis examples) amortise
worker start-up; ``close()`` (or the context manager) tears it down.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Optional, Sequence, TypeVar

__all__ = ["ParallelRunner", "cell_seed", "resolve_jobs"]

_T = TypeVar("_T")
_R = TypeVar("_R")


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0`` = auto (all cores)."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    jobs = int(jobs)
    if jobs < 0:
        raise ValueError("jobs must be >= 0 (0 = auto)")
    return jobs


def cell_seed(base_seed: int, *signature) -> int:
    """A stable RNG seed for one sweep cell.

    Hashes ``(base_seed, *signature)`` — the cell's own coordinates
    (rank count, fault rate, strategy name, ...) — through SHA-256, so
    the seed depends only on *what* the cell is, not on which worker
    runs it or when.  Signature parts must have stable ``repr``s (ints,
    floats, strings, tuples thereof).
    """
    text = repr((int(base_seed),) + signature)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (2**31 - 1)


class ParallelRunner:
    """Order-preserving map over a reusable process pool.

    Parameters
    ----------
    jobs:
        Worker count; ``None``/``0`` = auto (one per core), ``1`` =
        serial in-process execution (the default for library callers —
        parallelism is opt-in via ``--jobs``).
    """

    def __init__(self, jobs: Optional[int] = 1):
        self.jobs = resolve_jobs(jobs)
        self._pool: Optional[ProcessPoolExecutor] = None

    @property
    def parallel(self) -> bool:
        """Whether ``map`` fans out to worker processes."""
        return self.jobs > 1

    def map(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
        """Apply `fn` to every item, results in item order.

        Serial mode calls `fn` inline.  Parallel mode submits every item
        up front (the pool schedules ``jobs`` at a time) and gathers in
        submission order; a worker exception propagates to the caller
        with the remaining futures cancelled best-effort.
        """
        items = list(items)
        if not self.parallel or len(items) <= 1:
            return [fn(item) for item in items]
        pool = self._ensure_pool()
        futures = [pool.submit(fn, item) for item in items]
        try:
            return [f.result() for f in futures]
        except BaseException:
            for f in futures:
                f.cancel()
            raise

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def close(self) -> None:
        """Shut the pool down (idempotent); serial runners are no-ops."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
