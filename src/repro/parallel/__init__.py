"""Process-parallel execution of independent sweep cells (DESIGN.md §12).

:class:`ParallelRunner` fans independent sweep cells (experiment grid
points) out across worker processes; :func:`cell_seed` keeps per-cell
RNG seeds a function of the cell, not the worker, so results are
byte-identical at any ``--jobs`` count.
"""

from repro.parallel.pool import ParallelRunner, cell_seed, resolve_jobs

__all__ = ["ParallelRunner", "cell_seed", "resolve_jobs"]
