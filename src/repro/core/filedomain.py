"""File-domain structures and the baseline even partitioning.

A *file domain* is the contiguous slice of the aggregate file region one
aggregator is responsible for.  The baseline (ROMIO) splits the region
evenly among a fixed aggregator set; MCIO derives domains from its
partition tree instead (see :mod:`repro.core.partition_tree`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.request import Extent

__all__ = ["FileDomain", "even_domains", "rounds_for"]


@dataclass(frozen=True)
class FileDomain:
    """One aggregator's assignment.

    Attributes
    ----------
    extent:
        The contiguous file region this aggregator owns.
    aggregator_rank:
        The rank that performs I/O for the region.
    buffer_bytes:
        Aggregation-buffer size the aggregator will allocate.
    paged:
        True if, at planning time, the host could not supply
        ``buffer_bytes`` from available memory (the allocation will page).
    group_id:
        Aggregation group the domain belongs to (0 for the baseline's
        single implicit group).
    """

    extent: Extent
    aggregator_rank: int
    buffer_bytes: int
    paged: bool = False
    group_id: int = 0

    def __post_init__(self) -> None:
        if self.buffer_bytes < 1:
            raise ValueError("buffer_bytes must be >= 1")
        if self.aggregator_rank < 0:
            raise ValueError("aggregator_rank must be >= 0")

    @property
    def rounds(self) -> int:
        """Collective-buffer rounds needed to cover the domain."""
        return rounds_for(self.extent.length, self.buffer_bytes)


def rounds_for(domain_bytes: int, buffer_bytes: int) -> int:
    """Number of collective-buffer rounds for a domain of `domain_bytes`."""
    if buffer_bytes < 1:
        raise ValueError("buffer_bytes must be >= 1")
    return max(1, math.ceil(domain_bytes / buffer_bytes))


def even_domains(
    lo: int,
    hi: int,
    n_domains: int,
    stripe_size: int = 0,
) -> list[Extent]:
    """Split ``[lo, hi)`` into `n_domains` near-equal contiguous extents.

    This is ROMIO's file-domain calculation: domain size =
    ``ceil(span / n)``, with optional alignment of interior boundaries
    down to `stripe_size` multiples so no two aggregators share a stripe.
    Trailing domains may come out empty (and are dropped), exactly as
    ROMIO leaves trailing aggregators idle for small files.

    Returns
    -------
    list of Extent
        Non-empty domains in file order; their union is ``[lo, hi)``.
    """
    if hi < lo:
        raise ValueError(f"hi {hi} < lo {lo}")
    if n_domains < 1:
        raise ValueError("n_domains must be >= 1")
    span = hi - lo
    if span == 0:
        return []
    fd_size = math.ceil(span / n_domains)
    if stripe_size > 0 and fd_size > stripe_size:
        # round the domain size up to a stripe multiple (ROMIO's Lustre
        # driver aligns domains so aggregators do not split stripes)
        fd_size = math.ceil(fd_size / stripe_size) * stripe_size
    out: list[Extent] = []
    start = lo
    for _ in range(n_domains):
        if start >= hi:
            break
        end = min(start + fd_size, hi)
        out.append(Extent(start, end - start))
        start = end
    return out
