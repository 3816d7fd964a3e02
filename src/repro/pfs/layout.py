"""Round-robin striping layout (Lustre-style).

A file is split into fixed-size stripes assigned to I/O servers round-robin
(stripe ``k`` lives on server ``k mod n_servers``), matching the paper's
testbed ("files were striped over all I/O servers with the round robin
default striping strategy, 1 MB unit size").

A contiguous extent's per-server byte counts
(:meth:`StripeLayout.extent_load`) are O(n_servers) integer arithmetic,
not per-stripe loops, so multi-gigabyte domains cost nothing to plan.
"""

from __future__ import annotations

from repro.core.request import Extent

__all__ = ["StripeLayout"]


class StripeLayout:
    """Maps file byte ranges onto striped I/O servers.

    Parameters
    ----------
    stripe_size:
        Bytes per stripe unit.
    n_servers:
        Number of I/O servers in the round-robin cycle.
    """

    def __init__(self, stripe_size: int, n_servers: int):
        if stripe_size < 1:
            raise ValueError("stripe_size must be >= 1")
        if n_servers < 1:
            raise ValueError("n_servers must be >= 1")
        self.stripe_size = int(stripe_size)
        self.n_servers = int(n_servers)

    def extent_load(self, ext: Extent) -> list[tuple[int, int]]:
        """``(server, nbytes)`` of `ext` on each server it touches,
        ascending by server, in plain integer stripe arithmetic (the plan
        of one client I/O: one request per pair)."""
        length = ext.length
        if length == 0:
            return []
        n, ss = self.n_servers, self.stripe_size
        offset = ext.offset
        end = offset + length
        k0 = offset // ss
        n_stripes = (end - 1) // ss - k0 + 1
        first = k0 % n
        if n_stripes == 1:
            return [(first, length)]
        head_cut = offset - k0 * ss
        tail_cut = (k0 + n_stripes) * ss - end
        last = (first + n_stripes - 1) % n
        if n_stripes < n:
            # one piece per touched server: a cyclic run from `first`
            load = {(first + i) % n: ss for i in range(n_stripes)}
            load[first] -= head_cut
            load[last] -= tail_cut
            return sorted(load.items())
        # every server: whole cycles, then the `rem` stripes from `first`
        full, rem = divmod(n_stripes, n)
        per = [full * ss] * n
        for i in range(rem):
            per[(first + i) % n] += ss
        per[first] -= head_cut
        per[last] -= tail_cut
        return list(enumerate(per))
