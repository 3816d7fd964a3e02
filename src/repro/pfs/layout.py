"""Round-robin striping layout (Lustre-style).

A file is split into fixed-size stripes assigned to I/O servers round-robin
(stripe ``k`` lives on server ``k mod n_servers``), matching the paper's
testbed ("files were striped over all I/O servers with the round robin
default striping strategy, 1 MB unit size").

Per-server byte counts for a contiguous extent are computed in
O(n_servers) arithmetic, not per-stripe loops, so multi-gigabyte domains
cost nothing to plan (:meth:`StripeLayout.extent_load` in plain integers
for the storage hot path, :meth:`StripeLayout.per_server_bytes` as an
array); a whole block array's exact per-server load is a handful of
array passes (:meth:`StripeLayout.server_load`).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

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

    # ------------------------------------------------------------------
    def stripe_of(self, offset: int) -> int:
        """Stripe index containing byte `offset`."""
        if offset < 0:
            raise ValueError("negative offset")
        return offset // self.stripe_size

    def server_of(self, offset: int) -> int:
        """Server holding byte `offset`."""
        return self.stripe_of(offset) % self.n_servers

    # ------------------------------------------------------------------
    def split_extent(self, ext: Extent) -> Iterator[tuple[int, Extent]]:
        """Yield ``(server, piece)`` per stripe piece of `ext`, in file order.

        Per-stripe iteration — use for data placement of bounded extents
        (collective-buffer sized), not for planning huge domains.
        """
        if ext.empty:
            return
        pos = ext.offset
        end = ext.end
        while pos < end:
            stripe = pos // self.stripe_size
            stripe_end = (stripe + 1) * self.stripe_size
            piece_end = min(end, stripe_end)
            yield (stripe % self.n_servers, Extent(pos, piece_end - pos))
            pos = piece_end

    def per_server_bytes(self, ext: Extent) -> np.ndarray:
        """Bytes of `ext` landing on each server — O(n_servers) arithmetic."""
        out = np.zeros(self.n_servers, dtype=np.int64)
        if ext.empty:
            return out
        ss = self.stripe_size
        k0 = ext.offset // ss
        k1 = (ext.end - 1) // ss
        if k0 == k1:
            out[k0 % self.n_servers] = ext.length
            return out
        # full assignment assuming every stripe fully covered ...
        n_stripes = k1 - k0 + 1
        full_cycles, rem = divmod(n_stripes, self.n_servers)
        out[:] = full_cycles * ss
        # ... the `rem` extra stripes start at server k0 % n
        first = k0 % self.n_servers
        for i in range(rem):
            out[(first + i) % self.n_servers] += ss
        # correct the partial first and last stripes
        head_cut = ext.offset - k0 * ss
        out[k0 % self.n_servers] -= head_cut
        tail_cut = (k1 + 1) * ss - ext.end
        out[k1 % self.n_servers] -= tail_cut
        return out

    def extent_load(self, ext: Extent) -> list[tuple[int, int]]:
        """``(server, nbytes)`` of `ext` on each server it touches,
        ascending by server: :meth:`per_server_bytes` without the zeros,
        in plain integer stripe arithmetic (one client I/O plans one)."""
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

    def server_load(
        self, starts: np.ndarray, ends: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact per-server ``(nbytes, requests)`` of the int64 blocks
        ``[starts[i], ends[i])``, one request per block per server it
        touches: :meth:`per_server_bytes` summed block by block.

        A block adds ``F(end) - F(start)`` bytes (:meth:`_prefix_load`).
        One spanning ``n_servers`` stripes touches every server; a
        shorter one the cyclic run from its first stripe's server.
        """
        n, ss = self.n_servers, self.stripe_size
        keep = ends > starts
        starts, ends = starts[keep], ends[keep]
        nbytes = self._prefix_load(ends) - self._prefix_load(starts)
        first = starts // ss
        n_stripes = (ends - 1) // ss - first + 1
        short = n_stripes < n
        lo = first[short] % n
        diff = np.bincount(lo, minlength=2 * n) - np.bincount(
            lo + n_stripes[short], minlength=2 * n
        )
        touched = np.cumsum(diff)
        requests = touched[:n] + touched[n:] + int(np.count_nonzero(~short))
        return nbytes, requests

    def _prefix_load(self, xs: np.ndarray) -> np.ndarray:
        """Per-server bytes of ``[0, x)`` summed over ``x in xs``: full
        stripe cycles, whole stripes before the partial one, the partial."""
        n, ss = self.n_servers, self.stripe_size
        rem = xs % (ss * n)
        server = rem // ss
        out = ss * int((xs // (ss * n)).sum()) + ss * (
            server.size - np.cumsum(np.bincount(server, minlength=n))
        )
        np.add.at(out, server, rem - server * ss)
        return out

    def servers_touched(self, ext: Extent) -> list[int]:
        """Servers holding at least one byte of `ext`, ascending."""
        return [server for server, _ in self.extent_load(ext)]

