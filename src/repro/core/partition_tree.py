"""Binary partition tree for MCIO's I/O workload partition (paper §3.2).

The file region of one aggregation group is recursively bisected; every
vertex represents a non-overlapping portion of the region, internal
vertices are portions "that no longer exist, but were split at some
previous time", and each leaf is a live file domain.

Bisection terminates when a portion's *requested data* drops to the
per-aggregator optimal message size ``Msg_ind`` — the criterion is data
volume, not region width, so dense regions split deeper than sparse ones
("different number of file domains will be generated in each group
depending on the amount and distribution of data").

When a file domain's hosts lack memory, the domain is *remerged* with its
neighbour (paper §3.2, Figure 5):

* **Case 1** — the departing leaf's sibling is itself a leaf: the sibling
  takes over directly and their parent becomes the (merged) leaf.
* **Case 2** — the sibling is internal: depth-first search inside the
  sibling's subtree, visiting the side adjacent to the departing leaf
  first, finds the neighbouring leaf; that leaf absorbs the region.

Invariant maintained throughout: the live leaves, in order, exactly
partition the root region.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional
from weakref import ref

from repro.core.request import Extent

__all__ = ["PartitionNode", "PartitionTree"]


class PartitionNode:
    """One vertex of the partition tree.

    A vertex owns its children; the link back to its parent is weak, so
    a finished plan's tree is freed by reference counting.
    """

    __slots__ = ("extent", "_parent", "left", "right", "__weakref__")

    def __init__(self, extent: Extent, parent: Optional["PartitionNode"] = None):
        self.extent = extent
        self.parent = parent
        self.left: Optional["PartitionNode"] = None
        self.right: Optional["PartitionNode"] = None

    @property
    def parent(self) -> Optional["PartitionNode"]:
        """The vertex this one was split from (None at the root)."""
        return None if self._parent is None else self._parent()

    @parent.setter
    def parent(self, node: Optional["PartitionNode"]) -> None:
        self._parent = None if node is None else ref(node)

    @property
    def is_leaf(self) -> bool:
        """True for live file domains."""
        return self.left is None and self.right is None

    def sibling(self) -> Optional["PartitionNode"]:
        """The other child of this node's parent (None at the root)."""
        if self.parent is None:
            return None
        return self.parent.right if self.parent.left is self else self.parent.left

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.is_leaf else "internal"
        return f"<PartitionNode {kind} [{self.extent.offset}, {self.extent.end})>"


class PartitionTree:
    """Recursive-bisection partition of one group's file region.

    Parameters
    ----------
    region:
        The aggregation group's aggregate file region.
    data_bytes:
        ``data_bytes(lo, hi)`` = requested bytes inside ``[lo, hi)``
        (sum over the group's ranks).  Drives the termination criterion.
    msg_ind:
        Target requested-bytes per leaf (``Msg_ind``).
    stripe_size:
        If > 0, bisection cuts are aligned down to stripe boundaries.
    min_width:
        Never split a region narrower than this (guards degenerate
        recursion when data is extremely dense).
    """

    def __init__(
        self,
        region: Extent,
        data_bytes: Callable[[int, int], int],
        msg_ind: int,
        stripe_size: int = 0,
        min_width: int = 2,
    ):
        if region.empty:
            raise ValueError("cannot partition an empty region")
        if msg_ind < 1:
            raise ValueError("msg_ind must be >= 1")
        if min_width < 2:
            raise ValueError("min_width must be >= 2")
        self.root = PartitionNode(region)
        #: Memoised view of the caller's byte-count function: bisection,
        #: rebalancing, and the restart-heavy remerge passes all re-query
        #: the same subtree extents, and the underlying computation (a sum
        #: of pattern clips over the group's ranks) is the expensive part
        #: of planning.  Keyed by ``(lo, hi)``; the raw callable stays on
        #: :attr:`_data_bytes_raw`.
        self._data_bytes_raw = data_bytes
        self._data_bytes_cache: dict[tuple[int, int], int] = {}
        #: How many distinct extents were actually evaluated (memo misses)
        #: — the unit of planning work the plan cache saves on a hit.
        self.raw_queries = 0
        self.msg_ind = int(msg_ind)
        self.stripe_size = int(stripe_size)
        self.min_width = int(min_width)
        #: File-ordered live leaves, maintained incrementally by
        #: :meth:`remerge` instead of re-walking the tree per query.
        self._leaves: Optional[list[PartitionNode]] = None
        self._build(self.root)

    def data_bytes(self, lo: int, hi: int) -> int:
        """Requested bytes inside ``[lo, hi)``, memoised per extent."""
        key = (lo, hi)
        cached = self._data_bytes_cache.get(key)
        if cached is None:
            cached = self._data_bytes_cache[key] = self._data_bytes_raw(lo, hi)
            self.raw_queries += 1
        return cached

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _cut_point(self, ext: Extent) -> Optional[int]:
        """Midpoint of `ext`, stripe-aligned; None if no legal interior cut."""
        mid = ext.offset + ext.length // 2
        if self.stripe_size > 1:
            aligned = (mid // self.stripe_size) * self.stripe_size
            if aligned <= ext.offset:
                aligned = ext.offset + self.stripe_size
            if aligned >= ext.end:
                return None
            mid = aligned
        if mid <= ext.offset or mid >= ext.end:
            return None
        return mid

    def _build(self, node: PartitionNode) -> None:
        ext = node.extent
        if ext.length < self.min_width:
            return
        if self.data_bytes(ext.offset, ext.end) <= self.msg_ind:
            return
        cut = self._cut_point(ext)
        if cut is None:
            return
        node.left = PartitionNode(Extent(ext.offset, cut - ext.offset), node)
        node.right = PartitionNode(Extent(cut, ext.end - cut), node)
        self._build(node.left)
        self._build(node.right)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def leaves(self) -> list[PartitionNode]:
        """Live file domains in file order."""
        if self._leaves is None:
            self._leaves = list(self._iter_leaves(self.root))
        return list(self._leaves)

    def _iter_leaves(self, node: PartitionNode) -> Iterator[PartitionNode]:
        if node.is_leaf:
            yield node
        else:
            assert node.left is not None and node.right is not None
            yield from self._iter_leaves(node.left)
            yield from self._iter_leaves(node.right)

    def check_invariant(self) -> None:
        """Assert the leaves exactly partition the root region."""
        leaves = self.leaves()
        pos = self.root.extent.offset
        for leaf in leaves:
            if leaf.extent.offset != pos:
                raise AssertionError(
                    f"gap/overlap at {pos}: leaf starts at {leaf.extent.offset}"
                )
            pos = leaf.extent.end
        if pos != self.root.extent.end:
            raise AssertionError(f"leaves end at {pos}, root at {self.root.extent.end}")

    # ------------------------------------------------------------------
    # remerging (paper Figure 5)
    # ------------------------------------------------------------------
    def remerge(self, leaf: PartitionNode) -> PartitionNode:
        """Remove `leaf`; its region is taken over by the neighbouring leaf.

        Returns the absorbing leaf (with its extent already expanded).

        Raises
        ------
        ValueError
            If `leaf` is the only leaf (the root) — nothing to merge with.
        """
        if not leaf.is_leaf:
            raise ValueError("can only remerge a leaf")
        parent = leaf.parent
        if parent is None:
            raise ValueError("cannot remerge the only remaining domain")
        sibling = leaf.sibling()
        assert sibling is not None
        leaf_is_left = parent.left is leaf

        if sibling.is_leaf:
            # Case 1: sibling takes over directly; the parent vertex
            # becomes a leaf owning the merged region.
            parent.left = None
            parent.right = None
            cache = self._leaves
            if cache is not None:
                i = cache.index(leaf)
                if leaf_is_left:
                    cache[i : i + 2] = [parent]
                else:
                    cache[i - 1 : i + 1] = [parent]
            return parent

        # Case 2: DFS inside the sibling subtree, visiting the side
        # adjacent to the departing leaf first, to find the neighbour leaf.
        node = sibling
        while not node.is_leaf:
            assert node.left is not None and node.right is not None
            node = node.left if leaf_is_left else node.right
        absorber = node

        # splice the departing leaf out: the sibling subtree takes the
        # parent's position in the tree
        grand = parent.parent
        sibling.parent = grand
        if grand is None:
            self.root = sibling
        elif grand.left is parent:
            grand.left = sibling
        else:
            grand.right = sibling

        # expand the absorbing leaf and every ancestor on the path up to
        # (and including) the spliced-in sibling to cover the lost region
        merged_lo = min(leaf.extent.offset, absorber.extent.offset)
        merged_hi = max(leaf.extent.end, absorber.extent.end)
        node = absorber
        while True:
            lo = min(node.extent.offset, merged_lo)
            hi = max(node.extent.end, merged_hi)
            node.extent = Extent(lo, hi - lo)
            if node is sibling:
                break
            assert node.parent is not None
            node = node.parent
        cache = self._leaves
        if cache is not None:
            # the absorber object stays live with its extent expanded in
            # place, so only the departing leaf drops out of the order
            cache.remove(leaf)
        return absorber

    @property
    def n_leaves(self) -> int:
        """Number of live file domains."""
        if self._leaves is None:
            self._leaves = list(self._iter_leaves(self.root))
        return len(self._leaves)
