"""The append-forest index of Section 4.3 (Figures 4-2 and 4-3).

An append-forest provides logarithmic read access to records held in
append-only storage, with constant-time appends, "providing that keys
are appended to the tree in strictly increasing order".

Structure
---------

A *complete* append forest with ``2^n − 1`` nodes is accessed like a
binary search tree with two properties:

1. the key of the root of any subtree is greater than all its
   descendants' keys; and
2. all keys in the right subtree of any node are greater than all keys
   in the left subtree.

An *incomplete* forest is a sequence of complete trees of strictly
decreasing height, except that the two smallest trees may share a
height.  Every node carries a *forest pointer* linking the root of each
tree to the root of the next tree to its left, so all nodes are
reachable from the most recently appended node (the forest root).

Append rule (reproduces the Figure 4-3 narration exactly): if the two
smallest trees have equal height ``h``, the new key becomes the root of
a height ``h+1`` tree with those trees as its left and right sons;
otherwise the new key starts a height-0 tree.  Either way its forest
pointer names the root of the next tree to the left.  All pointers
refer to already-written nodes, so the structure lives happily on
write-once storage.

Keys here are *ranges* of LSNs: "each node of the append forest will
contain pointers to each log record in its range", so one page-sized
node indexes many records.  The degenerate range ``lo == hi`` gives the
single-key forest of the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from .pages import AppendOnlyPageStore, PageAddress


class AppendForestError(Exception):
    """Keys out of order or a malformed forest."""


@dataclass(frozen=True, slots=True)
class ForestNode:
    """One immutable node, stored as one page.

    ``lo``/``hi`` delimit the node's own key range; ``entries`` maps
    each key in the range to its record locator (e.g. a disk offset).
    ``tree_min`` caches the smallest key in the subtree rooted here so
    searches can pick the right tree in one comparison.  ``height`` is
    the height of the complete tree rooted here.
    """

    lo: int
    hi: int
    entries: tuple[Any, ...]
    left: PageAddress | None
    right: PageAddress | None
    forest: PageAddress | None
    tree_min: int
    height: int

    def covers(self, key: int) -> bool:
        return self.lo <= key <= self.hi

    def locate(self, key: int) -> Any:
        if not self.covers(key):
            raise AppendForestError(f"key {key} outside node [{self.lo},{self.hi}]")
        return self.entries[key - self.lo]


@dataclass(slots=True)
class _TreeSummary:
    """Root bookkeeping kept in volatile memory (rebuildable by scan)."""

    address: PageAddress
    height: int


class AppendForest:
    """An append-forest over an append-only page store.

    The only volatile state is the stack of current tree roots, which
    :meth:`rebuild_from_store` reconstructs from the pages alone — the
    recovery path a server takes after a crash when the forest lives on
    write-once storage.
    """

    def __init__(self, store: AppendOnlyPageStore | None = None):
        self.store = store if store is not None else AppendOnlyPageStore("forest")
        self._roots: list[_TreeSummary] = []
        self._count = 0
        self._high_key: int | None = None
        # instrumentation for the complexity experiments
        self.last_search_hops = 0

    # -- append ------------------------------------------------------------

    def append(self, lo: int, hi: int, entries: tuple[Any, ...] | list[Any]) -> PageAddress:
        """Append a node covering keys ``[lo, hi]``.

        ``entries[i]`` is the locator for key ``lo + i``.  Keys must be
        strictly above every previously appended key.
        """
        if lo > hi:
            raise AppendForestError(f"empty key range [{lo}, {hi}]")
        if len(entries) != hi - lo + 1:
            raise AppendForestError(
                f"range [{lo},{hi}] needs {hi - lo + 1} entries, got {len(entries)}"
            )
        if self._high_key is not None and lo <= self._high_key:
            raise AppendForestError(
                f"keys must increase: high key is {self._high_key}, got lo={lo}"
            )

        if (
            len(self._roots) >= 2
            and self._roots[-1].height == self._roots[-2].height
        ):
            # Merge the two smallest trees under the new node.
            right = self._roots.pop()
            left = self._roots.pop()
            left_node = self.store.read(left.address)
            forest = self._roots[-1].address if self._roots else None
            node = ForestNode(
                lo=lo, hi=hi, entries=tuple(entries),
                left=left.address, right=right.address, forest=forest,
                tree_min=left_node.tree_min, height=left.height + 1,
            )
        else:
            forest = self._roots[-1].address if self._roots else None
            node = ForestNode(
                lo=lo, hi=hi, entries=tuple(entries),
                left=None, right=None, forest=forest,
                tree_min=lo, height=0,
            )
        address = self.store.append(node)
        self._roots.append(_TreeSummary(address, node.height))
        self._count += 1
        self._high_key = hi
        return address

    def append_key(self, key: int, entry: Any) -> PageAddress:
        """Append a single-key node (the paper's figures use these)."""
        return self.append(key, key, (entry,))

    # -- search --------------------------------------------------------------

    @property
    def root_address(self) -> PageAddress | None:
        """Address of the forest root: the most recently appended node."""
        return self._roots[-1].address if self._roots else None

    def search(self, key: int) -> Any:
        """Locate ``key``; raises :class:`KeyError` if never appended.

        "Searches in an append forest follow a chain of forest pointers
        from the root until a tree (potentially) containing the desired
        key is found.  Binary tree search is then used on the tree."
        """
        self.last_search_hops = 0
        address = self.root_address
        # Follow forest pointers leftward to the tree covering `key`.
        while address is not None:
            node = self.store.read(address)
            self.last_search_hops += 1
            if key > node.hi:
                # Keys increase rightward; a key above this tree's max
                # but below the forest root's max fell in a gap: absent.
                raise KeyError(key)
            if key >= node.tree_min:
                return self._search_tree(address, key)
            address = node.forest
        raise KeyError(key)

    def _search_tree(self, address: PageAddress, key: int) -> Any:
        node = self.store.read(address)
        while True:
            if node.covers(key):
                return node.locate(key)
            if node.left is None:
                raise KeyError(key)
            left = self.store.read(node.left)
            self.last_search_hops += 1
            if key <= left.hi:
                node = left
            else:
                if node.right is None:
                    raise KeyError(key)
                node = self.store.read(node.right)
        # unreachable

    def __contains__(self, key: int) -> bool:
        try:
            self.search(key)
        except KeyError:
            return False
        return True

    def __len__(self) -> int:
        """Number of nodes (not keys) in the forest."""
        return self._count

    @property
    def high_key(self) -> int | None:
        return self._high_key

    # -- introspection & invariants -----------------------------------------

    def tree_heights(self) -> list[int]:
        """Heights of the current trees, oldest first."""
        return [r.height for r in self._roots]

    def check_invariants(self) -> None:
        """Verify the two BST properties and the height discipline.

        Raises :class:`AppendForestError` on any violation; used by the
        property-based tests.
        """
        heights = self.tree_heights()
        for older, newer in zip(heights, heights[1:]):
            if newer > older:
                raise AppendForestError(f"heights not non-increasing: {heights}")
        for older, newer in zip(heights, heights[2:]):
            if older == newer:
                raise AppendForestError(
                    f"more than two trees share a height: {heights}"
                )
        prev_min = None
        for summary in reversed(self._roots):  # newest (largest keys) first
            node = self.store.read(summary.address)
            self._check_subtree(summary.address)
            if prev_min is not None and node.hi >= prev_min:
                raise AppendForestError("tree key spans overlap")
            prev_min = node.tree_min

    def _check_subtree(self, address: PageAddress) -> tuple[int, int, int]:
        """Return (min_key, max_key, height); raise on violations."""
        node = self.store.read(address)
        if node.left is None and node.right is None:
            if node.height != 0:
                raise AppendForestError("leaf with nonzero height")
            if node.tree_min != node.lo:
                raise AppendForestError("leaf tree_min mismatch")
            return node.lo, node.hi, 0
        if node.left is None or node.right is None:
            raise AppendForestError("trees are complete: one child missing")
        lmin, lmax, lh = self._check_subtree(node.left)
        rmin, rmax, rh = self._check_subtree(node.right)
        if lh != rh:
            raise AppendForestError("subtree heights differ")
        if node.height != lh + 1:
            raise AppendForestError("height not child height + 1")
        if not (lmax < rmin and rmax < node.lo):
            raise AppendForestError(
                "BST order violated: left < right < root required"
            )
        if node.tree_min != lmin:
            raise AppendForestError("tree_min not the left subtree minimum")
        return lmin, node.hi, node.height

    def keys(self) -> Iterator[int]:
        """All keys in increasing order (walks trees oldest-first)."""
        for summary in self._roots:
            yield from self._tree_keys(summary.address)

    def _tree_keys(self, address: PageAddress) -> Iterator[int]:
        node = self.store.read(address)
        if node.left is not None:
            yield from self._tree_keys(node.left)
        if node.right is not None:
            yield from self._tree_keys(node.right)
        yield from range(node.lo, node.hi + 1)

    # -- recovery -------------------------------------------------------------

    def rebuild_from_store(self) -> None:
        """Reconstruct the volatile root stack by scanning the pages.

        The last page is the forest root; the root stack is the forest
        chain reversed.  ``count`` and ``high_key`` come from the scan.
        A torn final page (truncated tail) simply yields the forest as
        of the previous append — the durability contract of append-only
        structures.
        """
        self._roots = []
        self._count = len(self.store)
        if self._count == 0:
            self._high_key = None
            return
        chain = []
        address: PageAddress | None = len(self.store) - 1
        high = self.store.read(address).hi
        while address is not None:
            node = self.store.read(address)
            chain.append(_TreeSummary(address, node.height))
            address = node.forest
        self._roots = list(reversed(chain))
        self._high_key = high
