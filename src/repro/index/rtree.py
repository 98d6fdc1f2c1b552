"""A Guttman R-tree over paged storage, with the paper's extensions.

Beyond textbook insert/search/delete this tree implements the machinery
Sect. 4 of the paper needs:

* **forced same-path splits** — when an insertion cascades, every freshly
  created node lies on a single path, so the lowest common ancestor of
  all new nodes (and of the inserted record) is simply the *topmost* new
  node.  Live dynamic queries are notified with that one node
  (Sect. 4.1, update management, Fig. 4);
* **insertion listeners** — registered PDQ engines receive an
  :class:`InsertionNotice` after every insert;
* **operation-clock timestamps** — every node touched by an insertion is
  stamped, and leaf entries record their insertion time, enabling NPDQ's
  timestamp check (Sect. 4.2, update management);
* **cost-counted traversal** — :meth:`load_node` and :meth:`search`
  account disk accesses and distance computations exactly as the paper
  measures them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import (
    CorruptPageError,
    IndexStructureError,
    TransientIOError,
)
from repro.geometry import kernels
from repro.geometry.box import Box
from repro.index.entry import Entry, InternalEntry, LeafEntry
from repro.index.node import Node
from repro.index.pagearrays import page_arrays
from repro.index.split import SPLITTERS, Splitter
from repro.storage.constants import DEFAULT_FILL_FACTOR
from repro.storage.disk import DiskManager
from repro.storage.metrics import QueryCost

__all__ = ["RTree", "InsertionNotice", "InsertionListener"]


@dataclass(frozen=True)
class InsertionNotice:
    """Delivered to listeners after each single-record insertion.

    Attributes
    ----------
    entry:
        The leaf entry that was inserted.
    subtree_id:
        Page id of the lowest common ancestor of all nodes created by the
        insertion, or ``None`` when no split occurred (the record went
        into an existing leaf and ``entry`` itself is the notice).
    subtree_level:
        Level of that node (0 = leaf); meaningless when ``subtree_id`` is
        ``None``.
    subtree_box:
        MBR of that node at notification time (``None`` without a split).
    root_changed:
        True when the insertion grew the tree by splitting the root.
    """

    entry: LeafEntry
    subtree_id: Optional[int]
    subtree_level: int
    root_changed: bool
    subtree_box: Optional["Box"] = None


InsertionListener = Callable[[InsertionNotice], None]


class RTree:
    """R-tree over a :class:`~repro.storage.DiskManager`.

    Parameters
    ----------
    disk:
        Page store; a fresh object-mode manager is created if omitted.
    axes:
        Dimensionality of the indexed boxes.
    max_internal, max_leaf:
        Fanout limits (entries per node).  Both must be >= 2.
    fill_factor:
        Fraction of fanout used as the minimum node fill (paper: 0.5).
    split:
        ``"quadratic"`` (default) or ``"linear"``.
    same_path_splits:
        Force cascading splits onto one path (required for the paper's
        single-LCA update notification; on by default).
    restore:
        Recovery metadata (``root_id``/``size``/``clock``) from a
        durable store: reattach to the pages already on ``disk`` instead
        of allocating a fresh root.
    """

    def __init__(
        self,
        axes: int,
        max_internal: int,
        max_leaf: int,
        disk: Optional[DiskManager] = None,
        fill_factor: float = DEFAULT_FILL_FACTOR,
        split: str = "quadratic",
        same_path_splits: bool = True,
        restore: Optional[dict] = None,
    ):
        if axes < 1:
            raise IndexStructureError("axes must be >= 1")
        if max_internal < 2 or max_leaf < 2:
            raise IndexStructureError("fanout must be >= 2")
        if not 0.0 < fill_factor <= 0.5:
            raise IndexStructureError("fill_factor must be in (0, 0.5]")
        if split not in SPLITTERS:
            raise IndexStructureError(f"unknown split policy {split!r}")
        self.axes = axes
        self.max_internal = max_internal
        self.max_leaf = max_leaf
        self.min_internal = max(1, int(max_internal * fill_factor))
        self.min_leaf = max(1, int(max_leaf * fill_factor))
        self.same_path_splits = same_path_splits
        self._splitter: Splitter = SPLITTERS[split]
        self.disk = disk if disk is not None else DiskManager()
        self._parents: Dict[int, int] = {}
        self._listeners: List[InsertionListener] = []
        self._clock = 0
        self._size = 0
        if restore is None:
            root = self._new_node(level=0)
            self._write(root)
            self._root_id = root.page_id
        else:
            # Reattach to pages already on the disk (durable restart):
            # adopt the recovered root/size/clock instead of allocating a
            # fresh root, and rebuild the in-memory parent directory by
            # walking the recovered structure.
            self._root_id = int(restore["root_id"])
            self._size = int(restore.get("size", 0))
            self._clock = int(restore.get("clock", 0))
            if self._root_id not in self.disk:
                raise IndexStructureError(
                    f"restore metadata names root page {self._root_id}, "
                    "which is not allocated on the disk"
                )
            self._rebuild_parents()

    # -- basic accessors ---------------------------------------------------

    @property
    def root_id(self) -> int:
        """Page id of the root node."""
        return self._root_id

    @property
    def clock(self) -> int:
        """Current value of the operation clock."""
        return self._clock

    @property
    def height(self) -> int:
        """Number of levels (1 for a lone leaf root)."""
        return self.disk.read(self._root_id).level + 1

    def __len__(self) -> int:
        return self._size

    def parent_of(self, page_id: int) -> Optional[int]:
        """Parent page id, or ``None`` for the root."""
        return self._parents.get(page_id)

    def depth_of(self, page_id: int) -> int:
        """Distance from the root (root = 0).

        Raises
        ------
        IndexStructureError
            If the page is not part of the tree.
        """
        depth = 0
        cur = page_id
        while cur != self._root_id:
            parent = self._parents.get(cur)
            if parent is None:
                raise IndexStructureError(f"page {page_id} is not in the tree")
            cur = parent
            depth += 1
        return depth

    # -- listeners ------------------------------------------------------------

    def add_listener(self, listener: InsertionListener) -> None:
        """Register an insertion listener (e.g. a live PDQ engine)."""
        self._listeners.append(listener)

    def remove_listener(self, listener: InsertionListener) -> None:
        """Unregister a previously added listener."""
        self._listeners.remove(listener)

    # -- node I/O ----------------------------------------------------------------

    def load_node(self, page_id: int, cost: Optional[QueryCost] = None) -> Node:
        """Read a node, counting one disk access into ``cost`` if given."""
        node = self.disk.read(page_id)
        if cost is not None:
            cost.count_node_read(node.is_leaf)
        return node

    def _new_node(self, level: int) -> Node:
        page_id = self.disk.allocate()
        return Node(page_id, level, timestamp=self._clock)

    def _write(self, node: Node) -> None:
        self.disk.write(node.page_id, node)

    # -- crash consistency -------------------------------------------------------

    def _txn_meta(self) -> dict:
        """Index metadata stashed with each intent-log transaction."""
        return {
            "root_id": self._root_id,
            "size": self._size,
            "clock": self._clock,
        }

    def recovery_meta(self) -> dict:
        """Current recovery metadata (what ``restore=`` reattaches from).

        Durable stores persist this dict with every commit / checkpoint
        so a restart can rebuild the tree handle without replaying any
        index operations.
        """
        return self._txn_meta()

    def _crash_safe(self, op: Callable[[], object]) -> object:
        """Run a multi-page operation under the disk's intent log.

        When no log is attached (or one transaction is already in
        flight — e.g. orphan reinsertion inside a delete), the operation
        runs bare.  Otherwise a failure either rolls back immediately
        (``auto_rollback``, the default: atomic ops) or leaves the
        in-flight transaction pending to simulate a crash, to be undone
        by a later :meth:`recover`.
        """
        log = self.disk.intent_log
        if log is None or log.in_flight:
            return op()
        log.begin(meta=self._txn_meta())
        try:
            result = op()
        except Exception:
            if log.auto_rollback:
                self.recover()
            raise
        # The commit carries the *post*-operation metadata: a durable log
        # persists it so restart replay can reattach the tree at the
        # committed root/size/clock (the begin-meta is the undo target).
        log.commit(meta=self._txn_meta())
        return result

    def recover(self) -> bool:
        """Undo a half-applied operation after a (simulated) crash.

        Rolls back the intent log's in-flight transaction, restores the
        root/size/clock metadata stashed at transaction start, and
        rebuilds the parent directory from the restored topology.
        Returns ``True`` if there was anything to recover.
        """
        log = self.disk.intent_log
        if log is None or not log.in_flight:
            return False
        meta = log.rollback(self.disk)
        self._root_id = meta.get("root_id", self._root_id)
        self._size = meta.get("size", self._size)
        self._clock = meta.get("clock", self._clock)
        self._rebuild_parents()
        return True

    def _rebuild_parents(self) -> None:
        """Recompute the parent directory by walking the (restored) tree."""
        parents: Dict[int, int] = {}
        stack = [self._root_id]
        while stack:
            node = self.disk.read(stack.pop())
            if node.is_leaf:
                continue
            for child in node.child_ids():
                parents[child] = node.page_id
                stack.append(child)
        self._parents = parents

    # -- insertion -------------------------------------------------------------------

    def insert(self, entry: LeafEntry) -> InsertionNotice:
        """Insert one record, notify listeners, return the notice.

        The entry's ``timestamp`` is overwritten with the current clock
        tick so that NPDQ's update management sees a consistent order.
        With an intent log attached the multi-page update is atomic:
        a failure mid-split rolls the tree back to its pre-insert state.
        """
        return self._crash_safe(lambda: self._insert_impl(entry))  # type: ignore[return-value]

    def _insert_impl(self, entry: LeafEntry) -> InsertionNotice:
        if entry.box.dims != self.axes:
            raise IndexStructureError(
                f"entry box has {entry.box.dims} axes, tree has {self.axes}"
            )
        self._clock += 1
        stamped = LeafEntry(entry.box, entry.record, timestamp=self._clock)

        path = self._choose_path(stamped.box)
        leaf = path[-1]
        leaf.add(stamped, self._clock)
        self._size += 1

        new_nodes: List[Node] = []
        root_changed = False
        pinned: Optional[tuple] = stamped.key if self.same_path_splits else None

        node = leaf
        level_idx = len(path) - 1
        while True:
            limit = self.max_leaf if node.is_leaf else self.max_internal
            if len(node.entries) <= limit:
                self._write(node)
                break
            min_fill = self.min_leaf if node.is_leaf else self.min_internal
            keep, new = self._splitter(node.entries, min_fill, pinned)
            node.replace_entries(keep, self._clock)
            sibling = self._new_node(node.level)
            sibling.replace_entries(new, self._clock)
            self._write(node)
            self._write(sibling)
            new_nodes.append(sibling)
            for child in self._child_ids_of(sibling):
                self._parents[child] = sibling.page_id

            if level_idx == 0:
                # Root split: grow the tree.
                new_root = self._new_node(node.level + 1)
                new_root.add(
                    InternalEntry(node.mbr(), node.page_id, timestamp=self._clock),
                    self._clock,
                )
                new_root.add(
                    InternalEntry(
                        sibling.mbr(), sibling.page_id, timestamp=self._clock
                    ),
                    self._clock,
                )
                self._write(new_root)
                self._parents[node.page_id] = new_root.page_id
                self._parents[sibling.page_id] = new_root.page_id
                self._root_id = new_root.page_id
                new_nodes.append(new_root)
                root_changed = True
                break

            parent = path[level_idx - 1]
            parent.update_child_box(node.page_id, node.mbr(), self._clock)
            parent.add(
                InternalEntry(
                    sibling.mbr(), sibling.page_id, timestamp=self._clock
                ),
                self._clock,
            )
            self._parents[sibling.page_id] = parent.page_id
            pinned = (
                ("node", sibling.page_id) if self.same_path_splits else None
            )
            node = parent
            level_idx -= 1

        if not root_changed:
            self._adjust_upward(path, level_idx)

        notice = InsertionNotice(
            entry=stamped,
            subtree_id=new_nodes[-1].page_id if new_nodes else None,
            subtree_level=new_nodes[-1].level if new_nodes else 0,
            root_changed=root_changed,
            subtree_box=new_nodes[-1].mbr() if new_nodes else None,
        )
        for listener in self._listeners:
            listener(notice)
        return notice

    def _child_ids_of(self, node: Node) -> Tuple[int, ...]:
        if node.is_leaf:
            return ()
        return node.child_ids()

    def _choose_path(self, box: Box, stop_level: int = 0) -> List[Node]:
        """Guttman ChooseLeaf, root down to a node at ``stop_level``:
        least enlargement, then least volume, then the first entry."""
        lows, highs = box.lows, box.highs
        node = self.disk.read(self._root_id)
        path = [node]
        while node.level > stop_level:
            arrays = page_arrays(node)
            row = kernels.choose_subtree(arrays.box_batch(), lows, highs)
            node = self.disk.read(arrays.child_id(row))
            path.append(node)
        return path

    def _adjust_upward(self, path: List[Node], from_idx: int) -> None:
        """Propagate tightened/grown MBRs from ``path[from_idx]`` to root."""
        for i in range(from_idx, 0, -1):
            child = path[i]
            parent = path[i - 1]
            parent.update_child_box(child.page_id, child.mbr(), self._clock)
            self._write(parent)

    # -- deletion --------------------------------------------------------------------

    def delete(self, key: tuple, box: Box) -> bool:
        """Remove the record with segment ``key`` whose entry box overlaps
        ``box``.  Returns ``True`` if found.

        Not used by the paper's experiments (which are insert-only), and
        not coordinated with live dynamic queries — callers must not
        delete while dynamic queries are active.  With an intent log
        attached the condense/reinsert cascade is atomic.
        """
        return self._crash_safe(lambda: self._delete_impl(key, box))  # type: ignore[return-value]

    def _delete_impl(self, key: tuple, box: Box) -> bool:
        self._clock += 1
        found = self._find_leaf(self._root_id, key, box)
        if found is None:
            return False
        leaf = found
        leaf.remove_record(key, self._clock)
        self._size -= 1
        self._condense(leaf)
        return True

    def _find_leaf(self, page_id: int, key: tuple, box: Box) -> Optional[Node]:
        node = self.disk.read(page_id)
        if node.is_leaf:
            for e in node.entries:
                if e.record.key == key:  # type: ignore[union-attr]
                    return node
            return None
        for e in node.entries:
            if e.box.overlaps(box):
                hit = self._find_leaf(e.child_id, key, box)  # type: ignore[union-attr]
                if hit is not None:
                    return hit
        return None

    def _condense(self, leaf: Node) -> None:
        """Guttman CondenseTree: drop underfull nodes, reinsert orphans."""
        orphans: List[Tuple[int, Entry]] = []
        node = leaf
        while node.page_id != self._root_id:
            parent_id = self._parents[node.page_id]
            parent = self.disk.read(parent_id)
            min_fill = self.min_leaf if node.is_leaf else self.min_internal
            if len(node.entries) < min_fill:
                parent.remove_child(node.page_id, self._clock)
                # Record each orphan with the level of the node the entry
                # POINTS TO (0 for leaf records), so reinsertion reattaches
                # it at the right height.
                child_level = node.level - 1 if not node.is_leaf else 0
                for e in node.entries:
                    orphans.append((child_level, e))
                del self._parents[node.page_id]
                self.disk.free(node.page_id)
            else:
                parent.update_child_box(node.page_id, node.mbr(), self._clock)
                self._write(node)
            self._write(parent)
            node = parent
        self._write(node)

        root = self.disk.read(self._root_id)
        if not root.is_leaf and len(root.entries) == 1:
            # Shrink the tree: the lone child becomes the root.
            child_id = root.child_ids()[0]
            self.disk.free(root.page_id)
            del self._parents[child_id]
            self._root_id = child_id

        for child_level, entry in sorted(orphans, key=lambda it: -it[0]):
            if isinstance(entry, LeafEntry):
                self._size -= 1  # reinsert() will count it again
                self.insert(entry)
            else:
                self._reinsert_subtree(child_level, entry)

    def _reinsert_subtree(self, child_level: int, entry: InternalEntry) -> None:
        """Reattach an orphaned subtree whose root sits at ``child_level``.

        The entry is added to a node at ``child_level + 1``.  If the tree
        has meanwhile shrunk below that height, the subtree is dissolved
        and its leaf records reinserted one by one.
        """
        root_level = self.disk.read(self._root_id).level
        if root_level < child_level + 1:
            for leaf in self._subtree_leaf_entries(entry.child_id):
                self._size -= 1
                self.insert(leaf)
            return
        self._clock += 1
        path = self._choose_path(entry.box, stop_level=child_level + 1)
        node = path[-1]
        node.add(
            InternalEntry(entry.box, entry.child_id, timestamp=self._clock),
            self._clock,
        )
        self._parents[entry.child_id] = node.page_id
        # A cascading overflow here is possible but rare; handle it by the
        # same split machinery as insertion.
        level_idx = len(path) - 1
        while len(node.entries) > self.max_internal:
            keep, new = self._splitter(node.entries, self.min_internal, None)
            node.replace_entries(keep, self._clock)
            sibling = self._new_node(node.level)
            sibling.replace_entries(new, self._clock)
            self._write(node)
            self._write(sibling)
            for child in sibling.child_ids():
                self._parents[child] = sibling.page_id
            if level_idx == 0:
                new_root = self._new_node(node.level + 1)
                new_root.add(
                    InternalEntry(node.mbr(), node.page_id, timestamp=self._clock),
                    self._clock,
                )
                new_root.add(
                    InternalEntry(
                        sibling.mbr(), sibling.page_id, timestamp=self._clock
                    ),
                    self._clock,
                )
                self._write(new_root)
                self._parents[node.page_id] = new_root.page_id
                self._parents[sibling.page_id] = new_root.page_id
                self._root_id = new_root.page_id
                return
            parent = path[level_idx - 1]
            parent.update_child_box(node.page_id, node.mbr(), self._clock)
            parent.add(
                InternalEntry(
                    sibling.mbr(), sibling.page_id, timestamp=self._clock
                ),
                self._clock,
            )
            self._parents[sibling.page_id] = parent.page_id
            node = parent
            level_idx -= 1
        self._write(node)
        self._adjust_upward(path, level_idx)

    def _subtree_leaf_entries(self, page_id: int) -> List[LeafEntry]:
        """Collect all leaf records under ``page_id`` and free its pages.

        Used when an orphaned subtree can no longer be reattached at its
        original height (the tree shrank past it).
        """
        records: List[LeafEntry] = []
        stack = [page_id]
        while stack:
            pid = stack.pop()
            node = self.disk.read(pid)
            if node.is_leaf:
                records.extend(node.entries)  # type: ignore[arg-type]
            else:
                stack.extend(node.child_ids())
            self._parents.pop(pid, None)
            self.disk.free(pid)
        return records

    # -- search ------------------------------------------------------------------------

    def search(
        self,
        box: Box,
        cost: Optional[QueryCost] = None,
        leaf_test: Optional[Callable[[LeafEntry], bool]] = None,
        *,
        fault_budget: int = 0,
        skipped: Optional[List[int]] = None,
    ) -> Iterator[LeafEntry]:
        """Range search: yield leaf entries whose indexed box overlaps
        ``box`` and (if given) pass the exact ``leaf_test``.

        Every node load counts one disk access; every entry examined
        counts one distance computation; every ``leaf_test`` invocation
        counts one segment test (the Sect. 3.2 optimization's CPU cost).

        Graceful degradation: when ``skipped`` is given, a node whose
        load fails (transient fault that exhausted the disk's retry
        policy, or detected corruption) is re-enqueued up to
        ``fault_budget`` more times; once that budget is spent its page
        id is appended to ``skipped`` and the subtree is abandoned,
        making the answer a well-accounted *subset*.  Without
        ``skipped`` the storage error propagates (legacy behaviour).
        """
        if box.dims != self.axes:
            raise IndexStructureError(f"query box has {box.dims} axes, tree has {self.axes}")
        stack = [self._root_id]
        attempts: Dict[int, int] = {}
        while stack:
            page_id = stack.pop()
            try:
                node = self.load_node(page_id, cost)
            except (TransientIOError, CorruptPageError):
                if skipped is None:
                    raise
                tries = attempts.get(page_id, 0)
                if tries < fault_budget:
                    attempts[page_id] = tries + 1
                    stack.insert(0, page_id)  # retry after the rest
                else:
                    skipped.append(page_id)
                continue
            if node.is_leaf:
                for e in node.entries:
                    if cost is not None:
                        cost.count_distance_computations()
                    if not e.box.overlaps(box):
                        continue
                    if leaf_test is not None:
                        if cost is not None:
                            cost.count_segment_tests()
                        if not leaf_test(e):  # type: ignore[arg-type]
                            continue
                    if cost is not None:
                        cost.count_results()
                    yield e  # type: ignore[misc]
            else:
                for e in node.entries:
                    if cost is not None:
                        cost.count_distance_computations()
                    if e.box.overlaps(box):
                        stack.append(e.child_id)  # type: ignore[union-attr]

    def all_leaf_entries(self) -> Iterator[LeafEntry]:
        """Uncounted full scan (test oracle)."""
        stack = [self._root_id]
        while stack:
            node = self.disk.read(stack.pop())
            if node.is_leaf:
                for e in node.entries:
                    yield e  # type: ignore[misc]
            else:
                stack.extend(node.child_ids())

    # -- bulk registration (used by repro.index.bulk) -------------------------------

    def _adopt(self, root: Node, parents: Dict[int, int], size: int) -> None:
        """Install a bulk-built subtree as this tree's content.

        The previous (empty) root page is freed.  Intended for
        :func:`~repro.index.bulk.str_bulk_load` only.
        """
        if self._size:
            raise IndexStructureError("cannot adopt into a non-empty tree")
        self.disk.free(self._root_id)
        self._root_id = root.page_id
        self._parents = dict(parents)
        self._size = size
