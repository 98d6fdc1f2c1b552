"""R-tree nodes.

A node occupies exactly one disk page.  ``level`` counts from 0 at the
leaves; internal nodes hold :class:`~repro.index.entry.InternalEntry`
children and leaves hold :class:`~repro.index.entry.LeafEntry` records.

Each node carries a ``timestamp`` — the index operation clock value of
its last structural modification.  Sect. 4.2's NPDQ update management
reads it: if a node changed after the previous query ran, discardability
against that query must not be applied to the node.

A node keeps its entries in one of two forms.  An **object-mode** node
(built by the index in memory) holds a plain ``list`` of entry objects;
that list is its state.  A **page-backed** node (built by a page codec,
:meth:`Node.from_rows`) holds the page's columns
(:class:`~repro.index.pagearrays.PageRows`): ``entries`` is then a
sequence view over the rows that builds an entry object only for the row
asked for, and the mutators below write rows instead of list items.
Either way the methods mean the same thing; ``replace_entries`` (a
split) turns a page-backed node into an object-mode one.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import DimensionalityError, IndexStructureError
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.index.entry import Entry, InternalEntry, LeafEntry

__all__ = ["Node"]


class Node:
    """One R-tree node, resident on one disk page."""

    __slots__ = ("page_id", "level", "entries", "timestamp", "_mbr", "_arrays")

    def __init__(
        self,
        page_id: int,
        level: int,
        entries: Optional[Sequence[Entry]] = None,
        timestamp: int = 0,
    ):
        if level < 0:
            raise IndexStructureError(f"negative node level {level}")
        self.page_id = page_id
        self.level = level
        self.entries: List[Entry] = list(entries) if entries else []
        self.timestamp = timestamp
        self._mbr: Optional[Box] = None
        self._arrays = None  # cached PageArrays view (repro.index.pagearrays)

    @classmethod
    def from_rows(cls, page_id: int, level: int, timestamp: int, rows) -> "Node":
        """A page-backed node over ``rows``
        (:class:`~repro.index.pagearrays.PageRows`), which is both its
        ``entries`` and the kernel view ``page_arrays`` hands out."""
        node = cls.__new__(cls)
        node.page_id = page_id
        node.level = level
        node.entries = rows
        node.timestamp = timestamp
        node._mbr = None
        node._arrays = rows
        return node

    @property
    def _page_backed(self) -> bool:
        return self._arrays is self.entries

    # -- classification ------------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        """True for level-0 nodes."""
        return self.level == 0

    def __len__(self) -> int:
        return len(self.entries)

    def clone(self) -> "Node":
        """Independent copy (entries are immutable, so a shallow list copy
        suffices).  Used by the intent log to capture page pre-images in
        object-storage mode, where the disk hands out this very object
        by reference."""
        return Node(self.page_id, self.level, list(self.entries), self.timestamp)

    # -- geometry ---------------------------------------------------------------

    def mbr(self) -> Box:
        """Minimum bounding box of all entries (cached until mutation).

        Raises
        ------
        IndexStructureError
            If the node has no entries.
        """
        if self._mbr is None:
            if not self.entries:
                raise IndexStructureError(f"node {self.page_id} has no entries")
            if self._page_backed:
                self._mbr = self.entries.mbr()
                return self._mbr
            # One pass, same result as folding Box.cover over the entries:
            # empty boxes are skipped (when every box is empty the fold
            # ends on the last), min/max keep the first of equal bounds.
            boxes = [e.box for e in self.entries]
            dims = boxes[0].dims
            if any(b.dims != dims for b in boxes):
                raise DimensionalityError(
                    f"node {self.page_id} mixes box dimensionalities"
                )
            full = [b for b in boxes if not b.is_empty]
            if len(full) < 2:
                self._mbr = full[0] if full else boxes[-1]
            else:
                self._mbr = Box(
                    Interval(min(x.low for x in axis), max(x.high for x in axis))
                    for axis in zip(*(b.extents for b in full))
                )
        return self._mbr

    # -- mutation (invalidates the cached MBR) -----------------------------------

    def _touched(self, clock: int) -> None:
        self.timestamp = max(self.timestamp, clock)
        self._mbr = None
        if not self._page_backed:
            self._arrays = None

    def add(self, entry: Entry, clock: int) -> None:
        """Append an entry and stamp the modification time."""
        self._check_entry_kind(entry)
        self.entries.append(entry)
        self._touched(clock)

    def replace_entries(self, entries: Sequence[Entry], clock: int) -> None:
        """Swap in a whole new entry list (used by splits)."""
        for e in entries:
            self._check_entry_kind(e)
        self.entries = list(entries)
        self._arrays = None
        self._touched(clock)

    def remove_child(self, child_id: int, clock: int) -> InternalEntry:
        """Remove and return the entry pointing at ``child_id``.

        Raises
        ------
        IndexStructureError
            If absent or if the node is a leaf.
        """
        return self._remove(self._child_row(child_id), clock)  # type: ignore[return-value]

    def remove_record(self, key: "tuple", clock: int) -> LeafEntry:
        """Remove and return the leaf entry with the given segment key.

        Raises
        ------
        IndexStructureError
            If absent or if the node is internal.
        """
        if not self.is_leaf:
            raise IndexStructureError("internal nodes have no records")
        return self._remove(self._row("record", key), clock)  # type: ignore[return-value]

    def update_child_box(self, child_id: int, box: Box, clock: int) -> None:
        """Tighten/grow the box of the entry pointing at ``child_id``."""
        row = self._child_row(child_id)
        if self._page_backed:
            self.entries.set_box(row, box, clock)
        else:
            self.entries[row] = InternalEntry(box, child_id, timestamp=clock)
        self._touched(clock)

    def child_ids(self) -> "tuple[int, ...]":
        """Page ids of all children (internal nodes only)."""
        if self.is_leaf:
            raise IndexStructureError("leaves have no child entries")
        return tuple(self._keys())

    def _keys(self) -> list:
        """Per entry, what it is looked up by: the child page id, or on a
        leaf the record's segment key."""
        if self._page_backed:
            return self.entries.keys()
        if self.is_leaf:
            return [e.record.key for e in self.entries]  # type: ignore[union-attr]
        return [e.child_id for e in self.entries]  # type: ignore[union-attr]

    def _row(self, what: str, key) -> int:
        try:
            return self._keys().index(key)
        except ValueError:
            raise IndexStructureError(
                f"node {self.page_id} has no {what} {key}"
            ) from None

    def _child_row(self, child_id: int) -> int:
        if self.is_leaf:
            raise IndexStructureError("leaves have no child entries")
        return self._row("child", child_id)

    def _remove(self, row: int, clock: int) -> Entry:
        entry = self.entries[row]
        del self.entries[row]
        self._touched(clock)
        return entry

    # -- validation -----------------------------------------------------------------

    def _check_entry_kind(self, entry: Entry) -> None:
        if self.is_leaf and not isinstance(entry, LeafEntry):
            raise IndexStructureError(
                f"leaf node {self.page_id} given {type(entry).__name__}"
            )
        if not self.is_leaf and not isinstance(entry, InternalEntry):
            raise IndexStructureError(
                f"internal node {self.page_id} given {type(entry).__name__}"
            )

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"internal(level={self.level})"
        return f"Node(page={self.page_id}, {kind}, entries={len(self.entries)})"
