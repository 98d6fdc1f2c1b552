"""R-tree nodes.

A node occupies exactly one disk page.  ``level`` counts from 0 at the
leaves; internal nodes hold :class:`~repro.index.entry.InternalEntry`
children and leaves hold :class:`~repro.index.entry.LeafEntry` records.

Each node carries a ``timestamp`` — the index operation clock value of
its last structural modification.  Sect. 4.2's NPDQ update management
reads it: if a node changed after the previous query ran, discardability
against that query must not be applied to the node.
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

    def add(self, entry: Entry, clock: int) -> None:
        """Append an entry and stamp the modification time."""
        self._check_entry_kind(entry)
        self.entries.append(entry)
        self.timestamp = max(self.timestamp, clock)
        self._mbr = None
        self._arrays = None

    def replace_entries(self, entries: Sequence[Entry], clock: int) -> None:
        """Swap in a whole new entry list (used by splits)."""
        for e in entries:
            self._check_entry_kind(e)
        self.entries = list(entries)
        self.timestamp = max(self.timestamp, clock)
        self._mbr = None
        self._arrays = None

    def remove_child(self, child_id: int, clock: int) -> InternalEntry:
        """Remove and return the entry pointing at ``child_id``.

        Raises
        ------
        IndexStructureError
            If absent or if the node is a leaf.
        """
        if self.is_leaf:
            raise IndexStructureError("leaves have no child entries")
        for i, e in enumerate(self.entries):
            if e.child_id == child_id:  # type: ignore[union-attr]
                del self.entries[i]
                self.timestamp = max(self.timestamp, clock)
                self._mbr = None
                self._arrays = None
                return e  # type: ignore[return-value]
        raise IndexStructureError(f"node {self.page_id} has no child {child_id}")

    def remove_record(self, key: "tuple", clock: int) -> LeafEntry:
        """Remove and return the leaf entry with the given segment key.

        Raises
        ------
        IndexStructureError
            If absent or if the node is internal.
        """
        if not self.is_leaf:
            raise IndexStructureError("internal nodes have no records")
        for i, e in enumerate(self.entries):
            if e.record.key == key:  # type: ignore[union-attr]
                del self.entries[i]
                self.timestamp = max(self.timestamp, clock)
                self._mbr = None
                self._arrays = None
                return e  # type: ignore[return-value]
        raise IndexStructureError(f"node {self.page_id} has no record {key}")

    def update_child_box(self, child_id: int, box: Box, clock: int) -> None:
        """Tighten/grow the box of the entry pointing at ``child_id``."""
        if self.is_leaf:
            raise IndexStructureError("leaves have no child entries")
        for i, e in enumerate(self.entries):
            if e.child_id == child_id:  # type: ignore[union-attr]
                self.entries[i] = InternalEntry(box, child_id, timestamp=clock)
                self.timestamp = max(self.timestamp, clock)
                self._mbr = None
                self._arrays = None
                return
        raise IndexStructureError(f"node {self.page_id} has no child {child_id}")

    def child_ids(self) -> "tuple[int, ...]":
        """Page ids of all children (internal nodes only)."""
        if self.is_leaf:
            raise IndexStructureError("leaves have no child entries")
        return tuple(e.child_id for e in self.entries)  # type: ignore[union-attr]

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
