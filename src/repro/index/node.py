"""R-tree nodes.

A node occupies exactly one disk page.  ``level`` counts from 0 at the
leaves; internal nodes hold :class:`~repro.index.entry.InternalEntry`
children and leaves hold :class:`~repro.index.entry.LeafEntry` records.

Each node carries a ``timestamp`` — the index operation clock value of
its last structural modification.  Sect. 4.2's NPDQ update management
reads it: if a node changed after the previous query ran, discardability
against that query must not be applied to the node.

A node is its page's columns
(:class:`~repro.index.pagearrays.PageRows`), however it was made:
``Node()`` and a split's ``replace_entries`` turn the entry objects they
are given into rows, bulk load and the page codecs write the columns
directly.  ``entries`` is that column object — a sequence view that
builds an entry object only for the row asked for, and the batch
kernels' view of the page — and the mutators below write rows.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import IndexStructureError
from repro.geometry.box import Box
from repro.index.entry import Entry, InternalEntry, LeafEntry
from repro.index.pagearrays import PageRows

__all__ = ["Node"]


class Node:
    """One R-tree node, resident on one disk page."""

    __slots__ = ("page_id", "level", "entries", "timestamp", "_mbr")

    def __init__(
        self,
        page_id: int,
        level: int,
        entries: Sequence[Entry] = (),
        timestamp: int = 0,
    ):
        if level < 0:
            raise IndexStructureError(f"negative node level {level}")
        self.page_id = page_id
        self.level = level
        entries = list(entries)
        for e in entries:
            self._check_entry_kind(e)
        self.entries: PageRows = PageRows.of(self.is_leaf, entries)
        self.timestamp = timestamp
        self._mbr: Optional[Box] = None

    @classmethod
    def from_rows(cls, page_id: int, level: int, timestamp: int, rows: PageRows) -> "Node":
        """The node whose columns are ``rows``."""
        node = cls.__new__(cls)
        node.page_id = page_id
        node.level = level
        node.entries = rows
        node.timestamp = timestamp
        node._mbr = None
        return node

    # -- classification ------------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        """True for level-0 nodes."""
        return self.level == 0

    def __len__(self) -> int:
        return len(self.entries)

    def clone(self) -> "Node":
        """Independent copy of the columns.  Used by the intent log to
        capture page pre-images on a codec-less disk, which hands out
        this very object by reference."""
        rows = self.entries.take(list(range(len(self.entries))))
        return Node.from_rows(self.page_id, self.level, self.timestamp, rows)

    # -- geometry ---------------------------------------------------------------

    def mbr(self) -> Box:
        """Minimum bounding box of all entries (cached until mutation).

        Raises
        ------
        IndexStructureError
            If the node has no entries.
        """
        if self._mbr is None:
            if not len(self.entries):
                raise IndexStructureError(f"node {self.page_id} has no entries")
            self._mbr = self.entries.mbr()
        return self._mbr

    # -- mutation (invalidates the cached MBR) -----------------------------------

    def _touched(self, clock: int) -> None:
        self.timestamp = max(self.timestamp, clock)
        self._mbr = None

    def add(self, entry: Entry, clock: int) -> None:
        """Append an entry and stamp the modification time."""
        self._check_entry_kind(entry)
        self.entries.append(entry)
        self._touched(clock)

    def replace_entries(self, entries: Sequence[Entry], clock: int) -> None:
        """Swap in the rows of a whole new entry list (used by splits)."""
        for e in entries:
            self._check_entry_kind(e)
        self.entries = PageRows.of(self.is_leaf, entries)
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
        self.entries.set_box(self._child_row(child_id), box, clock)
        self._touched(clock)

    def child_ids(self) -> "tuple[int, ...]":
        """Page ids of all children (internal nodes only)."""
        if self.is_leaf:
            raise IndexStructureError("leaves have no child entries")
        return tuple(self.entries.keys())

    def _row(self, what: str, key) -> int:
        try:
            return self.entries.keys().index(key)
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
