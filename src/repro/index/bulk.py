"""Sort-Tile-Recursive (STR) bulk loading.

The paper's experiments build the index once over ~5·10⁵ motion segments
and then run queries; loading that many records with one-at-a-time
Guttman insertions is needlessly slow in pure Python.  STR packs leaf
entries into nodes filled to the paper's 0.5 fill factor
(:data:`~repro.storage.constants.DEFAULT_FILL_FACTOR`, which gives the
reported tree height of 3) and builds internal levels bottom-up.

Two tiling modes:

* **balanced** (default): classic STR — recursively sort-and-slice along
  every axis with equal slab counts.
* **time-major** (``time_slabs`` given): slice axis 0 into the requested
  number of temporal slabs first and tile only the chosen
  ``tile_axes`` (e.g. the spatial axes) inside each slab.  This emulates
  the leaf shape a chronologically insertion-built tree develops —
  temporally narrow, spatially compact — which is what NPDQ's
  discardability test (Sect. 4.2) depends on.  The
  :class:`~repro.index.DualTimeIndex` uses it by default.

The resulting tree is a perfectly ordinary :class:`~repro.index.RTree`:
subsequent single-record insertions, listener notifications and
timestamped update management all work on it unchanged.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.errors import IndexStructureError
from repro.index.entry import Entry, InternalEntry, LeafEntry
from repro.index.node import Node
from repro.index.rtree import RTree
from repro.storage.constants import DEFAULT_FILL_FACTOR

__all__ = ["str_bulk_load"]


def _center(entry: Entry, axis: int) -> float:
    e = entry.box.extent(axis)
    return 0.5 * (e.low + e.high)


def _tile(
    items: List[Entry], capacity: int, axes: Sequence[int]
) -> List[List[Entry]]:
    """Recursively sort-and-slice ``items`` into groups of ≤ ``capacity``."""
    if len(items) <= capacity:
        return [items]
    axis, rest = axes[0], axes[1:]
    items = sorted(items, key=lambda e: _center(e, axis))
    groups_needed = math.ceil(len(items) / capacity)
    if not rest:
        # Last axis: chop straight into capacity-sized runs.
        return [
            items[i : i + capacity] for i in range(0, len(items), capacity)
        ]
    slabs = math.ceil(groups_needed ** (1.0 / len(axes)))
    slab_size = math.ceil(len(items) / slabs)
    out: List[List[Entry]] = []
    for i in range(0, len(items), slab_size):
        out.extend(_tile(items[i : i + slab_size], capacity, rest))
    return out


def _leaf_groups(
    items: List[Entry],
    capacity: int,
    axes: Sequence[int],
    time_slabs: Optional[int],
    tile_axes: Optional[Sequence[int]],
) -> List[List[Entry]]:
    """Partition leaf entries into node-sized groups."""
    if time_slabs is None:
        return _tile(items, capacity, tuple(axes))
    if time_slabs < 1:
        raise IndexStructureError("time_slabs must be >= 1")
    spatial = tuple(tile_axes) if tile_axes is not None else tuple(axes)[1:]
    if not spatial:
        raise IndexStructureError("time-major tiling needs at least one tile axis")
    items = sorted(items, key=lambda e: e.box.extent(0).low)
    per_slab = math.ceil(len(items) / time_slabs)
    groups: List[List[Entry]] = []
    for i in range(0, len(items), per_slab):
        groups.extend(_tile(items[i : i + per_slab], capacity, spatial))
    return groups


def str_bulk_load(
    tree: RTree,
    entries: Sequence[LeafEntry],
    time_slabs: Optional[int] = None,
    tile_axes: Optional[Sequence[int]] = None,
) -> None:
    """Populate an empty tree with ``entries`` using STR packing.

    Parameters
    ----------
    tree:
        A freshly constructed, empty :class:`RTree`.
    entries:
        Leaf entries; their boxes must match the tree's axes.
    time_slabs:
        Enable time-major tiling with this many slabs along axis 0
        (``None`` = balanced STR over all axes).
    tile_axes:
        Axes tiled inside each temporal slab (default: every axis except
        axis 0); only meaningful with ``time_slabs``.

    Raises
    ------
    IndexStructureError
        If the tree is non-empty or parameters are inconsistent.
    """
    if len(tree):
        raise IndexStructureError("bulk load requires an empty tree")
    items = list(entries)
    if not items:
        return
    for e in items:
        if e.box.dims != tree.axes:
            raise IndexStructureError(
                f"entry box has {e.box.dims} axes, tree has {tree.axes}"
            )

    leaf_cap = max(2, int(tree.max_leaf * DEFAULT_FILL_FACTOR))
    internal_cap = max(2, int(tree.max_internal * DEFAULT_FILL_FACTOR))
    axes = tuple(range(tree.axes))
    parents: Dict[int, int] = {}

    # Leaf level.
    groups = _leaf_groups(items, leaf_cap, axes, time_slabs, tile_axes)
    level = 0
    nodes: List[Node] = []
    for group in groups:
        node = Node(tree.disk.allocate(), level)
        node.replace_entries(group, clock=0)
        tree.disk.write(node.page_id, node)
        nodes.append(node)

    # Internal levels, bottom-up.
    while len(nodes) > 1:
        level += 1
        child_entries: List[Entry] = [
            InternalEntry(n.mbr(), n.page_id) for n in nodes
        ]
        groups = _tile(child_entries, internal_cap, axes)
        parents_level: List[Node] = []
        for group in groups:
            node = Node(tree.disk.allocate(), level)
            node.replace_entries(group, clock=0)
            tree.disk.write(node.page_id, node)
            for child in group:
                parents[child.child_id] = node.page_id  # type: ignore[union-attr]
            parents_level.append(node)
        nodes = parents_level

    tree._adopt(nodes[0], parents, size=len(items))
