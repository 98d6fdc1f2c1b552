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

STR runs on the row numbers of the leaf records' columns
(:class:`~repro.index.pagearrays.PageRows`): every sort is a stable sort
of row numbers on the centre floats an entry-object sort compared, every
group becomes one node's rows by a column take, and a parent's row for a
child is that child's ``BoxBatch.cover`` — no entry object is built.
The resulting tree is a perfectly ordinary :class:`~repro.index.RTree`:
subsequent single-record insertions, listener notifications and
timestamped update management all work on it unchanged.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.errors import IndexStructureError
from repro.geometry import kernels
from repro.index.node import Node
from repro.index.pagearrays import PageRows
from repro.index.rtree import RTree
from repro.storage.constants import DEFAULT_FILL_FACTOR

__all__ = ["str_bulk_load"]


def _tile(
    centres: Sequence, rows: Sequence[int], capacity: int, axes: Sequence[int]
) -> List[Sequence[int]]:
    """Recursively sort-and-slice ``rows`` into groups of ≤ ``capacity``;
    ``centres[axis]`` is the box-centre column sorted on along ``axis``."""
    if len(rows) <= capacity:
        return [rows]
    axis, rest = axes[0], axes[1:]
    rows = kernels.row_order(rows, centres[axis])
    groups_needed = math.ceil(len(rows) / capacity)
    if not rest:
        # Last axis: chop straight into capacity-sized runs.
        return [rows[i : i + capacity] for i in range(0, len(rows), capacity)]
    slabs = math.ceil(groups_needed ** (1.0 / len(axes)))
    slab_size = math.ceil(len(rows) / slabs)
    out: List[Sequence[int]] = []
    for i in range(0, len(rows), slab_size):
        out.extend(_tile(centres, rows[i : i + slab_size], capacity, rest))
    return out


def _leaf_groups(
    boxes: kernels.BoxBatch,
    capacity: int,
    axes: Sequence[int],
    time_slabs: Optional[int],
    tile_axes: Optional[Sequence[int]],
) -> List[Sequence[int]]:
    """Partition the leaf rows into node-sized groups."""
    rows = range(boxes.n)
    centres = [boxes.centres(axis) for axis in axes]
    if time_slabs is None:
        return _tile(centres, rows, capacity, tuple(axes))
    if time_slabs < 1:
        raise IndexStructureError("time_slabs must be >= 1")
    spatial = tuple(tile_axes) if tile_axes is not None else tuple(axes)[1:]
    if not spatial:
        raise IndexStructureError("time-major tiling needs at least one tile axis")
    rows = kernels.row_order(rows, boxes.extent_bounds(0)[0])
    per_slab = math.ceil(len(rows) / time_slabs)
    groups: List[Sequence[int]] = []
    for i in range(0, len(rows), per_slab):
        groups.extend(_tile(centres, rows[i : i + per_slab], capacity, spatial))
    return groups


def str_bulk_load(
    tree: RTree,
    rows: PageRows,
    time_slabs: Optional[int] = None,
    tile_axes: Optional[Sequence[int]] = None,
) -> None:
    """Populate an empty tree with the leaf ``rows`` using STR packing.

    Parameters
    ----------
    tree:
        A freshly constructed, empty :class:`RTree`.
    rows:
        The leaf records as :class:`~repro.index.pagearrays.PageRows`
        (``PageRows.of(True, entries)`` for entry objects); their boxes
        must match the tree's axes.
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
    if not len(rows):
        return
    boxes = rows.box_batch()
    if boxes.width != tree.axes:
        raise IndexStructureError(
            f"entry box has {boxes.width} axes, tree has {tree.axes}"
        )

    leaf_cap = max(2, int(tree.max_leaf * DEFAULT_FILL_FACTOR))
    internal_cap = max(2, int(tree.max_internal * DEFAULT_FILL_FACTOR))
    axes = tuple(range(tree.axes))
    parents: Dict[int, int] = {}

    # Leaf level.
    groups = _leaf_groups(boxes, leaf_cap, axes, time_slabs, tile_axes)
    level = 0
    nodes: List[Node] = []
    for group in groups:
        node = Node.from_rows(tree.disk.allocate(), level, 0, rows.take(group))
        tree.disk.write(node.page_id, node)
        nodes.append(node)

    # Internal levels, bottom-up: one row per child, its cover.
    while len(nodes) > 1:
        level += 1
        covers = [n.entries.box_batch().cover() for n in nodes]
        rows = PageRows(
            kernels.BoxBatch([lo for lo, _ in covers], [hi for _, hi in covers]),
            kernels.stamp_column([0] * len(nodes)),
            kernels.id_column([(n.page_id,) for n in nodes], 1),
        )
        centres = [rows.box_batch().centres(axis) for axis in axes]
        parents_level: List[Node] = []
        for group in _tile(centres, range(len(nodes)), internal_cap, axes):
            node = Node.from_rows(tree.disk.allocate(), level, 0, rows.take(group))
            tree.disk.write(node.page_id, node)
            for child in node.child_ids():
                parents[child] = node.page_id
            parents_level.append(node)
        nodes = parents_level

    tree._adopt(nodes[0], parents, size=boxes.n)
