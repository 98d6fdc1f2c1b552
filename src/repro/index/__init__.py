"""A from-scratch, disk-page-based R-tree and its spatio-temporal mappings.

The paper indexes motion segments with Native Space Indexing (NSI,
Sect. 3.2): each motion update becomes a bounding box over the axes
``<t, x_1, .., x_d>`` stored in an R-tree whose leaves keep exact segment
end-point representations.  NPDQ additionally needs the *dual-time*
mapping of Sect. 4.2 (motion start- and end-times as independent axes) so
that consecutive snapshot queries can cover each other.

This package provides:

* :class:`RTree` — Guttman R-tree over a :class:`~repro.storage.DiskManager`
  with quadratic/linear/R* splits, *forced same-path* splitting (Sect. 4.1
  update management), per-node modification timestamps (Sect. 4.2 update
  management), insertion listeners, deletion, and one search traversal
  that takes a box or a pruning test;
* :func:`str_bulk_load` — Sort-Tile-Recursive bulk loading for building
  the paper-scale index quickly;
* :class:`NativeSpaceIndex`, :class:`DualTimeIndex` and
  :class:`ParametricSpaceIndex` — the three mappings of motion segments
  (NSI, dual-time, and the rejected PSI), one facade class body
  (:mod:`repro.index.facade`) that differs per flavour only in axis
  count, leaf box and node-pruning test, each with exact leaf-level
  segment tests;
* :func:`fsck` / :func:`repair` — the one structural checker, and
  :func:`collect_stats` for the index geometry;
* binary page codecs proving nodes fit the claimed 4 KB layout.
"""

from repro.index.entry import InternalEntry, LeafEntry
from repro.index.node import Node
from repro.index.split import SPLITTERS, linear_split, quadratic_split
from repro.index.rtree import InsertionListener, InsertionNotice, RTree
from repro.index.bulk import str_bulk_load
from repro.index.nsi import NativeSpaceIndex
from repro.index.dualtime import DualTimeIndex
from repro.index.psi import ParametricSpaceIndex
from repro.index.stats import TreeStats, collect_stats
from repro.index.check import FsckReport, RepairReport, Violation, fsck, repair
from repro.index.codec import ChecksummedCodec

__all__ = [
    "FsckReport",
    "RepairReport",
    "Violation",
    "fsck",
    "repair",
    "ChecksummedCodec",
    "InternalEntry",
    "LeafEntry",
    "Node",
    "quadratic_split",
    "linear_split",
    "SPLITTERS",
    "RTree",
    "InsertionListener",
    "InsertionNotice",
    "str_bulk_load",
    "NativeSpaceIndex",
    "DualTimeIndex",
    "ParametricSpaceIndex",
    "TreeStats",
    "collect_stats",
]
