"""Tree statistics: the index geometry the experiment reports print next
to the paper's ("fanout is 145 and 127 ...; tree height is 3").

Structural invariants are checked by :func:`repro.index.check.fsck`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.index.rtree import RTree

__all__ = ["TreeStats", "collect_stats"]


@dataclass
class TreeStats:
    """Aggregate shape of an R-tree."""

    height: int = 0
    internal_nodes: int = 0
    leaf_nodes: int = 0
    records: int = 0
    nodes_per_level: Dict[int, int] = field(default_factory=dict)
    avg_leaf_fill: float = 0.0
    avg_internal_fill: float = 0.0

    @property
    def total_nodes(self) -> int:
        """All nodes."""
        return self.internal_nodes + self.leaf_nodes


def collect_stats(tree: RTree) -> TreeStats:
    """Walk the tree and summarise its shape (uncounted reads)."""
    stats = TreeStats(height=tree.height)
    leaf_entries = 0
    internal_entries = 0
    stack = [tree.root_id]
    while stack:
        node = tree.disk.read(stack.pop())
        stats.nodes_per_level[node.level] = (
            stats.nodes_per_level.get(node.level, 0) + 1
        )
        if node.is_leaf:
            stats.leaf_nodes += 1
            leaf_entries += len(node.entries)
        else:
            stats.internal_nodes += 1
            internal_entries += len(node.entries)
            stack.extend(node.child_ids())
    stats.records = leaf_entries
    if stats.leaf_nodes:
        stats.avg_leaf_fill = leaf_entries / (stats.leaf_nodes * tree.max_leaf)
    if stats.internal_nodes:
        stats.avg_internal_fill = internal_entries / (
            stats.internal_nodes * tree.max_internal
        )
    return stats
