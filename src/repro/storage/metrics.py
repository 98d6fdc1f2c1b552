"""Cost accounting used by every query algorithm and experiment.

The paper's two performance measures (Sect. 5):

* **I/O cost** — number of disk accesses per query, reported split into
  leaf-level and higher-level accesses (the stacked bars of Figs. 6/10);
* **CPU cost** — number of distance computations, i.e. per-child overlap
  evaluations performed while examining a loaded node.

:class:`QueryCost` is a mutable accumulator owned by a query engine;
:class:`CostSnapshot` is an immutable copy used to compute per-query
deltas and to aggregate across repetitions.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["QueryCost", "CostSnapshot", "AverageCost"]


@dataclass(frozen=True)
class CostSnapshot:
    """Immutable view of accumulated costs."""

    internal_reads: int = 0
    leaf_reads: int = 0
    distance_computations: int = 0
    segment_tests: int = 0
    results: int = 0

    @property
    def total_reads(self) -> int:
        """All disk accesses (internal + leaf)."""
        return self.internal_reads + self.leaf_reads

    def __sub__(self, other: "CostSnapshot") -> "CostSnapshot":
        return CostSnapshot(
            self.internal_reads - other.internal_reads,
            self.leaf_reads - other.leaf_reads,
            self.distance_computations - other.distance_computations,
            self.segment_tests - other.segment_tests,
            self.results - other.results,
        )

    def __add__(self, other: "CostSnapshot") -> "CostSnapshot":
        return CostSnapshot(
            self.internal_reads + other.internal_reads,
            self.leaf_reads + other.leaf_reads,
            self.distance_computations + other.distance_computations,
            self.segment_tests + other.segment_tests,
            self.results + other.results,
        )

    def scaled(self, factor: float) -> "AverageCost":
        """This snapshot divided by a repetition count."""
        return AverageCost(
            self.internal_reads * factor,
            self.leaf_reads * factor,
            self.distance_computations * factor,
            self.segment_tests * factor,
            self.results * factor,
        )


@dataclass(frozen=True)
class AverageCost:
    """Per-query averages (floats) derived from a :class:`CostSnapshot`."""

    internal_reads: float = 0.0
    leaf_reads: float = 0.0
    distance_computations: float = 0.0
    segment_tests: float = 0.0
    results: float = 0.0

    @property
    def total_reads(self) -> float:
        """All disk accesses (internal + leaf)."""
        return self.internal_reads + self.leaf_reads


@dataclass
class QueryCost:
    """Mutable accumulator of the paper's cost measures.

    Query engines call the ``count_*`` methods as they work; experiments
    take :meth:`snapshot` deltas around each query.
    """

    internal_reads: int = 0
    leaf_reads: int = 0
    distance_computations: int = 0
    segment_tests: int = 0
    results: int = 0

    def count_node_read(self, is_leaf: bool) -> None:
        """One disk access (a node was loaded)."""
        if is_leaf:
            self.leaf_reads += 1
        else:
            self.internal_reads += 1

    def count_distance_computations(self, n: int = 1) -> None:
        """``n`` children were examined against the query."""
        self.distance_computations += n

    def count_segment_tests(self, n: int = 1) -> None:
        """``n`` exact leaf-level segment tests were performed."""
        self.segment_tests += n

    def count_results(self, n: int = 1) -> None:
        """``n`` answer objects were produced."""
        self.results += n

    @property
    def total_reads(self) -> int:
        """All disk accesses (internal + leaf)."""
        return self.internal_reads + self.leaf_reads

    def absorb(self, other: "QueryCost | CostSnapshot") -> None:
        """Fold another accumulator's (or a snapshot's) counters into
        this one."""
        self.internal_reads += other.internal_reads
        self.leaf_reads += other.leaf_reads
        self.distance_computations += other.distance_computations
        self.segment_tests += other.segment_tests
        self.results += other.results

    def snapshot(self) -> CostSnapshot:
        """Immutable copy of the current counters."""
        return CostSnapshot(
            self.internal_reads,
            self.leaf_reads,
            self.distance_computations,
            self.segment_tests,
            self.results,
        )

    def reset(self) -> None:
        """Zero every counter."""
        self.internal_reads = 0
        self.leaf_reads = 0
        self.distance_computations = 0
        self.segment_tests = 0
        self.results = 0
