"""Shared experiment machinery.

:class:`ExperimentContext` builds the object population and both index
flavours once; the ``run_*_point`` functions measure one grid point
(an overlap level at a window size) for the relevant algorithms, the
way Sect. 5 does: per dynamic query, record the first snapshot's cost
and the average over the subsequent snapshots, then average across
trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.naive import NaiveEvaluator
from repro.core.npdq import NPDQEngine
from repro.core.pdq import PDQEngine
from repro.core.results import SnapshotResult
from repro.core.trajectory import QueryTrajectory
from repro.index.dualtime import DualTimeIndex
from repro.index.nsi import NativeSpaceIndex
from repro.motion.segment import MotionSegment, SegmentTable
from repro.storage.metrics import AverageCost, CostSnapshot
from repro.workload.config import QueryWorkload, WorkloadConfig
from repro.workload.objects import generate_motion_segments
from repro.workload.trajectories import generate_trajectories

__all__ = [
    "AlgoCost",
    "GridPoint",
    "ExperimentContext",
    "run_pdq_point",
    "run_npdq_point",
    "split_first_subsequent",
]


@dataclass(frozen=True)
class AlgoCost:
    """First-snapshot and subsequent-snapshot averages for one algorithm."""

    first: AverageCost
    subsequent: AverageCost


@dataclass(frozen=True)
class GridPoint:
    """Measured costs of every algorithm at one experiment grid point."""

    overlap_percent: float
    window_side: float
    costs: Dict[str, AlgoCost]


class ExperimentContext:
    """Everything the figure drivers share: data, indexes, parameters.

    Parameters
    ----------
    data:
        Object-population parameters (use :meth:`WorkloadConfig.paper`
        for full fidelity, :meth:`WorkloadConfig.small` for quick runs).
    queries:
        Query-grid parameters.
    build_native, build_dual:
        Skip building an index flavour the caller does not need.
    """

    def __init__(
        self,
        data: WorkloadConfig,
        queries: QueryWorkload,
        build_native: bool = True,
        build_dual: bool = True,
    ):
        self.data = data
        self.queries = queries
        self.segments: List[MotionSegment] = list(generate_motion_segments(data))
        self.native: Optional[NativeSpaceIndex] = None
        self.dual: Optional[DualTimeIndex] = None
        # one conversion of the population for both flavours
        table = SegmentTable.of(self.segments)
        if build_native:
            self.native = NativeSpaceIndex(dims=data.dims)
            self.native.bulk_load(table)
        if build_dual:
            self.dual = DualTimeIndex(dims=data.dims)
            self.dual.bulk_load(table)

    def trajectories(
        self, overlap_percent: float, window_side: float
    ) -> List[QueryTrajectory]:
        """The trajectory sample for one grid point (deterministic)."""
        return generate_trajectories(
            self.data,
            self.queries,
            overlap_percent,
            window_side,
            self.queries.trajectories,
        )


def split_first_subsequent(
    frames: Sequence[SnapshotResult],
) -> Tuple[CostSnapshot, CostSnapshot, int]:
    """``(first cost, summed subsequent cost, subsequent count)``."""
    first = frames[0].cost
    rest = CostSnapshot()
    for f in frames[1:]:
        rest = rest + f.cost
    return first, rest, len(frames) - 1


def _average(
    firsts: List[CostSnapshot], rests: List[CostSnapshot], rest_counts: List[int]
) -> AlgoCost:
    n = len(firsts)
    first_total = CostSnapshot()
    for f in firsts:
        first_total = first_total + f
    rest_total = CostSnapshot()
    for r in rests:
        rest_total = rest_total + r
    total_rest = sum(rest_counts)
    return AlgoCost(
        first=first_total.scaled(1.0 / n),
        subsequent=rest_total.scaled(1.0 / total_rest if total_rest else 0.0),
    )


def run_pdq_point(
    ctx: ExperimentContext, overlap_percent: float, window_side: float
) -> GridPoint:
    """Measure naive-vs-PDQ at one grid point (Figs. 6-9).

    Both run over the native-space index; the naive evaluator re-runs
    each frame query, PDQ traverses incrementally.
    """
    assert ctx.native is not None, "context built without the native index"
    period = ctx.queries.snapshot_period
    accum: Dict[str, Tuple[list, list, list]] = {
        "naive": ([], [], []),
        "pdq": ([], [], []),
    }
    for trajectory in ctx.trajectories(overlap_percent, window_side):
        naive = NaiveEvaluator(ctx.native)
        frames = naive.run(trajectory, period)
        f, r, n = split_first_subsequent(frames)
        accum["naive"][0].append(f)
        accum["naive"][1].append(r)
        accum["naive"][2].append(n)

        with PDQEngine(ctx.native, trajectory, track_updates=False) as pdq:
            frames = pdq.run(period)
        f, r, n = split_first_subsequent(frames)
        accum["pdq"][0].append(f)
        accum["pdq"][1].append(r)
        accum["pdq"][2].append(n)
    return GridPoint(
        overlap_percent,
        window_side,
        {name: _average(*lists) for name, lists in accum.items()},
    )


def run_npdq_point(
    ctx: ExperimentContext, overlap_percent: float, window_side: float
) -> GridPoint:
    """Measure naive-vs-NPDQ at one grid point (Figs. 10-13).

    Both run over the dual-time index — the flavour the NPDQ proposal
    introduces — so the comparison isolates the discardability machinery
    itself (at 0 % overlap the two coincide: "neither improvement nor
    harm").
    """
    assert ctx.dual is not None, "context built without the dual index"
    period = ctx.queries.snapshot_period
    accum: Dict[str, Tuple[list, list, list]] = {
        "naive": ([], [], []),
        "npdq": ([], [], []),
    }
    for trajectory in ctx.trajectories(overlap_percent, window_side):
        naive = NaiveEvaluator(ctx.dual)
        frames = naive.run(trajectory, period)
        f, r, n = split_first_subsequent(frames)
        accum["naive"][0].append(f)
        accum["naive"][1].append(r)
        accum["naive"][2].append(n)

        npdq = NPDQEngine(ctx.dual)
        frames = npdq.run(trajectory, period)
        f, r, n = split_first_subsequent(frames)
        accum["npdq"][0].append(f)
        accum["npdq"][1].append(r)
        accum["npdq"][2].append(n)
    return GridPoint(
        overlap_percent,
        window_side,
        {name: _average(*lists) for name, lists in accum.items()},
    )
