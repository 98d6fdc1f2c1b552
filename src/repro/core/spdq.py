"""Semi-Predictive Dynamic Queries (Sect. 4, SPDQ).

The observer's trajectory is known only within a deviation bound δ:
``‖x_p(t) − x(t)‖ ≤ δ(t)``.  The paper: "SPDQ can be easily implemented
using the PDQ algorithms, but it will result in each snapshot query
being 'larger' than the corresponding simple PDQ one, allowing for the
uncertainty of the observer's position."

:class:`SPDQEngine` therefore runs a :class:`~repro.core.PDQEngine` over
the δ-inflated trajectory and offers a client-side refinement step that
filters the conservative answers against the observer's *actual* window
once it is known — CPU-only work, no extra I/O.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.pdq import PDQEngine
from repro.core.results import AnswerBlock, AnswerItem, SnapshotResult
from repro.core.trajectory import QueryTrajectory
from repro.errors import QueryError
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.geometry.segment import segment_box_overlap_interval
from repro.index.nsi import NativeSpaceIndex

__all__ = ["SPDQEngine"]


class SPDQEngine:
    """PDQ over an uncertainty-inflated trajectory.

    Parameters
    ----------
    index:
        The native-space index.
    predicted:
        The predicted trajectory.
    delta:
        Deviation bound δ (constant over the query; the paper allows a
        time-varying δ(t), which can be modelled by building the key
        snapshots with per-key inflation before constructing the engine).
    rebuild_depth, track_updates:
        Forwarded to :class:`~repro.core.PDQEngine`.
    """

    def __init__(
        self,
        index: NativeSpaceIndex,
        predicted: QueryTrajectory,
        delta: float,
        rebuild_depth: int = 0,
        track_updates: bool = True,
    ):
        if delta < 0:
            raise QueryError("deviation bound must be non-negative")
        self.delta = delta
        self.predicted = predicted
        self.engine = PDQEngine(
            index,
            predicted.inflated(delta),
            rebuild_depth=rebuild_depth,
            track_updates=track_updates,
        )

    @property
    def cost(self):
        """The underlying PDQ cost accumulator."""
        return self.engine.cost

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Detach the underlying PDQ engine."""
        self.engine.close()

    def __enter__(self) -> "SPDQEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- evaluation ------------------------------------------------------------

    def window(self, t_start: float, t_end: float) -> AnswerBlock:
        """Conservative answers appearing during ``[t_start, t_end]``.

        Superset guarantee: any object visible from *any* observer
        position within δ of the prediction is included.
        """
        return self.engine.window(t_start, t_end)

    def run(self, period: float) -> List[SnapshotResult]:
        """Drive the whole query at the given frame period."""
        return self.engine.run(period)

    @staticmethod
    def refine(
        items: Sequence[AnswerItem], actual_window: Box, at: Interval
    ) -> List[AnswerItem]:
        """Client-side filter: keep answers truly visible from the
        observer's actual window during ``at``.  CPU-only; visibility
        intervals are re-tightened to the actual window."""
        native = Box([at] + list(actual_window))
        refined: List[AnswerItem] = []
        for item in items:
            overlap = segment_box_overlap_interval(item.record.segment, native)
            if not overlap.is_empty:
                refined.append(AnswerItem(item.record, overlap))
        return refined

    def within_bound(self, t: float, actual_center: "tuple[float, ...]") -> bool:
        """Is the observer still within δ of the prediction at ``t``?

        The session driver uses this to decide when SPDQ must be
        abandoned for NPDQ.
        """
        predicted_center = self.predicted.window_at(t).center
        dist = sum(
            (a - b) ** 2 for a, b in zip(actual_center, predicted_center)
        ) ** 0.5
        return dist <= self.delta
