"""Automatic Snapshot / PDQ / NPDQ mode hand-off (future work (iv)).

Sect. 4 describes a system operating in three modes — snapshot queries
after a teleport, PDQ while the observer's motion parameters hold, NPDQ
while they are changing — and notes that "a good direction of future
research is to find automated ways to handle the PDQ ↔ NPDQ hand-off".
:class:`DynamicQuerySession` implements that automation:

* a frame whose window barely overlaps the previous one (below
  ``teleport_overlap``) is treated as a teleport: incremental state is
  reset and the frame is answered as a fresh snapshot;
* once the observed velocity has been stable for ``stability_frames``
  consecutive frames, the session predicts a linear trajectory over
  ``prediction_horizon`` and switches to a PDQ engine;
* whenever the observer deviates from the prediction by more than
  ``deviation_tolerance`` the PDQ engine is dropped and NPDQ takes over
  until the motion settles again.

Every answer flows into a shared :class:`~repro.core.ClientCache`, so
mode switches are invisible to the renderer.

A frame is evaluated when it is observed and nothing is read for it
beforehand: the only page demand the session names ahead of a frame
is the live predictive engine's frontier
(:meth:`~DynamicQuerySession.frontier_pages`), which a server's batch
phase reads; snapshot and non-predictive frames read the dual-time
tree during :meth:`~DynamicQuerySession.observe`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.cache import ClientCache
from repro.core.npdq import NPDQEngine
from repro.core.pdq import PDQEngine
from repro.core.spdq import SPDQEngine
from repro.core.results import AnswerItem
from repro.core.snapshot import SnapshotQuery
from repro.core.trajectory import QueryTrajectory
from repro.errors import SessionError
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.index.dualtime import DualTimeIndex
from repro.index.nsi import NativeSpaceIndex
from repro.storage.metrics import QueryCost

__all__ = ["SessionMode", "FrameReport", "DynamicQuerySession"]


class SessionMode(enum.Enum):
    """Which evaluation strategy served a frame (Sect. 4's three modes)."""

    SNAPSHOT = "snapshot"
    PREDICTIVE = "predictive"
    NON_PREDICTIVE = "non-predictive"


@dataclass
class FrameReport:
    """What one observed frame produced."""

    time: float
    mode: SessionMode
    new_items: List[AnswerItem] = field(default_factory=list)
    evicted_ids: List[int] = field(default_factory=list)
    visible_count: int = 0


class DynamicQuerySession:
    """Drives a live observer over both index flavours with automatic
    mode selection.

    Parameters
    ----------
    native_index, dual_index:
        The two index flavours over the *same* segment population (PDQ
        needs native space, NPDQ needs dual-time).
    half_extents:
        Half-size of the observer's view window per dimension.
    stability_frames:
        Consecutive frames of (approximately) constant velocity required
        before predicting.
    velocity_tolerance:
        Max per-component velocity change still considered "stable".
    deviation_tolerance:
        Max distance between the observed and predicted window centres
        before a PDQ prediction is abandoned.
    teleport_overlap:
        Window-overlap fraction below which a frame counts as a teleport.
    prediction_horizon:
        How far ahead (time units) a PDQ trajectory is projected.
    spdq_delta:
        When positive, predictive mode runs SPDQ over the δ-inflated
        window and tolerates observer deviation up to δ before falling
        back to NPDQ (Sect. 4's semi-predictive regime); 0 uses plain
        PDQ with the strict ``deviation_tolerance``.
    """

    def __init__(
        self,
        native_index: NativeSpaceIndex,
        dual_index: DualTimeIndex,
        half_extents: Sequence[float],
        stability_frames: int = 3,
        velocity_tolerance: float = 1e-9,
        deviation_tolerance: float = 1e-6,
        teleport_overlap: float = 0.05,
        prediction_horizon: float = 5.0,
        spdq_delta: float = 0.0,
    ):
        if native_index.dims != dual_index.dims:
            raise SessionError("index dimensionalities differ")
        if len(half_extents) != native_index.dims:
            raise SessionError(
                f"half_extents has {len(half_extents)} dims, "
                f"indexes have {native_index.dims}"
            )
        if stability_frames < 1:
            raise SessionError("stability_frames must be >= 1")
        if prediction_horizon <= 0:
            raise SessionError("prediction_horizon must be positive")
        if spdq_delta < 0:
            raise SessionError("spdq_delta must be non-negative")
        self.native_index = native_index
        self.dual_index = dual_index
        self.half_extents = tuple(half_extents)
        self.stability_frames = stability_frames
        self.velocity_tolerance = velocity_tolerance
        self.deviation_tolerance = deviation_tolerance
        self.teleport_overlap = teleport_overlap
        self.prediction_horizon = prediction_horizon
        self.spdq_delta = spdq_delta

        self.cache = ClientCache()
        self.cost = QueryCost()
        self.mode_switches: List[Tuple[float, SessionMode]] = []

        self._npdq = NPDQEngine(dual_index)
        self._pdq = None  # a PDQEngine or SPDQEngine while predicting
        self._predicted: Optional[QueryTrajectory] = None
        self._pdq_until = -math.inf
        self._mode = SessionMode.SNAPSHOT
        self._last_time: Optional[float] = None
        self._last_center: Optional[Tuple[float, ...]] = None
        self._last_velocity: Optional[Tuple[float, ...]] = None
        self._stable_count = 0

    # -- helpers -----------------------------------------------------------

    @property
    def mode(self) -> SessionMode:
        """Mode used for the most recent frame."""
        return self._mode

    @property
    def predictive_engine(self):
        """The live PDQ/SPDQ engine, or ``None`` outside predictive mode."""
        return self._pdq

    def frontier_pages(self, t_end: float) -> List[int]:
        """Node pages the live predictive engine will expand by ``t_end``.

        Empty outside predictive mode (snapshot/NPDQ frames have no
        standing priority queue to batch).  Lets the serving layer's
        shared-scan scheduler treat auto-mode sessions uniformly with
        raw PDQ engines.
        """
        if self._pdq is None:
            return []
        return self._pdq.frontier_pages(t_end)

    def _window(self, center: Sequence[float]) -> Box:
        return Box.from_bounds(
            [c - h for c, h in zip(center, self.half_extents)],
            [c + h for c, h in zip(center, self.half_extents)],
        )

    def _drop_pdq(self) -> None:
        if self._pdq is not None:
            self.cost.absorb(self._pdq.cost)
            self._pdq.close()
            self._pdq = None
            self._predicted = None
            self._pdq_until = -math.inf

    def _set_mode(self, t: float, mode: SessionMode) -> None:
        if mode is not self._mode or not self.mode_switches:
            self.mode_switches.append((t, mode))
        self._mode = mode

    def _start_prediction(self, t: float, center: Tuple[float, ...]) -> None:
        assert self._last_velocity is not None
        trajectory = QueryTrajectory.linear(
            start_time=t,
            end_time=t + self.prediction_horizon,
            start_center=center,
            velocity=self._last_velocity,
            half_extents=self.half_extents,
        )
        if self.spdq_delta > 0.0:
            # Semi-predictive: tolerate up to δ of observer deviation by
            # querying the δ-inflated window (Sect. 4, SPDQ).
            self._pdq = SPDQEngine(
                self.native_index, trajectory, delta=self.spdq_delta
            )
        else:
            self._pdq = PDQEngine(self.native_index, trajectory)
        self._predicted = trajectory
        self._pdq_until = t + self.prediction_horizon
        # NPDQ memory becomes unsafe to reuse after a gap in its snapshot
        # series (the client may evict objects meanwhile): start afresh
        # when we eventually fall back.
        self._npdq.reset()

    def _prediction_holds(self, t: float, center: Sequence[float]) -> bool:
        assert self._predicted is not None
        if t > self._pdq_until:
            return False
        predicted = self._predicted.window_at(t).center
        deviation = math.dist(tuple(center), predicted)
        return deviation <= max(self.deviation_tolerance, self.spdq_delta)

    # -- the per-frame entry point ---------------------------------------------

    def observe(self, t: float, center: Sequence[float]) -> FrameReport:
        """Process one rendered frame: observer at ``center`` at time ``t``.

        Returns the newly delivered objects, evictions and the mode used.
        Frames must advance strictly in time.
        """
        center = tuple(center)
        if len(center) != self.native_index.dims:
            raise SessionError(
                f"center has {len(center)} dims, indexes have "
                f"{self.native_index.dims}"
            )
        if self._last_time is not None and t <= self._last_time:
            raise SessionError("frames must advance strictly in time")

        # A frame continues the series unless it is the first or a
        # teleport: a window overlapping the previous one by less than
        # ``teleport_overlap``.
        window = self._window(center)
        prev_window: Optional[Box] = None
        if self._last_time is not None:
            prev_window = self._window(self._last_center)  # type: ignore[arg-type]
            inter = prev_window.intersect(window)
            overlap = inter.volume() / window.volume() if window.volume() else 0.0
            if overlap < self.teleport_overlap:
                prev_window = None
        fresh = prev_window is None
        report = FrameReport(time=t, mode=self._mode)

        # -- update the motion estimate --------------------------------------
        velocity: Optional[Tuple[float, ...]] = None
        if not fresh:
            dt = t - self._last_time  # type: ignore[operator]
            velocity = tuple(
                (c - p) / dt for c, p in zip(center, self._last_center)  # type: ignore[arg-type]
            )
            if self._last_velocity is not None and all(
                abs(a - b) <= self.velocity_tolerance
                for a, b in zip(velocity, self._last_velocity)
            ):
                self._stable_count += 1
            else:
                self._stable_count = 0
        else:
            self._stable_count = 0

        # -- pick the mode ------------------------------------------------------
        if fresh:
            self._drop_pdq()
            self._npdq.reset()
            self._set_mode(t, SessionMode.SNAPSHOT)
        elif self._pdq is not None and self._prediction_holds(t, center):
            self._set_mode(t, SessionMode.PREDICTIVE)
        else:
            self._drop_pdq()
            if self._stable_count >= self.stability_frames:
                assert velocity is not None
                self._last_velocity = velocity
                self._start_prediction(t, center)
                self._set_mode(t, SessionMode.PREDICTIVE)
            else:
                self._set_mode(t, SessionMode.NON_PREDICTIVE)

        # -- evaluate the frame ---------------------------------------------------
        if self._mode is SessionMode.PREDICTIVE:
            assert self._pdq is not None
            # a fresh frame is never predictive, so there is a last frame
            items = self._pdq.window(self._last_time, t)  # type: ignore[arg-type]
        else:
            # A fresh frame is an instantaneous snapshot of the window;
            # any other spans the time since the previous frame over the
            # cover of both windows (the region the sweep crossed).
            if prev_window is None:
                query = SnapshotQuery(Interval.point(t), window)
            else:
                span = Interval(self._last_time, t)  # type: ignore[arg-type]
                query = SnapshotQuery(span, window.cover(prev_window))
            before = self._npdq.cost.snapshot()
            result = self._npdq.snapshot(query)
            self.cost.absorb(self._npdq.cost.snapshot() - before)
            items = result.items
            # Box-only prefetches must reach the cache: the next
            # snapshot's discardability assumes the client holds them.
            for item in result.prefetched:
                self.cache.insert(item)

        for item in items:
            self.cache.insert(item)
        report.mode = self._mode
        report.new_items = items
        report.evicted_ids = self.cache.advance(t)
        report.visible_count = len(self.cache)

        self._last_time = t
        self._last_center = center
        self._last_velocity = velocity if velocity is not None else self._last_velocity
        return report

    # -- lifecycle ------------------------------------------------------------------

    def close(self) -> None:
        """Release any live PDQ engine."""
        self._drop_pdq()

    def __enter__(self) -> "DynamicQuerySession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
