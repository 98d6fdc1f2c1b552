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
beforehand: every mode reads its pages during the observation — the
predictive engine from the native-space tree, snapshot and
non-predictive frames from the dual-time tree.

Sessions over one pair of indexes observe a frame each as one block
(:func:`observe_block`): the teleport test, velocity and stability are
columns, the predicted centres one kernel call, the predictive frames
one page-major :func:`~repro.core.pdq.sweep_windows` and the others one
:func:`~repro.core.npdq.snapshot_all`; only a session whose engine
changes hands takes the scalar hand-off.
:meth:`DynamicQuerySession.observe` is the block of one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.cache import ClientCache
from repro.core.npdq import NPDQEngine, snapshot_all
from repro.core.pdq import PDQEngine, sweep_windows
from repro.core.spdq import SPDQEngine
from repro.core.results import AnswerItem
from repro.core.snapshot import SnapshotQuery
from repro.core.trajectory import QueryTrajectory
from repro.errors import SessionError
from repro.geometry import kernels
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.index.dualtime import DualTimeIndex
from repro.index.nsi import NativeSpaceIndex
from repro.storage.metrics import QueryCost

__all__ = ["SessionMode", "FrameReport", "DynamicQuerySession", "observe_block"]


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
    new_items: Sequence[AnswerItem] = field(default_factory=list)
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
        self._tables = (kernels.StackedTables(), kernels.StackedTables())

    # -- helpers -----------------------------------------------------------

    @property
    def mode(self) -> SessionMode:
        """Mode used for the most recent frame."""
        return self._mode

    @property
    def predictive_engine(self):
        """The live PDQ/SPDQ engine, or ``None`` outside predictive mode."""
        return self._pdq

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

    # -- the per-frame entry point ---------------------------------------------

    def observe(self, t: float, center: Sequence[float]) -> FrameReport:
        """Process one rendered frame: observer at ``center`` at time ``t``.

        Returns the newly delivered objects, evictions and the mode used.
        Frames must advance strictly in time.  This is the one-session
        case of :func:`observe_block`.
        """
        return observe_block([self], t, [center], self._tables)[0]

    # -- lifecycle ------------------------------------------------------------------

    def close(self) -> None:
        """Release any live PDQ engine."""
        self._drop_pdq()

    def __enter__(self) -> "DynamicQuerySession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def observe_block(
    sessions: Sequence[DynamicQuerySession],
    t: float,
    centres: Sequence[Sequence[float]],
    tables: Optional[Tuple[kernels.StackedTables, kernels.StackedTables]] = None,
) -> List[FrameReport]:
    """Process one rendered frame at ``t`` for every session of a block,
    session ``i``'s observer at ``centres[i]``; returns their reports.

    The sessions share one pair of indexes and observe once each, and
    every refusal comes before any session is touched.  Each session
    gets the report, mode switches, cost and cache contents it would get
    observing alone (see the module docstring for how the block
    evaluates them together).  ``tables`` stack the live predictions'
    and the predictive engines' trajectories; pass the same pair tick
    after tick and an unchanged set is not restacked.  A failed
    evaluation (a page load that raises) leaves every member handed off
    to its new mode with its last frame, velocity and cache not advanced.
    """
    centres = [tuple(c) for c in centres]
    if len(centres) != len(sessions):
        raise SessionError(f"{len(centres)} centres for {len(sessions)} sessions")
    if len({id(s) for s in sessions}) != len(sessions):
        raise SessionError("a session observes one frame per block")
    if not sessions:
        return []
    predicted_table, engine_table = tables or (kernels.StackedTables(), kernels.StackedTables())
    native, dual = sessions[0].native_index, sessions[0].dual_index
    for s, center in zip(sessions, centres):
        if s.native_index is not native or s.dual_index is not dual:
            raise SessionError("a block's sessions share their indexes")
        if len(center) != s.native_index.dims:
            raise SessionError(
                f"center has {len(center)} dims, indexes have "
                f"{s.native_index.dims}"
            )
        if s._last_time is not None and t <= s._last_time:
            raise SessionError("frames must advance strictly in time")

    # -- the motion estimate, in columns ----------------------------------------
    # A frame continues the series unless it is the first or a teleport:
    # a window overlapping the previous one by less than
    # ``teleport_overlap``.
    nan = (math.nan,) * len(centres[0])
    overlaps, velocities, held = kernels.frame_motion(
        centres,
        [c if s._last_time is None else s._last_center for s, c in zip(sessions, centres)],
        [s.half_extents for s in sessions],
        [1.0 if s._last_time is None else t - s._last_time for s in sessions],
        [s._last_velocity or nan for s in sessions],
        [s.velocity_tolerance for s in sessions],
    )
    fresh = [
        s._last_time is None or overlap < s.teleport_overlap
        for s, overlap in zip(sessions, overlaps)
    ]
    # live predictions not past their horizon, checked against the
    # observed centres
    live = [
        i for i, s in enumerate(sessions)
        if not fresh[i] and s._pdq is not None and t <= s._pdq_until
    ]
    holds = set()
    if live:
        predicted = kernels.window_centres(
            predicted_table(
                sessions[i]._predicted.kernel_table() for i in live  # type: ignore[union-attr]
            ),
            t,
        )
        for i, centre in zip(live, predicted):
            s = sessions[i]
            if math.dist(centres[i], centre) <= max(s.deviation_tolerance, s.spdq_delta):
                holds.add(i)

    # -- pick the modes: only a hand-off touches an engine -----------------------
    for i, s in enumerate(sessions):
        s._stable_count = s._stable_count + 1 if held[i] and not fresh[i] else 0
        if fresh[i]:
            s._drop_pdq()
            s._npdq.reset()
            mode = SessionMode.SNAPSHOT
        elif i in holds:
            mode = SessionMode.PREDICTIVE
        else:
            s._drop_pdq()
            mode = SessionMode.NON_PREDICTIVE
            if s._stable_count >= s.stability_frames:
                s._last_velocity = tuple(velocities[i])
                s._start_prediction(t, centres[i])
                mode = SessionMode.PREDICTIVE
        s._set_mode(t, mode)

    # -- evaluate the frames --------------------------------------------------------
    items: Dict[int, Sequence[AnswerItem]] = {}
    predictive = [i for i, s in enumerate(sessions) if s._mode is SessionMode.PREDICTIVE]
    if predictive:
        # a fresh frame is never predictive, so each has a last frame;
        # an SPDQ engine's sweep is its inner engine's
        engines = [getattr(sessions[i]._pdq, "engine", sessions[i]._pdq) for i in predictive]
        sweep_windows(
            [(e, sessions[i]._last_time, t) for e, i in zip(engines, predictive)],
            engine_table(e.trajectory.kernel_table() for e in engines),
        )
        for i in predictive:
            items[i] = sessions[i]._pdq.window(sessions[i]._last_time, t)  # type: ignore
    pairs = []
    for i, s in enumerate(sessions):
        if i in items:
            continue
        # A fresh frame is an instantaneous snapshot of the window; any
        # other spans the time since the previous frame over the cover
        # of both windows (the region the sweep crossed).
        window = _box_around(centres[i], s.half_extents)
        if fresh[i]:
            query = SnapshotQuery(Interval.point(t), window)
        else:
            swept = window.cover(_box_around(s._last_center, s.half_extents))  # type: ignore[arg-type]
            query = SnapshotQuery(Interval(s._last_time, t), swept)  # type: ignore[arg-type]
        pairs.append((i, s._npdq, query))
    results = snapshot_all([(engine, query) for _, engine, query in pairs])
    for (i, _, _), result in zip(pairs, results):
        s = sessions[i]
        s.cost.absorb(result.cost)
        # Box-only prefetches must reach the cache: the next snapshot's
        # discardability assumes the client holds them.
        for item in result.prefetched:
            s.cache.insert(item)
        items[i] = result.items

    reports = []
    for i, s in enumerate(sessions):
        for item in items[i]:
            s.cache.insert(item)
        evicted = s.cache.advance(t)
        reports.append(FrameReport(t, s._mode, items[i], evicted, len(s.cache)))
        if not fresh[i]:
            s._last_velocity = tuple(velocities[i])
        s._last_time = t
        s._last_center = centres[i]
    return reports


def _box_around(center: Sequence[float], half_extents: Sequence[float]) -> Box:
    return Box.from_bounds(
        [c - h for c, h in zip(center, half_extents)],
        [c + h for c, h in zip(center, half_extents)],
    )
