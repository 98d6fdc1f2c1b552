"""Answer check, outside the timed phase.

A seeded sample of (client, tick) frames is compared with brute force
over the live segment set: the base population plus every insert due by
that tick (expires are deferred until ``quiesce()`` while clients are
live, so they never change an answer).  numpy only *pre-selects*
candidates with slack; the verdict on each candidate comes from the
scalar predicates in ``repro.geometry`` — the same split as
``tests/integration/test_property_system.py``.

Rules per client kind (``a``/``b`` are a tick's start/end):

* pdq — the frame holds exactly the visibility components that become
  deliverable at this tick: ``low <= b`` and ``high >= a``, and not
  already deliverable one tick earlier (or the segment was inserted at
  this tick);
* aggregate — the items are the segments visible for a positive time
  inside ``[a, b]``, and the count timeline is a recount over them;
* npdq — cumulative containment: the frame's exact items are a subset
  of brute force over the frame box, which in turn is covered by
  everything delivered so far (items and prefetches);
* knn — brute-force top-k at ``b`` under ``(distance, key)``;
* auto — a snapshot-mode frame equals the point snapshot; any other
  frame delivers only objects that cross the cover of the previous and
  current windows (prefetches stay inside an auto session, so coverage
  is not observable from its frames).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from typing import Dict, List, Sequence, Tuple

import numpy as np

from bench.workloads import KNN_K, PERIOD, START, WINDOW, Workload, client_id
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.geometry.segment import segment_box_overlap_interval

_SLACK = 1e-6
#: predictive auto frames follow a linear prediction that may sit this
#: far (DynamicQuerySession.deviation_tolerance) from the observed path
_AUTO_PAD = 1e-5


def boundary(i: int) -> float:
    """The ``i``-th tick boundary, as ``SimulatedClock.boundary`` adds it."""
    return START + i * PERIOD


class LiveSet:
    """Struct-of-arrays view of base + inserted segments for pre-selection."""

    def __init__(self, segments: Sequence, ops: Sequence) -> None:
        inserts = [op for op in ops if op.kind == "insert"]
        self.records = list(segments) + [op.segment for op in inserts]
        # tick index whose apply_until(start) first admits the segment
        born = [-1] * len(segments)
        for op in inserts:
            i = 0
            while boundary(i) < op.time:
                i += 1
            born.append(i)
        segs = [r.segment for r in self.records]
        self.born = np.array(born)
        self.t0 = np.array([s.time.low for s in segs])
        self.t1 = np.array([s.time.high for s in segs])
        origin = np.array([s.origin for s in segs])
        self.velocity = np.array([s.velocity for s in segs])
        self.origin = origin
        end = origin + self.velocity * (self.t1 - self.t0)[:, None]
        self.low = np.minimum(origin, end) - _SLACK
        self.high = np.maximum(origin, end) + _SLACK

    def crossing(self, tick: int, time: Interval, window: Box) -> List:
        """Live records whose bounding box meets ``time x window``."""
        mask = (
            (self.born <= tick)
            & (self.t0 <= time.high + _SLACK)
            & (self.t1 >= time.low - _SLACK)
        )
        for axis in range(window.dims):
            extent = window.extent(axis)
            mask &= (self.low[:, axis] <= extent.high) & (
                self.high[:, axis] >= extent.low
            )
        return [self.records[i] for i in np.nonzero(mask)[0]]

    def nearest(self, tick: int, t: float, point: Sequence[float], k: int) -> List:
        """Records valid at ``t``, the ``k`` nearest plus ties and slack."""
        alive = np.nonzero(
            (self.born <= tick) & (self.t0 <= t) & (self.t1 >= t)
        )[0]
        if len(alive) == 0:
            return []
        pos = self.origin[alive] + self.velocity[alive] * (t - self.t0[alive])[:, None]
        d_sq = ((pos - np.array(point)) ** 2).sum(axis=1)
        cut = np.partition(d_sq, min(k, len(d_sq)) - 1)[min(k, len(d_sq)) - 1]
        return [self.records[i] for i in alive[d_sq <= cut * (1 + 1e-9) + 1e-12]]


def _sweep(trajectory, a: float, b: float) -> Box:
    """Cover of the observer's windows over ``[a, b]`` (the cover rule of
    ``QueryTrajectory.frame_queries``)."""
    window = trajectory.window_at(a).cover(trajectory.window_at(b))
    for key in trajectory.key_snapshots:
        if a < key.time < b:
            window = window.cover(key.window)
    return window


def _exact(live: LiveSet, tick: int, time: Interval, window: Box) -> set:
    query = Box([time] + [window.extent(i) for i in range(window.dims)])
    return {
        r.key
        for r in live.crossing(tick, time, window)
        if not segment_box_overlap_interval(r.segment, query).is_empty
    }


def _components(live: LiveSet, trajectory, tick: int, a: float, b: float):
    """(record, visibility component) for everything near the sweep of
    ``[a, b]``."""
    return [
        (record, comp)
        for record in live.crossing(tick, Interval(a, b), _sweep(trajectory, a, b))
        for comp in trajectory.segment_overlap(record.segment)
    ]


def _check_pdq(live, born_by_key, trajectory, tick: int, frame) -> bool:
    a, b = boundary(tick), boundary(tick + 1)
    # PDQSession.serve asks for [start, start + duration], capped at the
    # trajectory's end
    span_end = trajectory.time_span.high
    horizon = min(a + (b - a), span_end)
    prev_a = boundary(tick - 1)
    prev_horizon = min(prev_a + (a - prev_a), span_end)
    want = set()
    for record, comp in _components(live, trajectory, tick, a, b):
        if comp.low > horizon or comp.high < a:
            continue
        earlier = (
            tick >= 1
            and born_by_key.get(record.key, -1) <= tick - 1
            and comp.low <= prev_horizon
        )
        if not earlier:
            want.add((record.key, comp.low, comp.high))
    got = {(i.key, i.visibility.low, i.visibility.high) for i in frame.items}
    return got == want and not frame.degraded


def _check_aggregate(live, trajectory, tick: int, frame) -> bool:
    a, b = boundary(tick), boundary(tick + 1)
    horizon = min(b, trajectory.time_span.high)
    deltas: Dict[float, int] = {}
    want = set()
    for record, comp in _components(live, trajectory, tick, a, horizon):
        low, high = max(comp.low, a), min(comp.high, horizon)
        if high - low > 0.0:
            want.add(record.key)
            deltas[low] = deltas.get(low, 0) + 1
            deltas[high] = deltas.get(high, 0) - 1
    timeline, count = [], 0
    for t in sorted(deltas):
        count += deltas[t]
        timeline.append((t, count))
    if not timeline or timeline[0][0] > a:
        timeline.insert(0, (a, 0))
    return (
        {i.key for i in frame.items} == want
        and list(frame.aggregate) == timeline
        and not frame.degraded
    )


def _check_npdq(live, trajectory, tick: int, frames) -> bool:
    a, b = boundary(tick), boundary(tick + 1)
    exact = _exact(live, tick, Interval(a, b), _sweep(trajectory, a, b))
    frame = frames[tick]
    delivered = set()
    for earlier in frames[: tick + 1]:
        delivered.update(i.key for i in earlier.items)
        delivered.update(i.key for i in earlier.prefetched)
    new = {i.key for i in frame.items}
    return new <= exact <= delivered and not frame.degraded


def _check_knn(live, trajectory, tick: int, frame) -> bool:
    t = boundary(tick + 1)
    point = trajectory.window_at(t).center
    ranked = sorted(
        (
            # the engine's own expression, so distances compare bit for bit
            math.sqrt(sum((p - q) ** 2 for p, q in zip(r.position_at(t), point))),
            r.key,
        )
        for r in live.nearest(tick, t, point, KNN_K)
        if r.time.contains(t)
    )[:KNN_K]
    got = [(n.distance, n.key) for n in frame.neighbors]
    return got == ranked


def _check_auto(live, trajectory, tick: int, frame) -> bool:
    half = WINDOW / 2.0
    span = trajectory.time_span

    def window_at(t: float) -> Box:
        center = trajectory.window_at(min(max(t, span.low), span.high)).center
        return Box.from_bounds(
            [c - half for c in center], [c + half for c in center]
        )

    a, b = boundary(tick), boundary(tick + 1)
    got = {i.key for i in frame.items}
    if frame.mode == "snapshot":
        return got == _exact(live, tick, Interval.point(b), window_at(b))
    # later frames are observed at tick ends, so the previous one was at a
    cover = window_at(b).cover(window_at(a)).inflate([_AUTO_PAD] * 2)
    return got <= _exact(live, tick, Interval(a, b), cover)


def check_round(
    wl: Workload,
    segments: Sequence,
    inputs,
    frames: Dict[str, List],
    seed: int,
    sample: int,
) -> Tuple[int, int]:
    """``(frames checked, frames wrong)`` on a seeded sample of one round.

    A client whose stream is not one frame per tick fails every sampled
    frame of its own, whatever the frames hold.
    """
    live = LiveSet(segments, inputs.ops)
    born_by_key = {
        r.key: int(b) for r, b in zip(live.records, live.born) if b >= 0
    }
    rng = random.Random(seed)
    pairs = [(c, t) for c in range(wl.clients) for t in range(wl.ticks)]
    checked = wrong = 0
    for c, tick in rng.sample(pairs, min(sample, len(pairs))):
        kind = wl.kinds[c % len(wl.kinds)]
        stream = frames.get(client_id(wl, c), [])
        trajectory = inputs.fleet[c]
        checked += 1
        if [f.index for f in stream] != list(range(wl.ticks)):
            wrong += 1
            continue
        frame = stream[tick]
        if kind == "pdq":
            ok = _check_pdq(live, born_by_key, trajectory, tick, frame)
        elif kind == "aggregate":
            ok = _check_aggregate(live, trajectory, tick, frame)
        elif kind == "npdq":
            ok = _check_npdq(live, trajectory, tick, stream)
        elif kind == "knn":
            ok = _check_knn(live, trajectory, tick, frame)
        else:
            ok = _check_auto(live, trajectory, tick, frame)
        wrong += not ok
    return checked, wrong


def answer_digest(frames: Dict[str, List]) -> str:
    """SHA-256 of one round's canonical per-client answer stream."""
    sha = hashlib.sha256()
    for cid in sorted(frames):
        for f in frames[cid]:
            row = [
                cid,
                f.index,
                f.mode,
                f.degraded,
                sorted((i.key, i.visibility.low, i.visibility.high) for i in f.items),
                sorted(i.key for i in f.prefetched),
                [(n.key, n.distance) for n in f.neighbors],
                list(f.aggregate),
            ]
            sha.update(json.dumps(row, separators=(",", ":")).encode())
    return sha.hexdigest()
