"""Query-trajectory generation at controlled overlap levels (Sect. 5).

"Query performance is measured at various speeds of the query
trajectory ... For a high speed query, the overlap between consecutive
snapshot queries is low; this increases as speed decreases.  We measure
the query performance at overlap levels of 0, 25, 50, 80, 90, and
99.99%."

For a square window of side ``w`` translating along one axis at speed
``v``, two snapshots ``Δt`` apart share the area fraction
``max(0, 1 - v·Δt / w)``; :func:`speed_for_overlap` inverts that.
Generated observers fly straight at that speed, *reflecting off the
domain walls* so the query stays over the data even at speeds (e.g.
80 u/t.u. for 0 % overlap on an 8x8 window) whose straight path would
leave the 100x100 space within a fraction of the query's duration.
Reflection points become key snapshots, so PDQ sees the exact path.
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence, Tuple

from repro.core.trajectory import QueryTrajectory
from repro.errors import WorkloadError
from repro.workload.config import QueryWorkload, WorkloadConfig

__all__ = [
    "speed_for_overlap",
    "overlap_for_speed",
    "reflecting_waypoints",
    "generate_trajectories",
]


def speed_for_overlap(
    overlap_percent: float, window_side: float, period: float
) -> float:
    """Observer speed giving the target per-frame window overlap.

    Parameters
    ----------
    overlap_percent:
        Desired overlap between consecutive snapshots, in [0, 100).
    window_side:
        Side length of the (square) query window.
    period:
        Time between consecutive snapshots (paper: 0.1).
    """
    if not 0.0 <= overlap_percent < 100.0:
        raise WorkloadError("overlap_percent must be in [0, 100)")
    if window_side <= 0 or period <= 0:
        raise WorkloadError("window_side and period must be positive")
    return (1.0 - overlap_percent / 100.0) * window_side / period


def overlap_for_speed(
    speed: float, window_side: float, period: float
) -> float:
    """Inverse of :func:`speed_for_overlap` (clamped at 0)."""
    if window_side <= 0 or period <= 0:
        raise WorkloadError("window_side and period must be positive")
    return max(0.0, 1.0 - speed * period / window_side) * 100.0


def reflecting_waypoints(
    start: Sequence[float],
    direction: Sequence[float],
    speed: float,
    duration: float,
    low: Sequence[float],
    high: Sequence[float],
    start_time: float = 0.0,
) -> Tuple[List[float], List[Tuple[float, ...]]]:
    """Trace a point bouncing inside a box; return times and positions.

    The returned sequences contain the start point, every wall-reflection
    instant, and the end point — the natural key snapshots for a PDQ over
    the path.  A zero speed yields just the two endpoints.

    Raises
    ------
    WorkloadError
        If the start position lies outside the box or bounds are invalid.
    """
    dims = len(start)
    if any(hi <= lo for lo, hi in zip(low, high)):
        raise WorkloadError("invalid reflection bounds")
    if any(not lo <= s <= hi for s, lo, hi in zip(start, low, high)):
        raise WorkloadError("start position outside the reflection bounds")
    if duration <= 0:
        raise WorkloadError("duration must be positive")
    norm = math.sqrt(sum(d * d for d in direction))
    if speed <= 0 or norm <= 1e-12:
        return (
            [start_time, start_time + duration],
            [tuple(start), tuple(start)],
        )
    velocity = [speed * d / norm for d in direction]
    position = list(start)
    times = [start_time]
    points = [tuple(position)]
    t = start_time
    end_time = start_time + duration
    while t < end_time - 1e-12:
        # Next wall hit along any dimension.
        hit = end_time - t
        hit_dim = -1
        for i in range(dims):
            v = velocity[i]
            if v > 0:
                dt = (high[i] - position[i]) / v
            elif v < 0:
                dt = (low[i] - position[i]) / v
            else:
                continue
            if 1e-12 < dt < hit:
                hit = dt
                hit_dim = i
        t_next = min(t + hit, end_time)
        step = t_next - t
        position = [p + v * step for p, v in zip(position, velocity)]
        position = [min(max(p, lo), hi) for p, lo, hi in zip(position, low, high)]
        times.append(t_next)
        points.append(tuple(position))
        if hit_dim >= 0 and t_next < end_time:
            velocity[hit_dim] = -velocity[hit_dim]
        t = t_next
    return times, points


def generate_trajectories(
    data_config: WorkloadConfig,
    query_config: QueryWorkload,
    overlap_percent: float,
    window_side: float,
    count: int,
    seed_offset: int = 0,
    axis_aligned: bool = True,
) -> List[QueryTrajectory]:
    """Random dynamic queries at one (overlap, window-size) grid point.

    Each trajectory starts at a uniformly random instant (leaving room
    for the full query duration before the data horizon ends) and a
    uniformly random in-bounds window position, flying at
    :func:`speed_for_overlap` speed and bouncing off the walls.
    Deterministic in ``query_config.seed`` + ``seed_offset``.

    With ``axis_aligned`` (default) the heading is parallel to a random
    axis, so the per-frame window overlap is *exactly* the target
    percentage (the paper presents its geometry with axis-parallel
    observer motion, Fig. 1(b)); otherwise the heading is uniformly
    random and the quoted overlap refers to the motion axis.
    """
    if count < 1:
        raise WorkloadError("count must be positive")
    rng = random.Random(
        (query_config.seed << 16) ^ seed_offset ^ round(overlap_percent * 100)
        ^ round(window_side * 100)
    )
    speed = speed_for_overlap(
        overlap_percent, window_side, query_config.snapshot_period
    )
    half = window_side / 2.0
    dims = data_config.dims
    side = data_config.space_side
    duration = query_config.duration
    max_start = data_config.horizon - duration
    if max_start <= 0:
        raise WorkloadError(
            "query duration exceeds the data horizon; shrink the query "
            "workload or grow the data horizon"
        )
    low = [half] * dims
    high = [side - half] * dims
    if any(hi <= lo for lo, hi in zip(low, high)):
        raise WorkloadError("window larger than the data space")
    trajectories: List[QueryTrajectory] = []
    for _ in range(count):
        start_time = rng.uniform(0.0, max_start)
        start = [rng.uniform(lo, hi) for lo, hi in zip(low, high)]
        if axis_aligned:
            direction = [0.0] * dims
            direction[rng.randrange(dims)] = rng.choice([-1.0, 1.0])
        else:
            direction = [rng.gauss(0.0, 1.0) for _ in range(dims)]
        times, centers = reflecting_waypoints(
            start, direction, speed, duration, low, high, start_time
        )
        trajectories.append(
            QueryTrajectory.through_waypoints(
                times, centers, [half] * dims
            )
        )
    return trajectories
