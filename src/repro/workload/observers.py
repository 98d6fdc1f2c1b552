"""Multi-observer fleets for the serving-layer experiments.

The paper's experiments drive one observer at a time; the broker hosts
N of them concurrently.  :func:`observer_fleet` generates N observer
trajectories over one data space with a controllable degree of *spatial
overlap* — the variable the shared-scan benchmark sweeps:

* ``identical`` — every observer flies the exact same path (100% page
  overlap; the shared scan's best case, and the configuration the
  sublinearity acceptance criterion is stated over);
* ``clustered`` — observers start inside a small disc around a common
  anchor and fly the same heading, so their windows overlap heavily but
  not perfectly;
* ``independent`` — uniformly random starts and headings (the baseline
  where sharing only happens near the R-tree root);
* ``spread`` — starts on a near-square lattice filling the data space,
  with random headings.  Observers cover *disjoint* regions, which is
  the sharded front-end's best case: each client routes to few shards
  and the per-shard read load divides by the shard count.

All fleets are deterministic in ``seed`` and bounce off the data-space
walls like the single-query generator in
:mod:`~repro.workload.trajectories`.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Callable, List, Sequence, Tuple

from repro.core.trajectory import QueryTrajectory
from repro.errors import WorkloadError
from repro.workload.config import WorkloadConfig
from repro.workload.trajectories import reflecting_waypoints

__all__ = ["FLEET_MODES", "observer_fleet", "path_of"]

FLEET_MODES = ("identical", "clustered", "independent", "spread")


def _one_trajectory(
    start: Sequence[float],
    direction: Sequence[float],
    speed: float,
    duration: float,
    low: Sequence[float],
    high: Sequence[float],
    start_time: float,
    half: float,
    dims: int,
) -> QueryTrajectory:
    times, centers = reflecting_waypoints(
        start, direction, speed, duration, low, high, start_time
    )
    return QueryTrajectory.through_waypoints(times, centers, [half] * dims)


def observer_fleet(
    data_config: WorkloadConfig,
    count: int,
    mode: str = "identical",
    window_side: float = 8.0,
    speed: float = 1.0,
    duration: float = 5.0,
    start_time: float = 0.0,
    cluster_radius: float = 2.0,
    seed: int = 0,
) -> List[QueryTrajectory]:
    """N observer trajectories with the given overlap structure.

    Parameters
    ----------
    data_config:
        Supplies the data-space geometry the observers stay inside.
    count:
        Fleet size.
    mode:
        One of :data:`FLEET_MODES`.
    window_side:
        Side length of each observer's square view window.
    speed, duration, start_time:
        Shared motion parameters; every observer covers the same time
        interval so a broker tick serves all of them.
    cluster_radius:
        Max distance of a ``clustered`` observer's start from the
        cluster anchor.
    seed:
        Deterministic fleet generator seed.
    """
    if count < 1:
        raise WorkloadError("fleet count must be positive")
    if mode not in FLEET_MODES:
        raise WorkloadError(
            f"unknown fleet mode {mode!r}; expected one of {FLEET_MODES}"
        )
    if window_side <= 0:
        raise WorkloadError("window_side must be positive")
    if duration <= 0:
        raise WorkloadError("duration must be positive")
    half = window_side / 2.0
    dims = data_config.dims
    side = data_config.space_side
    low = [half] * dims
    high = [side - half] * dims
    if any(hi <= lo for lo, hi in zip(low, high)):
        raise WorkloadError("window larger than the data space")
    # str hashes are randomized per process; derive the mode's salt from
    # its position so fleets are reproducible across runs.
    rng = random.Random((seed << 8) ^ count ^ (FLEET_MODES.index(mode) * 997))

    def random_start() -> List[float]:
        return [rng.uniform(lo, hi) for lo, hi in zip(low, high)]

    def random_heading() -> List[float]:
        heading = [0.0] * dims
        heading[rng.randrange(dims)] = rng.choice([-1.0, 1.0])
        return heading

    fleet: List[QueryTrajectory] = []
    if mode == "identical":
        start, heading = random_start(), random_heading()
        shared = _one_trajectory(
            start, heading, speed, duration, low, high, start_time, half, dims
        )
        fleet = [shared] * count
    elif mode == "clustered":
        anchor, heading = random_start(), random_heading()
        for _ in range(count):
            start = [
                min(max(a + rng.uniform(-cluster_radius, cluster_radius), lo), hi)
                for a, lo, hi in zip(anchor, low, high)
            ]
            fleet.append(
                _one_trajectory(
                    start, heading, speed, duration, low, high,
                    start_time, half, dims,
                )
            )
    elif mode == "independent":
        for _ in range(count):
            fleet.append(
                _one_trajectory(
                    random_start(), random_heading(), speed, duration,
                    low, high, start_time, half, dims,
                )
            )
    else:  # spread
        per_axis = math.ceil(count ** (1.0 / dims))
        cells = itertools.product(*(range(per_axis) for _ in range(dims)))
        for cell in itertools.islice(cells, count):
            start = [
                lo + (i + 0.5) * (hi - lo) / per_axis
                for lo, hi, i in zip(low, high, cell)
            ]
            fleet.append(
                _one_trajectory(
                    start, random_heading(), speed, duration,
                    low, high, start_time, half, dims,
                )
            )
    return fleet


def path_of(
    trajectory: QueryTrajectory,
) -> Callable[[float], Tuple[float, ...]]:
    """The observer's centre path as a callable (for auto sessions).

    Clamps to the trajectory's time span so a broker tick that slightly
    overshoots the span end still observes a valid position.
    """
    span = trajectory.time_span

    def path(t: float) -> Tuple[float, ...]:
        clamped = min(max(t, span.low), span.high)
        return trajectory.window_at(clamped).center

    return path
