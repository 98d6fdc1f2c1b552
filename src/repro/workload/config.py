"""Workload parameterisation.

:class:`WorkloadConfig` describes the object population;
:class:`QueryWorkload` describes the dynamic-query experiment grid.  The
``paper()`` constructors reproduce Sect. 5 exactly; the ``small()`` /
``tiny()`` presets scale the same distributions down for pure-Python
benchmark runtimes and for unit tests (documented as a substitution in
DESIGN.md — the measured quantities are structural counts, so shapes
survive scaling).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import WorkloadError

__all__ = ["WorkloadConfig", "QueryWorkload"]


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of the mobile-object population.

    Attributes
    ----------
    num_objects:
        Number of mobile objects (paper: 5000).
    space_side:
        Side length of the square/cubic domain (paper: 100).
    dims:
        Spatial dimensionality (paper: 2).
    horizon:
        Simulated duration in time units (paper: 100).
    update_period:
        Mean gap between motion updates (paper: ~1, normally distributed).
    speed:
        Mean object speed (paper: ~1 length unit per time unit).
    velocity_change_period:
        Mean gap between true velocity changes of the underlying motion.
    seed:
        Seed of the deterministic generator.
    """

    num_objects: int = 5000
    space_side: float = 100.0
    dims: int = 2
    horizon: float = 100.0
    update_period: float = 1.0
    speed: float = 1.0
    velocity_change_period: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_objects < 1:
            raise WorkloadError("num_objects must be positive")
        if self.space_side <= 0 or self.horizon <= 0:
            raise WorkloadError("space_side and horizon must be positive")
        if self.dims < 1:
            raise WorkloadError("dims must be >= 1")
        if self.update_period <= 0 or self.velocity_change_period <= 0:
            raise WorkloadError("periods must be positive")
        if self.speed < 0:
            raise WorkloadError("speed must be non-negative")

    @property
    def expected_segments(self) -> int:
        """Rough expected number of motion segments."""
        return int(self.num_objects * self.horizon / self.update_period)

    @classmethod
    def paper(cls, seed: int = 0) -> "WorkloadConfig":
        """The exact Sect. 5 parameters (~5·10⁵ segments)."""
        return cls(seed=seed)

    @classmethod
    def small(cls, seed: int = 0) -> "WorkloadConfig":
        """A laptop-friendly scale (~3·10⁴ segments) preserving all
        distributions; the default for the benchmark harness."""
        return cls(num_objects=1000, horizon=30.0, seed=seed)

    @classmethod
    def tiny(cls, seed: int = 0) -> "WorkloadConfig":
        """A unit-test scale (~2·10³ segments)."""
        return cls(num_objects=150, horizon=15.0, seed=seed)


@dataclass(frozen=True)
class QueryWorkload:
    """The dynamic-query experiment grid of Sect. 5.

    Attributes
    ----------
    overlap_levels:
        Target per-frame overlap percentages (paper: 0/25/50/80/90/99.99).
    window_sides:
        Window side lengths (paper: 8 small, 14 medium, 20 big).
    snapshot_period:
        Time between consecutive snapshot queries (paper: 0.1).
    subsequent_count:
        Snapshots averaged per dynamic query after the first (paper: 50).
    trajectories:
        Dynamic queries averaged per configuration (paper: 1000; scaled
        presets use fewer — counts are deterministic per trajectory, so
        fewer repetitions only widen confidence intervals).
    seed:
        Seed of the trajectory generator.
    """

    overlap_levels: Tuple[float, ...] = (0.0, 25.0, 50.0, 80.0, 90.0, 99.99)
    window_sides: Tuple[float, ...] = (8.0, 14.0, 20.0)
    snapshot_period: float = 0.1
    subsequent_count: int = 50
    trajectories: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.overlap_levels:
            raise WorkloadError("need at least one overlap level")
        if any(not 0.0 <= o < 100.0 for o in self.overlap_levels):
            raise WorkloadError("overlap levels must be in [0, 100)")
        if any(w <= 0 for w in self.window_sides):
            raise WorkloadError("window sides must be positive")
        if self.snapshot_period <= 0:
            raise WorkloadError("snapshot_period must be positive")
        if self.subsequent_count < 1 or self.trajectories < 1:
            raise WorkloadError("counts must be positive")

    @property
    def duration(self) -> float:
        """Temporal length of each dynamic query (first + subsequent)."""
        return self.snapshot_period * (self.subsequent_count + 1)

    @classmethod
    def paper(cls, seed: int = 0) -> "QueryWorkload":
        """The full Sect. 5 grid (1000 trajectories per point)."""
        return cls(trajectories=1000, seed=seed)

    @classmethod
    def small(cls, seed: int = 0) -> "QueryWorkload":
        """Benchmark preset: the full grid, 20 trajectories per point."""
        return cls(trajectories=20, seed=seed)

    @classmethod
    def tiny(cls, seed: int = 0) -> "QueryWorkload":
        """Unit-test preset: a reduced grid, 3 trajectories per point."""
        return cls(
            overlap_levels=(0.0, 50.0, 90.0),
            window_sides=(8.0,),
            subsequent_count=10,
            trajectories=3,
            seed=seed,
        )
