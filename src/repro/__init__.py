"""repro — Dynamic Queries over Mobile Objects (EDBT 2002), reproduced.

A from-scratch implementation of Lazaridis, Porkaew & Mehrotra's
incremental evaluation of *dynamic queries* — continuous spatio-temporal
range queries posed by a moving observer over a database of mobile
objects — including every substrate the paper relies on: interval/box
algebra, linear motion modelling, a paged Guttman R-tree with native-
space and dual-time mappings, the PDQ/NPDQ/SPDQ query engines with
concurrent-update management, the client cache, the paper's synthetic
workload, and a harness regenerating every evaluation figure.

Quickstart::

    from repro import (
        NativeSpaceIndex, QueryTrajectory, PDQEngine, WorkloadConfig,
        generate_motion_segments,
    )

    config = WorkloadConfig.small(seed=7)
    index = NativeSpaceIndex(dims=2)
    index.bulk_load(generate_motion_segments(config))
    trajectory = QueryTrajectory.linear(
        start_time=10.0, end_time=15.0, start_center=(50.0, 50.0),
        velocity=(4.0, 0.0), half_extents=(4.0, 4.0),
    )
    with PDQEngine(index, trajectory) as pdq:
        for frame in pdq.run(period=0.1):
            ...  # frame.items are the newly visible objects

See ``examples/`` for runnable end-to-end scenarios and ``DESIGN.md`` /
``EXPERIMENTS.md`` for the reproduction methodology.
"""

from repro.errors import (
    CorruptPageError,
    GeometryError,
    IndexStructureError,
    MotionError,
    QueryError,
    RecoveryError,
    ReproError,
    SessionError,
    StorageError,
    TrajectoryError,
    TransientIOError,
    WorkloadError,
)
from repro.geometry import Box, Interval, TimeSet, SpaceTimeSegment
from repro.motion import (
    LinearMotion,
    MobileObject,
    MotionSegment,
    PeriodicUpdatePolicy,
    PiecewiseLinearMotion,
    ThresholdUpdatePolicy,
)
from repro.storage import (
    BufferPool,
    DiskManager,
    FaultInjector,
    IntentLog,
    QueryCost,
    RetryPolicy,
)
from repro.index import (
    ChecksummedCodec,
    DualTimeIndex,
    FsckReport,
    NativeSpaceIndex,
    ParametricSpaceIndex,
    RTree,
    collect_stats,
    fsck,
    str_bulk_load,
)
from repro.core import (
    AnswerItem,
    ClientCache,
    ContinuousCount,
    DynamicQuerySession,
    KeySnapshot,
    MovingKNN,
    NaiveEvaluator,
    NPDQEngine,
    OpenEndedNPDQEngine,
    PDQEngine,
    QueryTrajectory,
    SessionMode,
    SnapshotQuery,
    SnapshotResult,
    SPDQEngine,
    count_timeline,
    incremental_knn,
    pair_within_distance_interval,
    proximity_alerts,
    snapshot_distance_join,
)
from repro.workload import (
    WorkloadConfig,
    QueryWorkload,
    generate_mobile_objects,
    generate_motion_segments,
    generate_trajectories,
    speed_for_overlap,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "GeometryError",
    "MotionError",
    "StorageError",
    "TransientIOError",
    "CorruptPageError",
    "RecoveryError",
    "IndexStructureError",
    "QueryError",
    "TrajectoryError",
    "SessionError",
    "WorkloadError",
    # geometry
    "Interval",
    "Box",
    "TimeSet",
    "SpaceTimeSegment",
    # motion
    "LinearMotion",
    "PiecewiseLinearMotion",
    "MobileObject",
    "MotionSegment",
    "PeriodicUpdatePolicy",
    "ThresholdUpdatePolicy",
    # storage
    "DiskManager",
    "BufferPool",
    "QueryCost",
    "FaultInjector",
    "RetryPolicy",
    "IntentLog",
    # index
    "RTree",
    "ChecksummedCodec",
    "fsck",
    "FsckReport",
    "NativeSpaceIndex",
    "DualTimeIndex",
    "ParametricSpaceIndex",
    "str_bulk_load",
    "collect_stats",
    # core
    "SnapshotQuery",
    "AnswerItem",
    "SnapshotResult",
    "KeySnapshot",
    "QueryTrajectory",
    "NaiveEvaluator",
    "PDQEngine",
    "NPDQEngine",
    "OpenEndedNPDQEngine",
    "SPDQEngine",
    "ClientCache",
    "DynamicQuerySession",
    "SessionMode",
    "MovingKNN",
    "incremental_knn",
    "pair_within_distance_interval",
    "snapshot_distance_join",
    "proximity_alerts",
    "count_timeline",
    "ContinuousCount",
    # workload
    "WorkloadConfig",
    "QueryWorkload",
    "generate_mobile_objects",
    "generate_motion_segments",
    "generate_trajectories",
    "speed_for_overlap",
]
