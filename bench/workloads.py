"""The five fleet workloads: inputs from a seed, one deployment per tier.

A *round* is the benchmark's unit of work: build the deployment from the
generated segment list, register the fleet, serve ``ticks`` ticks back
to back (polling every client after every tick), drain.  Everything a
round does is a function of ``(workload, seed, round index)``; the
program only ever sees the generated segments, trajectories and update
ops.  All tiers run at the shipped ``ServerConfig()`` defaults, so a
later change of a default is measured as users would get it.
"""

from __future__ import annotations

import bisect
import dataclasses
import os
import random
import shutil
import struct
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.query import QuerySpec
from repro.geometry.interval import Interval
from repro.geometry.segment import SpaceTimeSegment
from repro.index import DualTimeIndex, NativeSpaceIndex
from repro.index.codec import (
    ChecksummedCodec,
    DualTimeNodeCodec,
    NativeNodeCodec,
)
from repro.motion.segment import MotionSegment
from repro.server import (
    MultiplexBroker,
    QueryBroker,
    RemoteMultiplexBroker,
    ServerConfig,
    SimulatedClock,
    UpdateOp,
)
from repro.storage.constants import PAGE_SIZE
from repro.storage.file import TickDurability, open_durable
from repro.workload.config import WorkloadConfig
from repro.workload.objects import generate_motion_segments
from repro.workload.observers import observer_fleet, path_of

#: First tick boundary, tick length and observer window side (the
#: paper's snapshot period and small window).
START, PERIOD, WINDOW = 1.0, 0.1, 8.0
KNN_K = 4
CHECKPOINT_EVERY = 8
#: Inserted segments are re-keyed above the base population's ids.
CHURN_ID_BASE = 1_000_000
#: A ``spread`` observer must not reach a wall during a round.  Where a
#: path reflects, a segment can be visible twice (two components), and
#: two program defects then lose one of them: ``merge_results`` keeps one
#: component per key and tick, ``AggregateSession`` one per key (see
#: bench/README.md, "Defects"); a workload may not contain operations
#: that fail.  30 lattice observers start 7.7 from the nearest wall and
#: fly 7.5 at speed 1; 64 start 5.75 away, so they fly slower.
SPREAD64_SPEED = 0.75


@dataclass(frozen=True)
class Workload:
    """One traffic mix on one serving tier."""

    name: str
    why: str
    tier: str  # "broker" | "durable" | "mux" | "proc"
    objects: int
    horizon: float
    clients: int
    fleet: str
    kinds: Tuple[str, ...]
    ticks: int
    shards: int = 1
    inserts_per_tick: int = 0
    expire_every: int = 0
    observer_speed: float = 1.0

    @property
    def dual(self) -> bool:
        """Does any client kind need the dual-time index?"""
        return any(k in ("npdq", "auto") for k in self.kinds)

    def smoke(self) -> "Workload":
        """The same mix at ``WorkloadConfig.tiny`` scale, 20 ticks."""
        tiny = WorkloadConfig.tiny()
        return dataclasses.replace(
            self,
            objects=tiny.num_objects,
            horizon=tiny.horizon,
            clients=min(self.clients, 10),
            ticks=20,
        )


# Sizes are set by the driver's time cap (about 30 s per run, set-up
# repeated three times inside it), not by the paper: see bench/README.md
# for what each one keeps of the issue's paper-scale plan.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="pdq_paper",
            why=(
                "The paper's object density and primary algorithm: 64 PDQ "
                "clients over a tree the size of the buffer pool; the tick is "
                "queue pops and trapezoid tests plus the scheduler's page pins."
            ),
            tier="broker",
            objects=5000,
            horizon=20.0,
            clients=64,
            fleet="independent",
            kinds=("pdq",),
            ticks=120,
        ),
        Workload(
            name="npdq_mid",
            why=(
                "The non-predictive path: 32 NPDQ clients; the tick is box "
                "algebra in NPDQEngine.snapshot plus the dual-tree prediction "
                "walk, so a PDQ or broker change predicts no move here."
            ),
            tier="broker",
            objects=1000,
            horizon=30.0,
            clients=32,
            fleet="independent",
            kinds=("npdq",),
            ticks=68,
        ),
        Workload(
            name="zoo_churn_durable",
            why=(
                "Writes beside reads on the file backend as serve --data-dir "
                "wires it: 30 pdq/knn/aggregate clients, 8 inserts a tick, "
                "WAL group commit, a checkpoint every 8 ticks, expires at drain."
            ),
            tier="durable",
            objects=1000,
            horizon=30.0,
            clients=30,
            # straight paths only: see SPREAD64_SPEED
            fleet="spread",
            # npdq/auto are kept off this tier: on a codec-backed store
            # NPDQ misses fresh inserts (see bench/README.md, "Defects")
            kinds=("pdq", "knn", "aggregate"),
            ticks=70,
            inserts_per_tick=8,
            expire_every=8,
        ),
        Workload(
            name="spread_mux2",
            why=(
                "The sharded tier without a wire: router replication, two "
                "shard brokers in one interpreter and merge_results dedup "
                "under a 64-client spread fleet of pdq/npdq/auto."
            ),
            tier="mux",
            objects=1000,
            horizon=30.0,
            clients=64,
            fleet="spread",
            kinds=("pdq", "npdq", "auto"),
            ticks=68,
            shards=2,
            observer_speed=SPREAD64_SPEED,
        ),
        Workload(
            name="spread_proc2",
            why=(
                "spread_mux2's exact inputs served by two spawned workers: "
                "adds frame pack/parse, pipes and the asyncio barrier, so the "
                "pair differs only in transport and answers must be equal."
            ),
            tier="proc",
            objects=1000,
            horizon=30.0,
            clients=64,
            fleet="spread",
            kinds=("pdq", "npdq", "auto"),
            ticks=68,
            shards=2,
            observer_speed=SPREAD64_SPEED,
        ),
    )
}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@dataclass
class RoundInputs:
    """What one round feeds the program."""

    fleet: List  # QueryTrajectory per client
    ops: List[UpdateOp]  # every update, with its due time


def data_config(wl: Workload, seed: int) -> WorkloadConfig:
    """The object population of ``wl`` (data seed = ``seed``)."""
    return WorkloadConfig(
        num_objects=wl.objects, horizon=wl.horizon, seed=seed
    )


_F32 = struct.Struct("<f")


def _f32(x: float) -> float:
    return _F32.unpack(_F32.pack(x))[0]


def as_stored(records: Iterable[MotionSegment]) -> List[MotionSegment]:
    """Round every coordinate to float32, the precision of the page
    codecs, so the file backend serves exactly the population the
    in-memory tiers (and the brute-force check) see."""
    out = []
    for r in records:
        s = r.segment
        out.append(
            MotionSegment(
                r.object_id,
                r.seq,
                SpaceTimeSegment(
                    Interval(_f32(s.time.low), _f32(s.time.high)),
                    tuple(map(_f32, s.origin)),
                    tuple(map(_f32, s.velocity)),
                ),
            )
        )
    return out


def generate(wl: Workload, seed: int) -> Tuple[WorkloadConfig, List[MotionSegment]]:
    """The population of ``wl`` and every motion update it reports."""
    config = data_config(wl, seed)
    return config, as_stored(generate_motion_segments(config))


def client_id(wl: Workload, i: int) -> str:
    return f"{wl.kinds[i % len(wl.kinds)]}-{i:02d}"


def round_inputs(
    wl: Workload, config: WorkloadConfig, segments: Sequence, seed: int, r: int
) -> RoundInputs:
    """Fleet (seed ``S+1``) and churn (seed ``S+2``) of round ``r``.

    Every round flies a different fleet over the same population, so a
    run's medians average over fleets instead of repeating one.
    """
    fleet = observer_fleet(
        config,
        wl.clients,
        mode=wl.fleet,
        window_side=WINDOW,
        speed=wl.observer_speed,
        duration=wl.ticks * PERIOD + 0.5,
        start_time=START,
        seed=(seed + 1) * 100 + r,
    )
    if wl.fleet == "spread" and any(len(t.key_snapshots) > 2 for t in fleet):
        raise RuntimeError(f"{wl.name}: an observer reached a wall")
    return RoundInputs(fleet, _churn_ops(wl, config, segments, (seed + 2) * 100 + r))


def _churn_ops(
    wl: Workload, config: WorkloadConfig, segments: Sequence, seed: int
) -> List[UpdateOp]:
    """``inserts_per_tick`` inserts due at every tick boundary, plus one
    expire of an already-past base segment every ``expire_every`` ticks.

    The inserts are the motion updates of a second, smaller population
    as they reach the server: at each boundary, the most recent reports
    not yet applied (the population reports half again as often as the
    server takes them in, so these began within the last tick or so; in
    a thin tick the batch is topped up with the next reports to come).
    """
    n = wl.inserts_per_tick
    if not n:
        return []
    span = wl.ticks * PERIOD
    late = WorkloadConfig(
        # an object reports about once per time unit
        num_objects=int(1.5 * n / PERIOD) + 1,
        space_side=config.space_side,
        horizon=START + span + 2.0,
        seed=seed,
    )
    fresh = sorted(
        as_stored(generate_motion_segments(late)),
        key=lambda s: (s.time.low, s.key),
    )
    lows = [s.time.low for s in fresh]
    ops, taken = [], 0
    for i in range(wl.ticks):
        due = START + i * PERIOD
        first = max(taken, bisect.bisect_right(lows, due) - n)
        taken = first + n
        if taken > len(fresh):
            raise RuntimeError("churn population ran out of reports")
        ops.extend(
            UpdateOp(
                due,
                "insert",
                dataclasses.replace(s, object_id=CHURN_ID_BASE + s.object_id),
            )
            for s in fresh[first:taken]
        )
    if wl.expire_every:
        past = [s for s in segments if s.time.high < START]
        victims = random.Random(seed).sample(
            past, (wl.ticks - 1) // wl.expire_every
        )
        ops.extend(
            UpdateOp(START + (j + 1) * wl.expire_every * PERIOD, "expire", s)
            for j, s in enumerate(victims)
        )
    return ops


# ---------------------------------------------------------------------------
# Deployments
# ---------------------------------------------------------------------------


class Server:
    """One built deployment: a broker of some tier plus what must be
    closed after it."""

    def __init__(self, wl: Workload, broker, hook=None, stores=(), data_dir=None):
        self.wl = wl
        self.broker = broker
        self.hook = hook
        self.stores = stores  # (disk, log, meta_fn) per durable tree
        self.data_dir = data_dir

    def inner_brokers(self) -> List[QueryBroker]:
        """The ``QueryBroker`` instances living in this process."""
        if self.wl.tier == "mux":
            return [shard.broker for shard in self.broker.shards]
        return [] if self.wl.tier == "proc" else [self.broker]

    def submit(self, ops: Sequence[UpdateOp]) -> None:
        sink = (
            self.broker.dispatcher
            if self.wl.tier in ("broker", "durable")
            else self.broker
        )
        for op in ops:
            sink.submit(op)

    def drain(self) -> int:
        """``quiesce()`` + closing the durability hook; expires applied."""
        expired = self.broker.quiesce()
        if self.hook is not None:
            self.hook.close()
            self.hook = None
        return expired

    def worker_pids(self) -> List[int]:
        if self.wl.tier != "proc":
            return []
        return [h.proc.pid for h in self.broker.workers if h.proc is not None]

    def close(self) -> None:
        """Idempotent teardown: workers stopped and waited, files removed."""
        if self.wl.tier == "proc":
            self.broker.close()
        if self.hook is not None:
            self.hook.close()
            self.hook = None
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)


def _clock() -> SimulatedClock:
    return SimulatedClock(start=START, period=PERIOD)


def build(
    wl: Workload,
    config: WorkloadConfig,
    segments: Sequence,
    scratch: Optional[str] = None,
) -> Server:
    """Generated segment list -> a loaded deployment of ``wl.tier``."""
    if wl.tier == "broker":
        native = NativeSpaceIndex(dims=2)
        native.bulk_load(segments)
        dual = None
        if wl.dual:
            dual = DualTimeIndex(dims=2)
            dual.bulk_load(segments)
        return Server(
            wl, QueryBroker(native, dual, clock=_clock(), config=ServerConfig())
        )
    if wl.tier == "durable":
        return _build_durable(wl, segments, scratch)
    cls = MultiplexBroker if wl.tier == "mux" else RemoteMultiplexBroker
    side = config.space_side
    broker = cls.over_segments(
        segments,
        shards=wl.shards,
        dual=wl.dual,
        clock=_clock(),
        config=ServerConfig(),
        bounds=([0.0, 0.0], [side, side]),
    )
    return Server(wl, broker)


def _build_durable(wl: Workload, segments: Sequence, scratch: Optional[str]) -> Server:
    """The file backend as ``serve --data-dir`` opens it on a fresh
    directory: checksummed pages, group commit, base trees checkpointed
    before the first tick."""
    if scratch is None:
        raise ValueError("the durable tier needs a scratch directory")
    os.makedirs(scratch, exist_ok=True)
    stores = []
    indexes = {}
    try:
        for name, index_cls, codec_cls in (
            ("native", NativeSpaceIndex, NativeNodeCodec),
            ("dual", DualTimeIndex, DualTimeNodeCodec),
        ):
            if name == "dual" and not wl.dual:
                continue
            disk, log, _report = open_durable(
                scratch,
                name,
                codec=ChecksummedCodec(codec_cls(2)),
                page_size=PAGE_SIZE,
                sync_on_commit=False,
                through_tick=-1,
                fresh=True,
            )
            index = index_cls(dims=2, disk=disk)
            stores.append((disk, log, index.tree.recovery_meta))
            index.bulk_load(segments)
            disk.checkpoint(meta=index.tree.recovery_meta())
            indexes[name] = index
    except BaseException:
        for disk, log, _meta in stores:
            log.close()
            disk.close()
        shutil.rmtree(scratch, ignore_errors=True)
        raise
    hook = TickDurability(stores, CHECKPOINT_EVERY)
    broker = QueryBroker(
        indexes["native"],
        indexes.get("dual"),
        clock=_clock(),
        config=ServerConfig(),
        durability=hook,
    )
    return Server(wl, broker, hook=hook, stores=stores, data_dir=scratch)


def register(server: Server, fleet: Sequence) -> None:
    """Admit one client per trajectory, cycling ``wl.kinds``.

    Spec-expressible kinds go through the declarative front door
    (``register_query``), so the planner runs as it does for ``serve``.
    """
    wl, broker = server.wl, server.broker
    half = (WINDOW / 2.0,) * 2
    for i, trajectory in enumerate(fleet):
        kind = wl.kinds[i % len(wl.kinds)]
        cid = client_id(wl, i)
        if kind == "pdq":
            broker.register_query(cid, QuerySpec.range(trajectory))
        elif kind == "npdq":
            broker.register_query(
                cid, QuerySpec.range(trajectory, predictive=False)
            )
        elif kind == "knn":
            broker.register_query(cid, QuerySpec.knn(trajectory, KNN_K))
        elif kind == "aggregate":
            broker.register_query(cid, QuerySpec.aggregate(trajectory))
        elif wl.tier == "proc":
            # a path closure cannot cross the pipe; the worker rebuilds it
            broker.register_auto(cid, trajectory, half_extents=half)
        else:
            broker.register_auto(cid, path_of(trajectory), half_extents=half)
