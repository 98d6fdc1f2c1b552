"""Command-line entry point: ``repro-dq``.

Subcommands:

* ``figures`` — regenerate the paper's evaluation figures as text
  tables (choose ``--scale tiny|small|paper`` and optionally a single
  ``--figure``).
* ``stats`` — build the indexes and print their geometry next to the
  paper's reported numbers.
* ``demo`` — run a short observer session with automatic mode hand-off
  and narrate what happens.
* ``fsck`` — build an index and run the full structural invariant
  checker (optionally with a deliberately corrupted page, to prove the
  checker notices); ``--repair`` additionally fixes what is mechanically
  fixable and re-checks.
* ``chaos`` — run a query engine (``--engine pdq|npdq|naive``) under an
  injected fault plan and compare the (possibly degraded) answer against
  the fault-free run; ``--soak N`` sweeps the plan across N seeds and
  aggregates violations into one exit code.
* ``serve`` — host N concurrent observers on the shared-execution query
  broker over a scenario world and report per-tick serving metrics.
  With ``--data-dir`` the indexes live on the durable file backend: every
  tick group-commits through the redo WAL, the tick-tagged answer stream
  is fsynced to ``answers.log`` *before* the tick commits, and a killed
  process restarts exactly where it left off (re-run the same command).
* ``snapshot`` / ``restore`` — point-in-time recovery for a durable
  store: per-tree compressed page images plus a checksummed
  ``metadata.json`` manifest.
* ``lint`` — run the project-specific static analyzer
  (:mod:`repro.analysis`) over the source tree: determinism, layering
  and crash-safety rules, with per-line suppressions and a committed
  baseline ratchet.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

__all__ = ["main"]

_SCALES = ("tiny", "small", "paper")


def _configs(scale: str, trajectories: Optional[int] = None):
    import dataclasses

    from repro.workload.config import QueryWorkload, WorkloadConfig

    data = getattr(WorkloadConfig, scale)(seed=3)
    queries = getattr(QueryWorkload, scale)(seed=1)
    if trajectories is not None:
        queries = dataclasses.replace(queries, trajectories=trajectories)
    return data, queries


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments import (
        ALL_FIGURES,
        ExperimentContext,
        figure_to_csv,
        format_figure,
    )

    if args.figure and args.figure not in ALL_FIGURES:
        print(
            f"unknown figure {args.figure!r}; choose from "
            f"{', '.join(ALL_FIGURES)}",
            file=sys.stderr,
        )
        return 2
    data, queries = _configs(args.scale, args.trajectories)
    wanted = [args.figure] if args.figure else list(ALL_FIGURES)
    need_native = any(f in wanted for f in ("fig06", "fig07", "fig08", "fig09"))
    need_dual = any(f in wanted for f in ("fig10", "fig11", "fig12", "fig13"))
    print(
        f"building {args.scale} context "
        f"(~{data.expected_segments} segments) ...",
        flush=True,
    )
    t0 = time.time()
    ctx = ExperimentContext(
        data, queries, build_native=need_native, build_dual=need_dual
    )
    print(f"context ready in {time.time() - t0:.1f}s\n", flush=True)
    chunks: List[str] = []
    for fig_id in wanted:
        t0 = time.time()
        result = ALL_FIGURES[fig_id](ctx)
        table = format_figure(result)
        chunks.append(table)
        print(table)
        print(f"[{fig_id} computed in {time.time() - t0:.1f}s]\n", flush=True)
        if args.csv:
            csv_path = f"{args.csv}{fig_id}.csv"
            with open(csv_path, "w") as f:
                f.write(figure_to_csv(result))
    if args.output:
        with open(args.output, "w") as f:
            f.write("\n\n".join(chunks) + "\n")
        print(f"wrote {args.output}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.experiments import ExperimentContext, format_tree_summary

    data, queries = _configs(args.scale)
    print(f"building {args.scale} indexes ...", flush=True)
    ctx = ExperimentContext(data, queries)
    assert ctx.native is not None and ctx.dual is not None
    print(format_tree_summary(ctx.native.tree, "native-space index"))
    print(format_tree_summary(ctx.dual.tree, "dual-time index"))
    print(
        "paper (Sect. 5): 502,504 segments, height 3, fanout 145/127, "
        "page 4 KB, fill 0.5"
    )
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.core.session import DynamicQuerySession
    from repro.index.dualtime import DualTimeIndex
    from repro.index.nsi import NativeSpaceIndex
    from repro.workload.config import WorkloadConfig
    from repro.workload.objects import generate_motion_segments

    config = WorkloadConfig.tiny(seed=args.seed)
    segments = list(generate_motion_segments(config))
    native = NativeSpaceIndex(dims=2)
    native.bulk_load(segments)
    dual = DualTimeIndex(dims=2)
    dual.bulk_load(segments)
    with DynamicQuerySession(native, dual, half_extents=(4.0, 4.0)) as session:
        t, x, y = 1.0, 30.0, 30.0
        for frame in range(40):
            if frame == 20:
                x, y = 70.0, 70.0  # teleport
            report = session.observe(t, (x, y))
            print(
                f"t={t:5.2f} mode={report.mode.value:<14} "
                f"new={len(report.new_items):3d} evicted={len(report.evicted_ids):3d} "
                f"visible={report.visible_count:3d}"
            )
            t += 0.1
            x += 0.4
        print(f"mode switches: {[(round(t, 2), m.value) for t, m in session.mode_switches]}")
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    if getattr(args, "data_dir", None):
        return _fsck_durable(args)
    from repro.index import DualTimeIndex, NativeSpaceIndex, fsck
    from repro.storage.disk import DiskManager
    from repro.storage.faults import FaultInjector
    from repro.workload.config import WorkloadConfig
    from repro.workload.objects import generate_motion_segments

    config = getattr(WorkloadConfig, args.scale)(seed=args.seed)
    disk = DiskManager()
    if args.index == "native":
        index = NativeSpaceIndex(dims=2, disk=disk)
    else:
        index = DualTimeIndex(dims=2, disk=disk)
    print(f"building {args.scale} {args.index} index ...", flush=True)
    index.bulk_load(generate_motion_segments(config))
    if args.corrupt is not None:
        if args.corrupt not in disk:
            print(f"page {args.corrupt} is not allocated", file=sys.stderr)
            return 2
        disk.set_faults(FaultInjector().script_corruption(args.corrupt))
        print(f"deliberately corrupted page {args.corrupt}")
    report = fsck(index.tree)
    print(report.summary())
    for violation in report.violations:
        print(f"  {violation}")
    if args.repair:
        from repro.index import repair as run_repair

        repair_report = run_repair(index.tree)
        print(repair_report.summary())
        for violation in repair_report.after.violations:
            print(f"  {violation}")
        return 0 if repair_report.ok else 1
    return 0 if report.ok else 1


def _reseed_plan(plan: str, seed: int) -> str:
    """The fault plan with its RNG seed replaced by ``seed``."""
    tokens = [
        t for t in plan.split(";") if t.strip() and not t.strip().startswith("seed=")
    ]
    return ";".join([f"seed={seed}"] + tokens)


def _chaos_run(engine: str, index_factory, trajectory, period, budget):
    """One engine run; returns (answer_keys, degraded, skipped_count).

    ``budget`` of ``None`` runs fault-free (the baseline); an int enables
    engine-level graceful degradation under the injected plan.
    """
    from repro.core.naive import NaiveEvaluator
    from repro.core.npdq import NPDQEngine
    from repro.core.pdq import PDQEngine

    index = index_factory()
    if engine == "pdq":
        with PDQEngine(
            index, trajectory, track_updates=False, fault_budget=budget
        ) as pdq:
            frames = pdq.run(period)
            degraded = pdq.degraded
            skipped = len(list(pdq.skipped_subtrees))
    elif engine == "npdq":
        npdq = NPDQEngine(index, fault_budget=budget)
        frames = [npdq.snapshot(q) for q in trajectory.frame_queries(period)]
        degraded = any(f.degraded for f in frames)
        skipped = sum(f.skipped_subtrees for f in frames)
    else:  # naive
        naive = NaiveEvaluator(index, fault_budget=budget)
        frames = naive.run(trajectory, period)
        degraded = any(f.degraded for f in frames)
        skipped = sum(f.skipped_subtrees for f in frames)
    keys = {item.key for frame in frames for item in frame.items}
    return index, keys, degraded, skipped


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.index import DualTimeIndex, NativeSpaceIndex
    from repro.storage.disk import DiskManager
    from repro.storage.faults import FaultInjector, RetryPolicy
    from repro.workload.config import QueryWorkload, WorkloadConfig
    from repro.workload.objects import generate_motion_segments
    from repro.workload.trajectories import generate_trajectories

    if args.retries < 1:
        print(
            "--retries must be >= 1 (total attempts per access)",
            file=sys.stderr,
        )
        return 2
    if args.budget < 0:
        print("--budget must be >= 0", file=sys.stderr)
        return 2
    if args.soak is not None and args.soak < 1:
        print("--soak must be >= 1", file=sys.stderr)
        return 2

    data = getattr(WorkloadConfig, args.scale)(seed=args.seed)
    queries = getattr(QueryWorkload, args.scale)(seed=args.seed)
    segments = list(generate_motion_segments(data))
    dual = args.engine == "npdq"

    def build(plan: Optional[str] = None):
        disk = DiskManager()
        cls = DualTimeIndex if dual else NativeSpaceIndex
        index = cls(dims=2, disk=disk)
        index.bulk_load(segments)
        if plan is not None:
            disk.retry = RetryPolicy(attempts=args.retries)
            disk.set_faults(FaultInjector.parse(plan))
        return index

    trajectory = generate_trajectories(
        data, queries, overlap_percent=90.0, window_side=8.0, count=1
    )[0]
    period = queries.snapshot_period

    try:
        FaultInjector.parse(args.plan)
    except Exception as exc:
        print(f"bad fault plan: {exc}", file=sys.stderr)
        return 2

    print(
        f"building {args.scale} {'dual' if dual else 'native'} index "
        f"({len(segments)} segments) ...",
        flush=True,
    )
    _, baseline_keys, _, _ = _chaos_run(
        args.engine, build, trajectory, period, None
    )
    print(f"engine            : {args.engine}")
    print(f"fault-free answer : {len(baseline_keys)} objects")

    def one(plan: str) -> int:
        index, keys, degraded, skipped = _chaos_run(
            args.engine, lambda: build(plan), trajectory, period, args.budget
        )
        stats = index.tree.disk.stats
        print(f"fault plan        : {plan}")
        print(
            f"injected          : {stats.read_faults} read faults, "
            f"{stats.write_faults} write faults, "
            f"{stats.corrupt_detected} corrupt reads"
        )
        print(
            f"retries           : {stats.retries} "
            f"(simulated backoff {stats.sim_latency:.2f})"
        )
        print(f"chaos answer      : {len(keys)} objects")
        print(f"degraded          : {degraded} ({skipped} subtree(s) skipped)")
        if not keys <= baseline_keys:
            print("FAIL: chaos answer is not a subset of the fault-free answer")
            return 2
        if degraded:
            print("OK: degraded answer is a well-flagged subset of the baseline")
        elif keys == baseline_keys:
            print("OK: retries absorbed every fault; answers are identical")
        else:
            print("FAIL: answer shrank without a degraded flag")
            return 2
        return 0

    if args.soak is None:
        return one(args.plan)

    failures = 0
    for soak_seed in range(args.soak):
        print(f"--- soak seed {soak_seed} ---")
        if one(_reseed_plan(args.plan, soak_seed)) != 0:
            failures += 1
    print(
        f"soak: {args.soak - failures}/{args.soak} seeds clean, "
        f"{failures} violation(s)"
    )
    return 0 if failures == 0 else 2


def _build_world(scenario: str, scale: str, seed: int):
    """Deterministic world for ``serve``: (segments, space_side, horizon, name)."""
    from repro.workload.config import WorkloadConfig
    from repro.workload.objects import generate_motion_segments
    from repro.workload.scenarios import battlefield_scenario, city_scenario

    if scenario == "synthetic":
        config = getattr(WorkloadConfig, scale)(seed=seed)
        segments = list(generate_motion_segments(config))
        return segments, config.space_side, config.horizon, f"synthetic/{scale}"
    maker = battlefield_scenario if scenario == "battlefield" else city_scenario
    world = maker(seed=seed)
    return world.segments, world.space_side, world.horizon.high, world.name


def _durable_store(
    data_dir: str, cfg: dict, through: Optional[int] = None, fresh: bool = False
):
    """Open every tree of a durable store, recovered through ``through``.

    ``through=None`` recovers up to the last tick *every* tree has a
    durable ``TICK`` record for (the group-commit cut that keeps the
    native and dual trees mutually consistent); an explicit ``-1``
    creates/opens the store without honouring any logged tick.
    ``fresh=True`` discards any existing page/WAL files first (see
    :func:`repro.storage.file.open_durable`).  Returns
    ``({name: (disk, log, index_or_None, replay_report)}, through)``.
    """
    import os

    from repro.index import DualTimeIndex, NativeSpaceIndex
    from repro.index.codec import (
        ChecksummedCodec,
        DualTimeNodeCodec,
        NativeNodeCodec,
    )
    from repro.storage.constants import PAGE_SIZE
    from repro.storage.file import open_durable
    from repro.storage.wal import wal_tail_info

    need_dual = cfg["kind"] in _DUAL_KINDS
    names = ["native"] + (["dual"] if need_dual else [])
    codecs = {
        "native": ChecksummedCodec(NativeNodeCodec(2)),
        "dual": ChecksummedCodec(DualTimeNodeCodec(2)),
    }
    if through is None:
        tails = [
            wal_tail_info(os.path.join(data_dir, f"{name}.wal"))
            for name in names
        ]
        through = min(
            (t.last_tick if t.last_tick is not None else -1) for t in tails
        )
    stores = {}
    for name in names:
        disk, log, report = open_durable(
            data_dir,
            name,
            codec=codecs[name],
            page_size=PAGE_SIZE,
            sync_on_commit=False,
            through_tick=through,
            fresh=fresh,
        )
        index = None
        if report.last_meta:
            cls = NativeSpaceIndex if name == "native" else DualTimeIndex
            index = cls(dims=2, disk=disk, restore_meta=dict(report.last_meta))
        stores[name] = (disk, log, index, report)
    return stores, through


def _durable_shard_stores(data_dir: str, cfg: dict, fresh: bool = False):
    """Open per-shard durable stores under ``data_dir/shard-<i>/``.

    The recovery cut is the minimum durable tick over *every* shard's
    *every* tree: a master tick only counts as served once all K shards
    committed it, so each shard's WAL replays to the same master
    boundary and the lockstep schedule restarts in sync.  Returns
    ``([stores_for_shard_0, ...], through)`` with each element shaped
    like :func:`_durable_store`'s result.
    """
    import os

    from repro.storage.wal import wal_tail_info

    shards = cfg.get("shards", 1)
    need_dual = cfg["kind"] in _DUAL_KINDS
    names = ["native"] + (["dual"] if need_dual else [])
    if fresh:
        through = -1
    else:
        tails = []
        for i in range(shards):
            for name in names:
                info = wal_tail_info(
                    os.path.join(data_dir, f"shard-{i}", f"{name}.wal")
                )
                tails.append(info.last_tick if info.last_tick is not None else -1)
        through = min(tails)
    shard_stores = []
    for i in range(shards):
        stores, _ = _durable_store(
            os.path.join(data_dir, f"shard-{i}"), cfg, through=through, fresh=fresh
        )
        shard_stores.append(stores)
    return shard_stores, through


def _truncate_answer_log(path: str, through: int) -> None:
    """Rewind an answer stream to tick ``through`` (atomic rewrite).

    Keeps only complete, well-formed lines — five tab-separated fields
    with a trailing newline and a numeric tick — whose tick is at most
    ``through``.  Anything else is by construction the fragment of a
    non-durable tick torn by a crash mid-append, and is dropped with
    that tick rather than parsed (a torn numeric prefix must not be
    kept, and a non-numeric one must not abort the resume).
    """
    import os

    if not os.path.exists(path):
        return
    kept = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.endswith("\n"):
                continue
            fields = line[:-1].split("\t")
            if len(fields) != 5:
                continue
            try:
                tick = int(fields[0])
            except ValueError:
                continue
            if tick <= through:
                kept.append(line)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.writelines(kept)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class _AnswerStream:
    """The tick-tagged answer log of a durable serve.

    One line per delivered result —
    ``tick<TAB>client<TAB>mode<TAB>degraded<TAB>key,key,...`` with the
    segment keys sorted — appended as ticks commit and fsynced by the
    durability hook's pre-commit callback, so a tick marked durable in
    the WAL always has its answers on disk.  On resume the file is first
    truncated to the recovered tick, discarding lines from ticks whose
    transactions the WAL replay discarded.
    """

    def __init__(self, path: str, through: Optional[int] = None):
        self.path = path
        if through is not None:
            _truncate_answer_log(path, through)
        self._fh = open(path, "a", encoding="utf-8")
        self.lines = 0

    def append(self, client_id: str, result) -> None:
        if result.mode == "knn":
            # Rank order is the answer; distances use repr so two
            # configurations must agree bit-for-bit to compare equal.
            keys = [
                f"{n.record.object_id}:{n.record.seq}@{n.distance!r}"
                for n in result.neighbors
            ]
        elif result.mode == "join":
            keys = sorted(
                f"{p.key[0][0]}:{p.key[0][1]}&{p.key[1][0]}:{p.key[1][1]}"
                for p in result.pairs
            )
        elif result.mode == "aggregate":
            keys = [f"{t!r}:{c}" for t, c in result.aggregate]
        else:
            keys = sorted(
                {
                    f"{item.record.object_id}:{item.record.seq}"
                    for item in result.items
                }
            )
        self._fh.write(
            f"{result.index}\t{client_id}\t{result.mode}\t"
            f"{int(result.degraded)}\t{','.join(keys)}\n"
        )
        self.lines += 1

    def flush(self) -> None:
        import os

        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        self._fh.close()


#: Client kinds a ``--kind`` value cycles through across the fleet.
_FLEET_KINDS = {
    "pdq": ["pdq"],
    "npdq": ["npdq"],
    "auto": ["auto"],
    "mixed": ["pdq", "npdq", "auto"],
    "knn": ["knn"],
    "join": ["join"],
    "aggregate": ["aggregate"],
    "zoo": ["pdq", "knn", "join", "aggregate"],
}

#: ``--kind`` values that need the dual-time index built.
_DUAL_KINDS = ("npdq", "auto", "mixed")


def _register_fleet(broker, fleet, cfg: dict):
    """Admit one client per fleet trajectory, cycling the kind list.

    Works against any broker tier (they share one registration
    surface).  Spec-expressible kinds go through the declarative front
    door so the planner runs and the summary gains its ``planner:``
    lines; auto sessions have no spec form (route refresh is a
    serving-policy knob, not a query property) and register by
    trajectory, which every tier accepts.
    """
    from repro.core.query import QuerySpec

    kinds = _FLEET_KINDS[cfg["kind"]]
    half_extents = (cfg["window"] / 2.0,) * 2
    specs = {
        "pdq": QuerySpec.range,
        "npdq": lambda t: QuerySpec.range(t, predictive=False),
        "knn": lambda t: QuerySpec.knn(t, cfg["knn_k"]),
        "join": lambda t: QuerySpec.join(t, cfg["join_delta"]),
        "aggregate": QuerySpec.aggregate,
    }
    for i, trajectory in enumerate(fleet):
        kind = kinds[i % len(kinds)]
        client_id = f"{kind}-{i}"
        if kind in specs:
            broker.register_query(client_id, specs[kind](trajectory))
        else:
            broker.register_auto(
                client_id, trajectory, half_extents=half_extents
            )


def _serve_cfg(args: argparse.Namespace) -> dict:
    """The ``serve`` flags as the dict a durable store pins in
    ``store.json`` (and every ``serve`` helper reads)."""
    return {
        "scenario": args.scenario,
        "scale": args.scale,
        "seed": args.seed,
        "clients": args.clients,
        "ticks": args.ticks,
        "kind": args.kind,
        "mode": args.mode,
        "shards": args.shards,
        "period": args.period,
        "window": args.window,
        "queue_depth": args.queue_depth,
        "shared_scan": not args.no_shared_scan,
        "promote_after": args.promote_after,
        "npdq_margin": args.npdq_margin,
        "churn": args.churn,
        "checkpoint_every": args.checkpoint_every,
        "knn_k": args.knn_k,
        "join_delta": args.join_delta,
        "route_refresh": args.route_refresh,
    }


def _serve_fleet(cfg: dict, space_side: float, horizon: float):
    """The observer fleet of a ``serve`` run and the clock that starts
    where its trajectories do."""
    from repro.server import SimulatedClock
    from repro.workload.config import WorkloadConfig
    from repro.workload.observers import observer_fleet

    duration = min(cfg["ticks"] * cfg["period"], horizon * 0.9)
    start = min(horizon * 0.1, horizon - duration)
    fleet = observer_fleet(
        WorkloadConfig(num_objects=1, space_side=space_side, horizon=horizon),
        cfg["clients"],
        mode=cfg["mode"],
        window_side=cfg["window"],
        duration=duration,
        start_time=start,
        seed=cfg["seed"],
    )
    return fleet, SimulatedClock(start=start, period=cfg["period"])


def _server_config(cfg: dict):
    """The :class:`~repro.server.ServerConfig` a ``serve`` run asks for.

    Keys are read by name, so whatever a retired option left in a pinned
    ``store.json`` is ignored and the store still resumes."""
    from repro.server import ServerConfig

    return ServerConfig(
        max_clients=max(cfg["clients"], 1),
        queue_depth=cfg["queue_depth"],
        shared_scan=cfg["shared_scan"],
        promote_after=cfg["promote_after"],
        npdq_predict_margin=cfg["npdq_margin"],
        join_delta=cfg["join_delta"],
        auto_route_refresh=cfg["route_refresh"],
    )


def _churn_batch(cfg: dict, tick_index: int):
    """The deterministic insert batch due at ``tick_index`` (maybe empty)."""
    import dataclasses
    import itertools

    from repro.workload.config import WorkloadConfig
    from repro.workload.objects import generate_motion_segments

    churn = cfg.get("churn", 0)
    if not churn:
        return []
    churn_cfg = WorkloadConfig(
        num_objects=churn,
        space_side=cfg["space_side"],
        horizon=cfg["horizon"],
        seed=cfg["seed"] + 7919 * (tick_index + 1),
    )
    batch = list(itertools.islice(generate_motion_segments(churn_cfg), churn))
    # Re-key so churn objects can never collide with the base population
    # (or with another tick's batch).
    return [
        dataclasses.replace(s, object_id=1_000_000 + tick_index * 1_000 + i)
        for i, s in enumerate(batch)
    ]


def _checkpoint_shard_trees(shard_stores, natives, duals) -> None:
    """Checkpoint every tree of every shard store (base-load durability)."""
    for i, stores in enumerate(shard_stores):
        for tree_name, (disk, _log, _index, _report) in stores.items():
            tree = natives[i].tree if tree_name == "native" else duals[i].tree
            disk.checkpoint(meta=tree.recovery_meta())


def _serve_durable(args: argparse.Namespace) -> int:
    import os

    from repro.index import DualTimeIndex, NativeSpaceIndex
    from repro.server import MultiplexBroker, QueryBroker, ShardPlan
    from repro.storage.file import (
        TickDurability,
        read_store_config,
        write_store_config,
    )

    if getattr(args, "workers", "inprocess") == "process":
        print(
            "--data-dir does not support --workers process; durable "
            "sharded serving runs in-process (drop --data-dir or "
            "--workers process)",
            file=sys.stderr,
        )
        return 2
    if getattr(args, "answer_log", None):
        print(
            "--answer-log conflicts with --data-dir (a durable store "
            "already writes answers.log)",
            file=sys.stderr,
        )
        return 2

    data_dir = args.data_dir
    pinned = read_store_config(data_dir)
    resume = pinned is not None
    if resume:
        cfg = pinned
        # Stores pinned before sharded durability existed carry no
        # "shards" key; they are single-shard by construction.
        cfg.setdefault("shards", 1)
        # Stores pinned before the query zoo existed carry none of the
        # zoo knobs; they served range fleets with the old defaults.
        cfg.setdefault("knn_k", 4)
        cfg.setdefault("join_delta", 4.0)
        cfg.setdefault("route_refresh", 0)
        print(
            f"resuming durable store {data_dir} "
            f"(pinned {cfg['scenario']}/{cfg['scale']}, seed {cfg['seed']}, "
            f"{cfg['clients']} {cfg['kind']} client(s), {cfg['ticks']} ticks, "
            f"{cfg['shards']} shard(s))",
            flush=True,
        )
    else:
        cfg = _serve_cfg(args)

    segments, space_side, horizon, name = _build_world(
        cfg["scenario"], cfg["scale"], cfg["seed"]
    )
    cfg.setdefault("space_side", space_side)
    cfg.setdefault("horizon", horizon)
    need_dual = cfg["kind"] in _DUAL_KINDS

    shards = cfg["shards"]
    # A store that was never pinned must start from empty files: page or
    # WAL leftovers mean a bulk load crashed before write_store_config,
    # and adopting their slots would leak orphans into the new store.
    if shards > 1:
        shard_stores, through = _durable_shard_stores(
            data_dir, cfg, fresh=not resume
        )
    else:
        stores, through = _durable_store(
            data_dir, cfg, through=None if resume else -1, fresh=not resume
        )
        shard_stores = [stores]
    if resume and through >= cfg["ticks"] - 1:
        print(f"store has already served all {cfg['ticks']} tick(s); nothing to do")
        for stores in shard_stores:
            for disk, log, _index, _report in stores.values():
                log.close()
                disk.close()
        return 0

    natives = []
    duals = []
    if resume:
        for i, stores in enumerate(shard_stores):
            where = os.path.join(data_dir, f"shard-{i}") if shards > 1 else data_dir
            for tree_name, (_disk, _log, index, _report) in stores.items():
                if index is None:
                    print(
                        f"{tree_name}: no recovery metadata in {where} "
                        "(store never checkpointed?)",
                        file=sys.stderr,
                    )
                    return 2
            natives.append(stores["native"][2])
            duals.append(stores["dual"][2] if "dual" in stores else None)
        print(
            f"recovered through tick {through} "
            f"({sum(len(n) for n in natives)} native segment(s))",
            flush=True,
        )
    else:
        print(
            f"building durable {name} world ({len(segments)} segments"
            f"{', both index flavours' if need_dual else ''}"
            f"{f', {shards} shards' if shards > 1 else ''}) ...",
            flush=True,
        )
        for stores in shard_stores:
            natives.append(NativeSpaceIndex(dims=2, disk=stores["native"][0]))
            duals.append(
                DualTimeIndex(dims=2, disk=stores["dual"][0])
                if need_dual
                else None
            )
        if shards == 1:
            natives[0].bulk_load(segments)
            if need_dual:
                duals[0].bulk_load(segments)
            # The base trees must be durable before the store is
            # announced resumable: checkpoint first, then pin.
            _checkpoint_shard_trees(shard_stores, natives, duals)
            write_store_config(data_dir, cfg)
        # shards > 1: loading needs the broker's router, so the
        # checkpoint-then-pin step happens right after broker.load below.

    fleet, clock = _serve_fleet(cfg, space_side, horizon)
    server_config = _server_config(cfg)
    if shards > 1:
        plan = ShardPlan.grid([0.0, 0.0], [space_side, space_side], shards)
        native_iter = iter(natives)
        dual_iter = iter(duals)
        broker = MultiplexBroker(
            plan,
            lambda: next(native_iter),
            (lambda: next(dual_iter)) if need_dual else None,
            clock=clock,
            config=server_config,
        )
        if not resume:
            broker.load(segments)
            _checkpoint_shard_trees(shard_stores, natives, duals)
            write_store_config(data_dir, cfg)
    else:
        broker = QueryBroker(
            natives[0], dual=duals[0], clock=clock, config=server_config
        )
    _register_fleet(broker, fleet, cfg)

    # Churn: a deterministic insert batch lands at the start of every
    # not-yet-durable tick.  Batches for recovered ticks are *not*
    # resubmitted — their transactions replayed from the WAL.
    for k in range(through + 1, cfg["ticks"]):
        batch = _churn_batch(cfg, k)
        if batch:
            broker.submit_inserts(
                batch, times=[clock.boundary(k)] * len(batch)
            )

    # On a fresh start ``through`` is -1, which empties any stale
    # answer log the same way the page/WAL files were reset above.
    answers = _AnswerStream(
        os.path.join(data_dir, "answers.log"), through=through
    )
    # One durability driver spans every shard's stores: the master tick
    # commits atomically across all K shards (the recovery cut is the
    # minimum durable tick over all of them, see _durable_shard_stores).
    triples = []
    for i, stores in enumerate(shard_stores):
        for tree_name, (disk, log, _index, _report) in stores.items():
            tree = natives[i].tree if tree_name == "native" else duals[i].tree
            triples.append((disk, log, tree.recovery_meta))
    hook = TickDurability(triples, checkpoint_every=cfg["checkpoint_every"])

    def flush_answers(_tick) -> None:
        for session in broker.sessions:
            for result in session.poll():
                answers.append(session.client_id, result)
        answers.flush()

    hook.pre_commit = flush_answers

    # Fast-forward: re-serve the recovered ticks against the restored
    # index with answers suppressed (they are already on disk) and
    # durability detached (nothing to re-commit).  Serving is read-only,
    # so this only rebuilds session state — reported-item sets, NPDQ
    # predictor history, auto-mode hand-off state — which the engines'
    # answer-invariance guarantees leaves the *subsequent* stream
    # identical to an uninterrupted run.
    if resume and through >= 0:
        print(f"fast-forwarding {through + 1} recovered tick(s) ...", flush=True)
        for _ in range(through + 1):
            broker.run_tick()
            for session in broker.sessions:
                session.poll()

    remaining = cfg["ticks"] - (through + 1)
    print(
        f"serving {cfg['clients']} {cfg['kind']} client(s) for {remaining} "
        f"tick(s) of {cfg['period']} t.u. "
        f"(durable, group commit, checkpoint every "
        f"{cfg['checkpoint_every'] or 'never'} tick(s)) ...",
        flush=True,
    )
    broker.durability = hook
    for _ in range(remaining):
        broker.run_tick()
    print(broker.summary())
    broker.quiesce()
    hook.close()
    answers.close()
    print(f"answer stream: {answers.path} ({answers.lines} line(s) appended)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.knn_k < 1:
        print("--knn-k must be >= 1", file=sys.stderr)
        return 2
    if args.join_delta < 0:
        print("--join-delta must be >= 0", file=sys.stderr)
        return 2
    if args.route_refresh < 0:
        print("--route-refresh must be >= 0", file=sys.stderr)
        return 2
    if getattr(args, "data_dir", None):
        return _serve_durable(args)
    from repro.index import DualTimeIndex, NativeSpaceIndex
    from repro.server import (
        MultiplexBroker,
        QueryBroker,
        RemoteMultiplexBroker,
    )

    if args.clients < 1 or args.ticks < 1:
        print("--clients and --ticks must be >= 1", file=sys.stderr)
        return 2
    if args.shards < 1:
        print("--shards must be >= 1", file=sys.stderr)
        return 2
    process_workers = args.workers == "process"
    kill_plan = {}
    for spec in args.kill_worker or []:
        shard_s, sep, tick_s = spec.partition("@")
        if not (sep and shard_s.isdigit() and tick_s.isdigit()):
            print(
                f"--kill-worker expects SHARD@TICK, got {spec!r}",
                file=sys.stderr,
            )
            return 2
        shard_i, tick_i = int(shard_s), int(tick_s)
        if not 0 <= shard_i < args.shards:
            print(
                f"--kill-worker shard {shard_i} out of range "
                f"(store has {args.shards} shard(s))",
                file=sys.stderr,
            )
            return 2
        kill_plan[tick_i] = shard_i
    if kill_plan and not process_workers:
        print("--kill-worker requires --workers process", file=sys.stderr)
        return 2

    segments, space_side, horizon, name = _build_world(
        args.scenario, args.scale, args.seed
    )
    need_dual = args.kind in _DUAL_KINDS
    print(
        f"building {name} world ({len(segments)} segments"
        f"{', both index flavours' if need_dual else ''}"
        f"{f', {args.shards} shards' if args.shards > 1 else ''}) ...",
        flush=True,
    )

    cfg = _serve_cfg(args)
    fleet, clock = _serve_fleet(cfg, space_side, horizon)
    server_config = _server_config(cfg)
    if process_workers or args.shards > 1:
        tier = RemoteMultiplexBroker if process_workers else MultiplexBroker
        broker = tier.over_segments(
            segments,
            shards=args.shards,
            dual=need_dual,
            clock=clock,
            config=server_config,
            bounds=([0.0, 0.0], [space_side, space_side]),
            **({"kill_plan": kill_plan} if process_workers else {}),
        )
    else:
        native = NativeSpaceIndex(dims=2)
        native.bulk_load(segments)
        dual = None
        if need_dual:
            dual = DualTimeIndex(dims=2)
            dual.bulk_load(segments)
        broker = QueryBroker(
            native, dual=dual, clock=clock, config=server_config
        )
    _register_fleet(broker, fleet, cfg)
    print(
        f"serving {args.clients} {args.kind} client(s) for {args.ticks} "
        f"tick(s) of {args.period} t.u. "
        f"(shared scan {'off' if args.no_shared_scan else 'on'}"
        f"{f', {args.shards} shards' if args.shards > 1 else ''}"
        f"{', process workers' if process_workers else ''}) ...",
        flush=True,
    )
    answers = None
    if getattr(args, "answer_log", None):
        answers = _AnswerStream(args.answer_log, through=-1)
    if answers is None:
        broker.run(args.ticks)
    else:
        for _ in range(args.ticks):
            broker.run_tick()
            for session in broker.sessions:
                for result in session.poll():
                    answers.append(session.client_id, result)
    print(broker.summary())
    broker.quiesce()
    if answers is not None:
        answers.flush()
        answers.close()
        print(
            f"answer stream: {answers.path} "
            f"({answers.lines} line(s) appended)"
        )
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.storage.file import (
        list_snapshots,
        read_store_config,
        verify_snapshot,
        write_snapshot,
    )

    if args.list:
        ids = list_snapshots(args.data_dir)
        if not ids:
            print("no snapshots")
        for sid in ids:
            manifest, problems = verify_snapshot(args.data_dir, sid)
            state = "ok" if manifest and not problems else "CORRUPT"
            tick = manifest.get("tick") if manifest else "?"
            print(f"{sid}\ttick={tick}\t{state}")
        return 0
    if args.verify:
        manifest, problems = verify_snapshot(args.data_dir, args.verify)
        if manifest is None or problems:
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print(
            f"snapshot {args.verify!r} ok: tick {manifest.get('tick')}, "
            f"{len(manifest.get('trees', {}))} tree(s), checksums verified"
        )
        return 0

    cfg = read_store_config(args.data_dir)
    if cfg is None:
        print(f"{args.data_dir} is not a durable store", file=sys.stderr)
        return 2
    if cfg.get("shards", 1) > 1:
        print(
            "snapshots of sharded stores are not supported yet "
            "(use the WAL: every committed tick is already recoverable)",
            file=sys.stderr,
        )
        return 2
    stores, through = _durable_store(args.data_dir, cfg)
    snapshot_id = args.id or (f"tick{through:06d}" if through >= 0 else "base")
    manifest = write_snapshot(
        args.data_dir,
        snapshot_id,
        [
            (name, disk, report.last_meta or {})
            for name, (disk, _log, _index, report) in stores.items()
        ],
        tick=through if through >= 0 else None,
    )
    for _disk, log, _index, _report in stores.values():
        log.close()
    for disk, _log, _index, _report in stores.values():
        disk.close()
    print(
        f"wrote snapshot {snapshot_id!r} @ tick "
        f"{manifest['tick'] if manifest['tick'] is not None else '(base)'}: "
        + ", ".join(
            f"{name} ({entry['live_pages']} live page(s), "
            f"{entry['raw_bytes']} B, crc {entry['raw_crc32']:08x})"
            for name, entry in sorted(manifest["trees"].items())
        )
    )
    return 0


def _cmd_restore(args: argparse.Namespace) -> int:
    import os

    from repro.errors import StorageError
    from repro.storage.file import read_store_config, restore_snapshot

    cfg = read_store_config(args.data_dir)
    if cfg is not None and cfg.get("shards", 1) > 1:
        print(
            "snapshots of sharded stores are not supported yet "
            "(use the WAL: every committed tick is already recoverable)",
            file=sys.stderr,
        )
        return 2
    try:
        manifest = restore_snapshot(args.data_dir, args.id)
    except StorageError as exc:
        print(f"restore failed: {exc}", file=sys.stderr)
        return 1
    tick = manifest.get("tick")
    through = tick if tick is not None else -1
    # The answer stream must rewind with the store, or a resumed
    # serve would append tick T+1 after lines from a later epoch.
    _truncate_answer_log(os.path.join(args.data_dir, "answers.log"), through)
    print(
        f"restored snapshot {args.id!r}: store rewound to tick "
        f"{tick if tick is not None else '(base)'}, "
        f"{len(manifest.get('trees', {}))} tree(s)"
    )
    return 0


def _fsck_durable(args: argparse.Namespace) -> int:
    import os

    from repro.index import fsck
    from repro.index import repair as run_repair
    from repro.storage.file import (
        list_snapshots,
        read_store_config,
        verify_snapshot,
    )

    cfg = read_store_config(args.data_dir)
    if cfg is None:
        print(f"{args.data_dir} is not a durable store", file=sys.stderr)
        return 2
    cfg.setdefault("shards", 1)
    # A sharded store recurses into its shard-<i>/ subdirectories; the
    # recovery cut is the global minimum so every shard is checked at
    # the same master-tick boundary a resumed serve would use.
    if cfg["shards"] > 1:
        shard_stores, through = _durable_shard_stores(args.data_dir, cfg)
        checks = [
            (f"shard-{i}/", os.path.join(args.data_dir, f"shard-{i}"), stores)
            for i, stores in enumerate(shard_stores)
        ]
    else:
        stores, through = _durable_store(args.data_dir, cfg)
        checks = [("", args.data_dir, stores)]
    rc = 0
    for prefix, store_dir, stores in checks:
        for name, (disk, _log, index, _report) in sorted(stores.items()):
            label = prefix + name
            if index is None:
                print(
                    f"{label}: no recovery metadata; cannot check",
                    file=sys.stderr,
                )
                rc = 1
                continue
            report = fsck(index.tree)
            print(f"{label}: {report.summary()}")
            for violation in report.violations:
                print(f"  {violation}")
            tree_ok = report.ok
            if args.repair and not report.ok:
                quarantined = disk.quarantine(
                    os.path.join(store_dir, "quarantine")
                )
                if quarantined:
                    print(
                        f"{label}: quarantined damaged slot(s) "
                        f"{', '.join(map(str, quarantined))} -> "
                        f"{os.path.join(store_dir, 'quarantine')}"
                    )
                repair_report = run_repair(index.tree)
                print(f"{label}: {repair_report.summary()}")
                disk.checkpoint(
                    meta=index.tree.recovery_meta(),
                    tick=through if through >= 0 else None,
                )
                # A clean repair clears *this* tree's failure, but must
                # not mask an earlier tree's unrepaired one.
                tree_ok = repair_report.ok
            if not tree_ok:
                rc = 1
    # Snapshot manifests + tick consistency against the WAL tail.
    for sid in list_snapshots(args.data_dir):
        manifest, problems = verify_snapshot(args.data_dir, sid)
        tick = manifest.get("tick") if manifest else None
        snap_tick = tick if tick is not None else -1
        relation = (
            "covered by the WAL tail"
            if snap_tick <= through
            else "AHEAD of the WAL tail (snapshot from a discarded epoch?)"
        )
        state = "ok" if manifest and not problems else "CORRUPT"
        print(
            f"snapshot {sid}: {state}, tick "
            f"{tick if tick is not None else '(base)'} — {relation} "
            f"(store tick {through if through >= 0 else '(base)'})"
        )
        for problem in problems:
            print(f"  {problem}")
            rc = 1
    for _prefix, _store_dir, stores in checks:
        for _disk, log, _index, _report in stores.values():
            log.close()
        for disk, _log, _index, _report in stores.values():
            disk.close()
    return rc


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.engine import ALL_RULES, DEFAULT_BASELINE, LintEngine
    from repro.analysis.graph import GRAPH_RULES
    from repro.errors import LintConfigError

    if args.rules:
        for rule in ALL_RULES:
            print(f"{rule.id}  {rule.title}")
        for rule in GRAPH_RULES:
            print(f"{rule.id}  {rule.title}  [--graph]")
        return 0

    engine = LintEngine(graph=args.graph)
    baseline_path = args.baseline or DEFAULT_BASELINE
    try:
        baseline = (
            {} if args.no_baseline else engine.load_baseline(baseline_path)
        )
        report = engine.run(args.paths, baseline)
    except LintConfigError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2

    if args.update_baseline:
        counts = engine.save_baseline(baseline_path, report)
        print(
            f"wrote {baseline_path}: {sum(counts.values())} tolerated "
            f"violation(s) across {len(counts)} site(s)"
        )
        return 0

    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render(show_baselined=args.show_baselined))
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI dispatch; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-dq",
        description=(
            "Reproduction of 'Dynamic Queries over Mobile Objects' "
            "(EDBT 2002)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figures", help="regenerate evaluation figures")
    p_fig.add_argument("--scale", choices=_SCALES, default="small")
    p_fig.add_argument("--figure", help="a single figure id, e.g. fig06")
    p_fig.add_argument(
        "--trajectories",
        type=int,
        help="override the number of query trajectories per grid point "
        "(the paper grid uses 1000, which is hours of pure-Python work)",
    )
    p_fig.add_argument("--output", help="also write the tables to a file")
    p_fig.add_argument(
        "--csv",
        help="also write the figures as CSV files <prefix><figNN>.csv",
    )
    p_fig.set_defaults(func=_cmd_figures)

    p_stats = sub.add_parser("stats", help="print index geometry")
    p_stats.add_argument("--scale", choices=_SCALES, default="small")
    p_stats.set_defaults(func=_cmd_stats)

    p_demo = sub.add_parser("demo", help="run a mode hand-off session demo")
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.set_defaults(func=_cmd_demo)

    p_fsck = sub.add_parser(
        "fsck", help="check every structural invariant of a built index"
    )
    p_fsck.add_argument("--scale", choices=_SCALES, default="tiny")
    p_fsck.add_argument("--seed", type=int, default=3)
    p_fsck.add_argument("--index", choices=("native", "dual"), default="native")
    p_fsck.add_argument(
        "--corrupt",
        type=int,
        metavar="PAGE",
        help="deliberately corrupt this page before checking",
    )
    p_fsck.add_argument(
        "--repair",
        action="store_true",
        help="fix mechanically repairable violations (orphans, loose "
        "MBRs, parent links, record count) and re-check; on a durable "
        "store additionally quarantine torn page slots",
    )
    p_fsck.add_argument(
        "--data-dir",
        help="check a durable on-disk store instead of building one: "
        "page slot CRCs, tree invariants, snapshot manifest checksums "
        "and WAL-tail/manifest tick consistency",
    )
    p_fsck.set_defaults(func=_cmd_fsck)

    p_chaos = sub.add_parser(
        "chaos", help="run a query engine under an injected fault plan"
    )
    p_chaos.add_argument("--scale", choices=_SCALES, default="tiny")
    p_chaos.add_argument("--seed", type=int, default=3)
    p_chaos.add_argument(
        "--engine",
        choices=("pdq", "npdq", "naive"),
        default="pdq",
        help="which query engine to run under faults",
    )
    p_chaos.add_argument(
        "--soak",
        type=int,
        metavar="SEEDS",
        help="sweep the fault plan across this many RNG seeds and "
        "aggregate violations into one exit code",
    )
    p_chaos.add_argument(
        "--plan",
        default="seed=7;read=0.05",
        help="fault plan, e.g. 'seed=7;read=0.05;corrupt@12' "
        "(see repro.storage.faults for the syntax)",
    )
    p_chaos.add_argument(
        "--retries",
        type=int,
        default=3,
        help="disk-level attempts per physical access (transient faults)",
    )
    p_chaos.add_argument(
        "--budget",
        type=int,
        default=2,
        help="engine-level re-enqueues per failing node before its "
        "subtree is skipped",
    )
    p_chaos.set_defaults(func=_cmd_chaos)

    p_serve = sub.add_parser(
        "serve",
        help="host N concurrent observers on the shared-execution broker",
    )
    p_serve.add_argument(
        "--scenario",
        choices=("synthetic", "battlefield", "city"),
        default="synthetic",
        help="world to serve over (synthetic uses --scale)",
    )
    p_serve.add_argument("--scale", choices=_SCALES, default="tiny")
    p_serve.add_argument("--seed", type=int, default=3)
    p_serve.add_argument("--clients", type=int, default=4)
    p_serve.add_argument("--ticks", type=int, default=50)
    p_serve.add_argument(
        "--kind",
        choices=(
            "pdq",
            "npdq",
            "auto",
            "mixed",
            "knn",
            "join",
            "aggregate",
            "zoo",
        ),
        default="pdq",
        help="client session kind (mixed cycles pdq/npdq/auto; zoo "
        "cycles pdq/knn/join/aggregate — the full query zoo)",
    )
    p_serve.add_argument(
        "--knn-k",
        type=int,
        default=4,
        help="neighbours per frame for --kind knn/zoo clients",
    )
    p_serve.add_argument(
        "--join-delta",
        type=float,
        default=4.0,
        help="distance threshold replicated for moving joins (join "
        "clients may ask for any delta up to this; shard routing "
        "inflates boundary replication by delta/2)",
    )
    p_serve.add_argument(
        "--route-refresh",
        type=int,
        default=0,
        help="re-anchor auto sessions only after the observer drifts "
        "this many windows from its last route, serving ghost frames "
        "meanwhile when the route provably sees nothing (0 disables; "
        "answers are identical either way)",
    )
    p_serve.add_argument(
        "--mode",
        choices=("identical", "clustered", "independent", "spread"),
        default="clustered",
        help="spatial overlap structure of the observer fleet",
    )
    p_serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition the spatial domain into this many grid shards, "
        "each with its own index pair, behind a multiplexed front-end "
        "(1 = the single unsharded broker; answers are identical)",
    )
    p_serve.add_argument(
        "--workers",
        choices=("inprocess", "process"),
        default="inprocess",
        help="where shards run: 'inprocess' hosts them in this process, "
        "'process' spawns one worker process per shard behind the async "
        "multiplex front-end (answers are identical either way)",
    )
    p_serve.add_argument(
        "--kill-worker",
        action="append",
        metavar="SHARD@TICK",
        help="chaos: SIGKILL the given shard's worker process just "
        "before the given tick (repeatable; requires --workers process; "
        "the worker is respawned and replayed, answers unchanged)",
    )
    p_serve.add_argument(
        "--answer-log",
        metavar="PATH",
        help="append every delivered result to this tick-tagged answer "
        "log (same format as a durable store's answers.log; for "
        "byte-for-byte comparing serving configurations)",
    )
    p_serve.add_argument("--period", type=float, default=0.1)
    p_serve.add_argument("--window", type=float, default=8.0)
    p_serve.add_argument("--queue-depth", type=int, default=64)
    p_serve.add_argument(
        "--no-shared-scan",
        action="store_true",
        help="disable the shared-scan scheduler (ablation baseline)",
    )
    p_serve.add_argument(
        "--promote-after",
        type=int,
        default=0,
        help="promote a shed client back to exact PDQ after its queue "
        "stays shallow this many consecutive strides (0 disables)",
    )
    p_serve.add_argument(
        "--npdq-margin",
        type=float,
        default=2.0,
        help="slack of NPDQ frontier prediction, in multiples of the "
        "largest observed inter-frame step (smaller batches fewer pages "
        "but mispredicts more; mispredicts only cost demand fetches)",
    )
    p_serve.add_argument(
        "--data-dir",
        help="serve from a durable file-backed store in this directory: "
        "group-commit redo WAL per tick, fsynced answer stream, "
        "kill-safe restart (re-run the same command to resume); with "
        "--shards K each shard persists under shard-<i>/ and the master "
        "tick commits across all of them",
    )
    p_serve.add_argument(
        "--churn",
        type=int,
        default=0,
        help="deterministic inserts per tick through the single-writer "
        "dispatcher (durable mode exercises the redo path with these)",
    )
    p_serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=8,
        help="flush dirty pages and truncate the WAL every N durable "
        "ticks (0 = only at shutdown)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_snap = sub.add_parser(
        "snapshot",
        help="write / verify / list point-in-time snapshots of a "
        "durable store",
    )
    p_snap.add_argument("--data-dir", required=True)
    p_snap.add_argument(
        "--id", help="snapshot id (default: tick<NNNNNN> of the store)"
    )
    p_snap.add_argument(
        "--list", action="store_true", help="list snapshots and exit"
    )
    p_snap.add_argument(
        "--verify",
        metavar="ID",
        help="verify an existing snapshot's checksums instead of writing",
    )
    p_snap.set_defaults(func=_cmd_snapshot)

    p_restore = sub.add_parser(
        "restore",
        help="rewind a durable store to a snapshot (page files, WALs "
        "and the answer stream)",
    )
    p_restore.add_argument("--data-dir", required=True)
    p_restore.add_argument("--id", required=True, help="snapshot id")
    p_restore.set_defaults(func=_cmd_restore)

    p_lint = sub.add_parser(
        "lint",
        help="run the repo-specific static analyzer (determinism, "
        "layering, crash-safety rules)",
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests", "benchmarks"],
        help="files or directories to lint (default: src tests benchmarks)",
    )
    p_lint.add_argument(
        "--baseline",
        default=None,
        help="baseline file of tolerated pre-existing violations "
        "(default: lint-baseline.json if it exists)",
    )
    p_lint.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline; report every violation as new",
    )
    p_lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from this run's findings (ratchet)",
    )
    p_lint.add_argument(
        "--show-baselined",
        action="store_true",
        help="also list violations tolerated by the baseline",
    )
    p_lint.add_argument(
        "--rules",
        action="store_true",
        help="list every rule id with its one-line summary and exit",
    )
    p_lint.add_argument(
        "--graph",
        action="store_true",
        help="also run the whole-program pass (transitive layering, "
        "effect reachability, protocol drift) over the import+call graph",
    )
    p_lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format; json includes the structured witness paths",
    )
    p_lint.set_defaults(func=_cmd_lint)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
