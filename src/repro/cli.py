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
  broker over a scenario world and report per-tick serving metrics: one
  loop for every tier (``--shards``, ``--workers process``) and backend.
  ``--data-dir`` hands that loop indexes on the durable file backend:
  every tick group-commits through the redo WAL, the tick-tagged answer
  stream is fsynced to ``answers.log`` *before* the tick commits, and a
  killed process restarts exactly where it left off (re-run the command).
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
import contextlib
import os
import sys
import time
from typing import Any, List, NamedTuple, Optional, Tuple

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
    from repro.motion.segment import SegmentTable
    from repro.workload.config import WorkloadConfig
    from repro.workload.objects import generate_motion_segments

    config = WorkloadConfig.tiny(seed=args.seed)
    table = SegmentTable.of(generate_motion_segments(config))
    native = NativeSpaceIndex(dims=2)
    native.bulk_load(table)
    dual = DualTimeIndex(dims=2)
    dual.bulk_load(table)
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


def _fsck_tree(tree, repair: bool, label: str = "", on_disk=None) -> bool:
    """Check one tree, print what was found, repair on request; returns
    whether it ends without errors.

    ``on_disk`` is the store's handle of a file-backed tree.  Its repair
    runs only when the check failed (a clean store's bytes stay as they
    are), first moves torn page slots aside, and is checkpointed so it
    outlives the process.  A tree built in memory for this run is
    repaired whenever asked, and lists what the repair left behind.
    """
    from repro.index import fsck
    from repro.index import repair as run_repair

    prefix = f"{label}: " if label else ""
    report = fsck(tree)
    print(f"{prefix}{report.summary()}")
    for violation in report.violations:
        print(f"  {violation}")
    if not repair or (on_disk is not None and report.ok):
        return report.ok
    if on_disk is not None:
        aside = os.path.join(on_disk.directory, "quarantine")
        quarantined = on_disk.disk.quarantine(aside)
        if quarantined:
            print(
                f"{prefix}quarantined damaged slot(s) "
                f"{', '.join(map(str, quarantined))} -> {aside}"
            )
    repair_report = run_repair(tree)
    print(f"{prefix}{repair_report.summary()}")
    if on_disk is not None:
        on_disk.checkpoint()
    else:
        for violation in repair_report.after.violations:
            print(f"  {violation}")
    return repair_report.ok


def _cmd_fsck(args: argparse.Namespace) -> int:
    """Check a store's trees (``--data-dir``) or one built for the run."""
    from repro.index import DualTimeIndex, NativeSpaceIndex
    from repro.storage.disk import DiskManager
    from repro.storage.faults import FaultInjector
    from repro.storage.file import list_snapshots, verify_snapshot
    from repro.workload.config import WorkloadConfig
    from repro.workload.objects import generate_motion_segments

    if args.data_dir:
        store = _DurableStore(args.data_dir)
        if store.cfg is None:
            print(f"{args.data_dir} is not a durable store", file=sys.stderr)
            return 2
        # Every shard is checked at the cut a resumed serve would use.
        store.open()
        targets = [
            (t.label, t.index, t)
            for t in sorted(store.trees, key=lambda t: (t.shard, t.name))
        ]
    else:
        store = None
        config = getattr(WorkloadConfig, args.scale)(seed=args.seed)
        disk = DiskManager()
        index_cls = NativeSpaceIndex if args.index == "native" else DualTimeIndex
        index = index_cls(dims=2, disk=disk)
        print(f"building {args.scale} {args.index} index ...", flush=True)
        index.bulk_load(generate_motion_segments(config))
        if args.corrupt is not None:
            if args.corrupt not in disk:
                print(f"page {args.corrupt} is not allocated", file=sys.stderr)
                return 2
            disk.set_faults(FaultInjector().script_corruption(args.corrupt))
            print(f"deliberately corrupted page {args.corrupt}")
        targets = [("", index, None)]

    rc = 0
    for label, index, on_disk in targets:
        if index is None:
            print(f"{label}: no recovery metadata; cannot check", file=sys.stderr)
            rc = 1
        # One tree's clean repair must not mask another's failure.
        elif not _fsck_tree(index.tree, args.repair, label, on_disk):
            rc = 1
    if store is None:
        return rc
    # Snapshot manifests + tick consistency against the WAL tail.
    through = store.through
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
    store.close()
    return rc


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


#: Why ``snapshot``/``restore`` turn a sharded store away.
_NO_SHARDED_SNAPSHOTS = (
    "snapshots of sharded stores are not supported yet "
    "(use the WAL: every committed tick is already recoverable)"
)


class _StoreTree(NamedTuple):
    """One index tree of a durable store: where its files live, the open
    files, and the index over them (``None``: no recovery metadata)."""

    shard: int
    name: str  # "native" | "dual"
    directory: str
    label: str  # as fsck prints it: "native", "shard-1/dual"
    disk: Any
    log: Any
    meta: Optional[dict]
    index: Any
    tick: Optional[int]  # the store's recovery cut (None: no tick yet)

    def checkpoint(self) -> None:
        """Make the tree's pages and recovery metadata durable."""
        self.disk.checkpoint(
            meta=self.index.tree.recovery_meta(), tick=self.tick
        )


class _DurableStore:
    """A ``--data-dir`` directory behind one handle: the only code that
    knows its layout (``store.json`` and ``answers.log`` on top;
    ``<name>.pages``/``<name>.wal`` per tree beside them or, sharded,
    under ``shard-<i>/``), its page codecs and its recovery cut.  It
    lives here because the ``durable-storage-behind-cli`` contract keeps
    :mod:`repro.storage.file` out of every other layer.  Constructing it
    only reads ``store.json``; :meth:`open` opens the tree files."""

    def __init__(self, data_dir: str):
        from repro.storage.file import read_store_config

        self.data_dir = data_dir
        pinned = read_store_config(data_dir)
        #: What the store pinned, keys it predates back-filled with their
        #: defaults; ``None`` when the directory is not a store (yet).
        self.cfg = None if pinned is None else _with_defaults(pinned)
        self.answers_path = os.path.join(data_dir, "answers.log")
        self.trees: List[_StoreTree] = []
        self.through = -1

    def open(self, cfg: Optional[dict] = None, fresh: bool = False) -> None:
        """Open every tree of every shard, all recovered to one cut.

        The cut, ``self.through``, is the last tick *every* tree of
        *every* shard holds a durable ``TICK`` record for (−1: none): a
        master tick only counts as served once all of them committed it,
        so the native/dual trees and the lockstep shard schedule restart
        consistent.  ``cfg`` configures a store that was never pinned,
        for which ``fresh=True``: files found there are a bulk load that
        crashed before the pin and are discarded, not adopted (see
        :func:`repro.storage.file.open_durable`); the trees start empty.
        """
        from repro.index import DualTimeIndex, NativeSpaceIndex
        from repro.index.codec import (
            ChecksummedCodec,
            DualTimeNodeCodec,
            NativeNodeCodec,
        )
        from repro.storage.constants import PAGE_SIZE
        from repro.storage.file import open_durable
        from repro.storage.wal import wal_tail_info

        self.cfg = cfg = cfg or self.cfg
        flavours = [("native", NativeSpaceIndex, NativeNodeCodec)]
        if cfg["kind"] in _DUAL_KINDS:
            flavours.append(("dual", DualTimeIndex, DualTimeNodeCodec))
        places = [(0, self.data_dir, "")]
        if cfg["shards"] > 1:
            places = [
                (i, os.path.join(self.data_dir, f"shard-{i}"), f"shard-{i}/")
                for i in range(cfg["shards"])
            ]
        if not fresh:
            tails = [
                wal_tail_info(os.path.join(directory, f"{name}.wal")).last_tick
                for _, directory, _ in places
                for name, _, _ in flavours
            ]
            self.through = min(-1 if t is None else t for t in tails)
        for shard, directory, prefix in places:
            for name, index_cls, codec_cls in flavours:
                disk, log, report = open_durable(
                    directory,
                    name,
                    codec=ChecksummedCodec(codec_cls(2)),
                    page_size=PAGE_SIZE,
                    sync_on_commit=False,
                    through_tick=self.through,
                    fresh=fresh,
                )
                meta = report.last_meta
                index = None
                if fresh:
                    index = index_cls(dims=2, disk=disk)
                elif meta:
                    index = index_cls(dims=2, disk=disk, restore_meta=dict(meta))
                tick = self.through if self.through >= 0 else None
                self.trees.append(
                    _StoreTree(
                        shard, name, directory, prefix + name,
                        disk, log, meta, index, tick,
                    )
                )

    def indexes(self, name: str) -> list:
        """The ``name`` index of every shard, in shard order."""
        return [t.index for t in self.trees if t.name == name]

    def pin(self) -> None:
        """Announce a freshly loaded store resumable.  The base trees
        must be durable first: checkpoint, then write ``store.json``."""
        from repro.storage.file import write_store_config

        for tree in self.trees:
            tree.checkpoint()
        write_store_config(self.data_dir, self.cfg)

    def durability(self, pre_commit):
        """The group-commit driver of a broker serving this store: it
        spans every tree of every shard, so the master tick commits
        across all of them, after ``pre_commit``.  Its ``close()`` is
        the clean shutdown (final checkpoint, then the files)."""
        from repro.storage.file import TickDurability

        hook = TickDurability(
            [(t.disk, t.log, t.index.tree.recovery_meta) for t in self.trees],
            checkpoint_every=self.cfg["checkpoint_every"],
        )
        hook.pre_commit = pre_commit
        return hook

    def close(self) -> None:
        """Release every file handle (idempotent, and no checkpoint:
        what was committed is recoverable as it stands)."""
        for tree in self.trees:
            tree.log.close()
            tree.disk.close()


def _truncate_answer_log(path: str, through: int) -> None:
    """Rewind an answer stream to tick ``through`` (atomic rewrite).

    Keeps only complete, well-formed lines — five tab-separated fields
    with a trailing newline and a numeric tick — whose tick is at most
    ``through``.  Anything else is by construction the fragment of a
    non-durable tick torn by a crash mid-append, and is dropped with
    that tick rather than parsed (a torn numeric prefix must not be
    kept, and a non-numeric one must not abort the resume).
    """
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
    """The tick-tagged answer log of a serve run (a store's
    ``answers.log`` or ``--answer-log``).

    One line per delivered result —
    ``tick<TAB>client<TAB>mode<TAB>degraded<TAB>answer,answer,...`` —
    appended as clients read their queues.  A range-kind answer is
    ``oid:seq@low/high`` (the visibility in ``repr``), sorted by key
    then low, so two runs agree only if every visibility agrees bit for
    bit.  The
    file is first truncated to tick ``through``: on resume that discards
    lines from ticks whose transactions the WAL replay discarded, and
    ``-1`` starts the stream empty.
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
            keys = [
                f"{oid}:{seq}@{low!r}/{high!r}"
                for oid, seq, low, high in sorted(result.items.rows)
            ]
        self._fh.write(
            f"{result.index}\t{client_id}\t{result.mode}\t"
            f"{int(result.degraded)}\t{','.join(keys)}\n"
        )
        self.lines += 1

    def flush(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Sync what was appended and release the file (idempotent)."""
        if not self._fh.closed:
            self.flush()
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
    lines; auto sessions have no spec form and register by trajectory,
    which every tier accepts.
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


class _ServeOption(NamedTuple):
    """One ``serve`` flag, declared once: the argparse flags,
    :func:`_serve_cfg`, the back-fill of an older ``store.json``, the
    range checks and :func:`_server_config` are read off
    :data:`_SERVE_OPTIONS`.  ``key`` is what a durable store pins the
    value under in ``store.json`` (``None``: a per-run flag, never
    pinned), ``minimum`` the least value accepted, ``feeds`` the
    :class:`~repro.server.ServerConfig` field it sets."""

    flag: str
    key: Optional[str]
    default: Any = None
    help: Optional[str] = None
    choices: Optional[Tuple[str, ...]] = None
    minimum: Optional[int] = None
    feeds: Optional[str] = None
    action: Optional[str] = None
    metavar: Optional[str] = None


_SERVE_OPTIONS = (
    _ServeOption(
        "--scenario",
        "scenario",
        "synthetic",
        "world to serve over (synthetic uses --scale)",
        choices=("synthetic", "battlefield", "city"),
    ),
    _ServeOption("--scale", "scale", "tiny", choices=_SCALES),
    _ServeOption("--seed", "seed", 3),
    _ServeOption("--clients", "clients", 4, minimum=1, feeds="max_clients"),
    _ServeOption("--ticks", "ticks", 50, minimum=1),
    _ServeOption(
        "--kind",
        "kind",
        "pdq",
        "client session kind (mixed cycles pdq/npdq/auto; zoo "
        "cycles pdq/knn/join/aggregate — the full query zoo)",
        choices=tuple(_FLEET_KINDS),
    ),
    _ServeOption(
        "--knn-k",
        "knn_k",
        4,
        "neighbours per frame for --kind knn/zoo clients",
        minimum=1,
    ),
    _ServeOption(
        "--join-delta",
        "join_delta",
        4.0,
        "distance threshold replicated for moving joins (join "
        "clients may ask for any delta up to this; shard routing "
        "inflates boundary replication by delta/2)",
        minimum=0,
        feeds="join_delta",
    ),
    _ServeOption(
        "--mode",
        "mode",
        "clustered",
        "spatial overlap structure of the observer fleet",
        choices=("identical", "clustered", "independent", "spread"),
    ),
    _ServeOption(
        "--shards",
        "shards",
        1,
        "partition the spatial domain into this many grid shards, "
        "each with its own index pair, behind a multiplexed front-end "
        "(1 = the single unsharded broker; answers are identical)",
        minimum=1,
    ),
    _ServeOption(
        "--workers",
        None,
        help="where shards run: 'inprocess' (the default) hosts them in "
        "this process, 'process' spawns one worker process per shard "
        "behind the async multiplex front-end (answers are identical "
        "either way; refused with --data-dir)",
        choices=("inprocess", "process"),
    ),
    _ServeOption(
        "--kill-worker",
        None,
        help="chaos: SIGKILL the given shard's worker process just "
        "before the given tick (repeatable; requires --workers process; "
        "the worker is respawned and replayed, answers unchanged)",
        action="append",
        metavar="SHARD@TICK",
    ),
    _ServeOption(
        "--answer-log",
        None,
        help="append every delivered result to this tick-tagged answer "
        "log (same format as a durable store's answers.log; for "
        "byte-for-byte comparing serving configurations; refused with "
        "--data-dir, which writes its own)",
        metavar="PATH",
    ),
    _ServeOption("--period", "period", 0.1),
    _ServeOption("--window", "window", 8.0),
    _ServeOption("--queue-depth", "queue_depth", 64, minimum=1, feeds="queue_depth"),
    _ServeOption(
        "--no-shared-scan",
        "shared_scan",
        True,
        "disable the shared-scan scheduler (ablation baseline)",
        feeds="shared_scan",
        action="store_false",
    ),
    _ServeOption(
        "--promote-after",
        "promote_after",
        0,
        "promote a shed client back to exact PDQ after its queue "
        "stays shallow this many consecutive strides (0 disables)",
        minimum=0,
        feeds="promote_after",
    ),
    _ServeOption(
        "--data-dir",
        None,
        help="serve from a durable file-backed store in this directory: "
        "group-commit redo WAL per tick, fsynced answer stream, "
        "kill-safe restart (re-run the same command to resume); with "
        "--shards K each shard persists under shard-<i>/ and the master "
        "tick commits across all of them",
    ),
    _ServeOption(
        "--churn",
        "churn",
        0,
        "deterministic inserts per tick through the single-writer "
        "dispatcher (with --data-dir they exercise the redo path)",
        minimum=0,
    ),
    _ServeOption(
        "--checkpoint-every",
        "checkpoint_every",
        8,
        "flush dirty pages and truncate the WAL every N durable "
        "ticks (default 8; 0 = only at shutdown; requires --data-dir)",
        minimum=0,
    ),
)


def _with_defaults(cfg: dict) -> dict:
    """``cfg`` with every pinned option it lacks at its default — a
    flag that was not given, or a key a store pinned before the option
    existed.  Keys no option owns any more (a retired option in an old
    ``store.json``) stay and are ignored."""
    for opt in _SERVE_OPTIONS:
        if opt.key is not None:
            cfg.setdefault(opt.key, opt.default)
    return cfg


def _serve_cfg(args: argparse.Namespace) -> dict:
    """The ``serve`` flags as the dict a durable store pins in
    ``store.json`` (and every ``serve`` helper reads)."""
    given = {
        opt.key: getattr(args, opt.key)
        for opt in _SERVE_OPTIONS
        if opt.key is not None
    }
    return _with_defaults({k: v for k, v in given.items() if v is not None})


def _serve_fleet(cfg: dict):
    """The observer fleet of a ``serve`` run and the clock that starts
    where its trajectories do."""
    from repro.server import SimulatedClock
    from repro.workload.config import WorkloadConfig
    from repro.workload.observers import observer_fleet

    space_side, horizon = cfg["space_side"], cfg["horizon"]
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
        **{opt.feeds: cfg[opt.key] for opt in _SERVE_OPTIONS if opt.feeds}
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


def _check_serve(args: argparse.Namespace, cfg: dict) -> dict:
    """Refuse what cannot be served, before anything is created.

    Raises :class:`~repro.errors.ServerError` with the one-line reason:
    an option below its minimum, or a flag that only means something in
    the other mode — never silently dropped.  Returns the parsed
    ``--kill-worker`` plan (tick -> shard), the one flag whose
    validation is a parse.
    """
    from repro.errors import ServerError

    for opt in _SERVE_OPTIONS:
        if opt.minimum is not None and cfg[opt.key] < opt.minimum:
            raise ServerError(f"{opt.flag} must be >= {opt.minimum}")
    process_workers = args.workers == "process"
    if args.data_dir:
        if process_workers:
            raise ServerError(
                "--data-dir does not support --workers process; durable "
                "sharded serving runs in-process (drop --data-dir or "
                "--workers process)"
            )
        if args.answer_log:
            raise ServerError(
                "--answer-log conflicts with --data-dir (a durable store "
                "already writes answers.log)"
            )
    elif args.checkpoint_every is not None:
        raise ServerError(
            "--checkpoint-every requires --data-dir (only a durable "
            "store has checkpoints)"
        )
    kill_plan = {}
    for spec in args.kill_worker or []:
        shard_s, sep, tick_s = spec.partition("@")
        if not (sep and shard_s.isdigit() and tick_s.isdigit()):
            raise ServerError(f"--kill-worker expects SHARD@TICK, got {spec!r}")
        if not int(shard_s) < cfg["shards"]:
            raise ServerError(
                f"--kill-worker shard {shard_s} out of range "
                f"(store has {cfg['shards']} shard(s))"
            )
        kill_plan[int(tick_s)] = int(shard_s)
    if kill_plan and not process_workers:
        raise ServerError("--kill-worker requires --workers process")
    return kill_plan


def _cmd_serve(args: argparse.Namespace) -> int:
    from functools import partial

    from repro.errors import ServerError
    from repro.index import DualTimeIndex, NativeSpaceIndex
    from repro.motion.segment import SegmentTable
    from repro.server import (
        MultiplexBroker,
        QueryBroker,
        RemoteMultiplexBroker,
        ShardPlan,
    )

    # Durability is three values the one loop below is handed: the store
    # (or none), the tick it recovered through, and where answers go.
    store = _DurableStore(args.data_dir) if args.data_dir else None
    resume = store is not None and store.cfg is not None
    cfg = store.cfg if resume else _serve_cfg(args)
    try:
        kill_plan = _check_serve(args, cfg)
    except ServerError as exc:
        print(exc, file=sys.stderr)
        return 2
    process_workers = args.workers == "process"
    shards = cfg["shards"]
    shards_note = f", {shards} shards" if shards > 1 else ""
    need_dual = cfg["kind"] in _DUAL_KINDS

    with contextlib.ExitStack() as cleanup:
        through = -1
        if store is not None:
            if resume:
                print(
                    f"resuming durable store {store.data_dir} "
                    f"(pinned {cfg['scenario']}/{cfg['scale']}, "
                    f"seed {cfg['seed']}, {cfg['clients']} {cfg['kind']} "
                    f"client(s), {cfg['ticks']} ticks, {shards} shard(s))",
                    flush=True,
                )
            cleanup.callback(store.close)
            store.open(cfg, fresh=not resume)
            through = store.through
        if resume:
            if through >= cfg["ticks"] - 1:
                print(
                    f"store has already served all {cfg['ticks']} tick(s); "
                    "nothing to do"
                )
                return 0
            for tree in store.trees:
                if tree.index is None:
                    print(
                        f"{tree.name}: no recovery metadata in "
                        f"{tree.directory} (store never checkpointed?)",
                        file=sys.stderr,
                    )
                    return 2
            recovered = sum(len(index) for index in store.indexes("native"))
            print(
                f"recovered through tick {through} "
                f"({recovered} native segment(s))",
                flush=True,
            )

        segments, space_side, horizon, name = _build_world(
            cfg["scenario"], cfg["scale"], cfg["seed"]
        )
        cfg.setdefault("space_side", space_side)
        cfg.setdefault("horizon", horizon)
        if not resume:
            print(
                f"building {'durable ' if store is not None else ''}{name} "
                f"world ({len(segments)} segments"
                f"{', both index flavours' if need_dual else ''}"
                f"{shards_note}) ...",
                flush=True,
            )

        # The tier's broker, built once.  Each call of a factory hands
        # the next shard its index: the store's, or a fresh one in
        # memory (spawned workers build their own).
        if store is not None:
            native_of = iter(store.indexes("native")).__next__
            dual_of = iter(store.indexes("dual")).__next__
        else:
            native_of = partial(NativeSpaceIndex, dims=2)
            dual_of = partial(DualTimeIndex, dims=2)
        if not need_dual:
            dual_of = None
        fleet, clock = _serve_fleet(cfg)
        server_config = _server_config(cfg)
        if shards > 1 or process_workers:
            if process_workers:
                tier = partial(
                    RemoteMultiplexBroker, dual=need_dual, kill_plan=kill_plan
                )
            else:
                tier = partial(
                    MultiplexBroker, native_factory=native_of, dual_factory=dual_of
                )
            broker = tier(
                ShardPlan.grid([0.0, 0.0], [space_side, space_side], shards),
                clock=clock,
                config=server_config,
            )
            cleanup.callback(broker.close)
            load = broker.load
        else:
            native, dual = native_of(), dual_of() if dual_of else None
            broker = QueryBroker(
                native, dual=dual, clock=clock, config=server_config
            )

            def load(segments):
                # one conversion for both flavours, as a shard's load does
                table = SegmentTable.of(segments)
                for index in (native, dual):
                    if index is not None:
                        index.bulk_load(table)

        if not resume:
            load(segments)
            if store is not None:
                store.pin()
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

        # Fast-forward: re-serve the recovered ticks against the restored
        # index with answers suppressed (they are already on disk) and
        # durability detached (nothing to re-commit).  Serving is read-only,
        # so this only rebuilds session state — reported-item sets, NPDQ
        # suppression memory, auto-mode hand-off state — which the engines'
        # answer-invariance guarantees leaves the *subsequent* stream
        # identical to an uninterrupted run.
        if through >= 0:
            print(
                f"fast-forwarding {through + 1} recovered tick(s) ...",
                flush=True,
            )
            for _ in range(through + 1):
                broker.run_tick()
                for session in broker.sessions:
                    session.poll()

        # Where answers go: the store's answers.log (rewound to the
        # recovered tick; a fresh start's -1 empties a stale one, as the
        # page/WAL files were), --answer-log, or nowhere — then nobody
        # reads the queues, and a long run shows --queue-depth shedding.
        answers = None
        path = store.answers_path if store is not None else args.answer_log
        if path:
            answers = _AnswerStream(path, through=through)
            cleanup.callback(answers.close)

        def drain(_tick=None) -> None:
            # Under a store this runs before the tick's TICK records and
            # syncs: a tick marked durable always has its answers on disk.
            for session in broker.sessions:
                for result in session.poll():
                    answers.append(session.client_id, result)
            if store is not None:
                answers.flush()

        remaining = cfg["ticks"] - (through + 1)
        if store is not None:
            broker.durability = store.durability(pre_commit=drain)
            how = (
                "durable, group commit, checkpoint every "
                f"{cfg['checkpoint_every'] or 'never'} tick(s)"
            )
        else:
            how = (
                f"shared scan {'on' if cfg['shared_scan'] else 'off'}"
                f"{shards_note}{', process workers' if process_workers else ''}"
            )
        print(
            f"serving {cfg['clients']} {cfg['kind']} client(s) for "
            f"{remaining} tick(s) of {cfg['period']} t.u. ({how}) ...",
            flush=True,
        )
        for _ in range(remaining):
            broker.run_tick()
            if answers is not None and store is None:
                drain()
        print(broker.summary())
        broker.quiesce()
        if store is not None:
            broker.durability.close()
        if answers is not None:
            answers.close()
            print(
                f"answer stream: {answers.path} "
                f"({answers.lines} line(s) appended)"
            )
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.storage.file import (
        list_snapshots,
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

    store = _DurableStore(args.data_dir)
    if store.cfg is None:
        print(f"{args.data_dir} is not a durable store", file=sys.stderr)
        return 2
    if store.cfg["shards"] > 1:
        print(_NO_SHARDED_SNAPSHOTS, file=sys.stderr)
        return 2
    store.open()
    through = store.through
    snapshot_id = args.id or (f"tick{through:06d}" if through >= 0 else "base")
    manifest = write_snapshot(
        args.data_dir,
        snapshot_id,
        [(t.name, t.disk, t.meta or {}) for t in store.trees],
        tick=through if through >= 0 else None,
    )
    store.close()
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
    from repro.errors import StorageError
    from repro.storage.file import restore_snapshot

    store = _DurableStore(args.data_dir)
    if store.cfg is not None and store.cfg["shards"] > 1:
        print(_NO_SHARDED_SNAPSHOTS, file=sys.stderr)
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
    _truncate_answer_log(store.answers_path, through)
    print(
        f"restored snapshot {args.id!r}: store rewound to tick "
        f"{tick if tick is not None else '(base)'}, "
        f"{len(manifest.get('trees', {}))} tree(s)"
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.engine import CATALOGUE, DEFAULT_BASELINE, LintEngine
    from repro.errors import LintConfigError

    if args.rules:
        for doc in CATALOGUE:
            print(f"{doc.id}  {doc.title}")
        return 0

    engine = LintEngine()
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
    for opt in _SERVE_OPTIONS:
        spec = {
            name: value
            for name, value in opt._asdict().items()
            if name in ("help", "choices", "action", "metavar")
            and value is not None
        }
        if type(opt.default) in (int, float):
            spec["type"] = type(opt.default)
        # default=None keeps "not given" distinguishable from the
        # default, which _with_defaults applies.
        p_serve.add_argument(opt.flag, dest=opt.key, default=None, **spec)
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
