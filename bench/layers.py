"""Per-layer metrics, measured from outside.

Two sources feed the names listed under ``per_layer`` in
``BENCHMARK.json``:

* :func:`micro` — short timings of the layers' public functions on an
  index built from the workload's own segments (geometry on one
  256-entry page, as ``results/BENCH_geometry_kernels.json`` does);
* :func:`derive` — arithmetic over a traced round's span totals
  (``bench/trace.py``) and the program's own public counters.

Worker processes are out of reach from here, so on ``spread_proc2`` the
layers below the front-end read 0; read them off ``spread_mux2``, which
serves byte-identical inputs in one interpreter.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Sequence

from bench.rounds import RoundResult
from bench.trace import SETUP, Tracer
from bench.workloads import PERIOD, START, Workload
from repro.core.joins import snapshot_distance_join
from repro.geometry import kernels
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.geometry.trapezoid import (
    MovingWindow,
    moving_window_box_overlap,
    moving_window_segment_overlap,
)
from repro.index import DualTimeIndex, NativeSpaceIndex
from repro.index.codec import NativeNodeCodec
from repro.index.pagearrays import PageArrays
from repro.server.shard import ShardPlan, ShardRouter

PAGE_ENTRIES = 256
#: micro-timings build their own index over at most this many segments
MICRO_SEGMENTS = 20_000
JOIN_SEGMENTS = 4_000
JOIN_DELTA = 1.0
UPDATES = 40
REPEATS = 5


def _per_call_us(fn: Callable[[], object], calls_per_run: int) -> float:
    """Median over ``REPEATS`` runs of ``fn``, in microseconds per call."""
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times) / calls_per_run * 1e6


def _geometry(segments: Sequence) -> Dict[str, float]:
    page = list(segments[:PAGE_ENTRIES])
    n = len(page)
    segs = [r.segment for r in page]
    boxes = [r.bounding_box() for r in page]
    span = Interval(
        min(s.time.low for s in segs), max(s.time.high for s in segs)
    )
    window = MovingWindow(
        span,
        Box.from_bounds((10.0, 10.0), (60.0, 60.0)),
        Box.from_bounds((30.0, 30.0), (80.0, 80.0)),
    )
    query = Box([span, Interval(20.0, 70.0), Interval(20.0, 70.0)])
    out = {
        "geometry.box.intersect_us": _per_call_us(
            lambda: [b.intersect(query) for b in boxes], n
        ),
        "geometry.trapezoid.segment_overlap_us": _per_call_us(
            lambda: [moving_window_segment_overlap(window, s) for s in segs], n
        ),
        "geometry.trapezoid.box_overlap_us": _per_call_us(
            lambda: [moving_window_box_overlap(window, b) for b in boxes], n
        ),
        "geometry.kernels.segment_overlap_batch_us_per_entry": 0.0,
        "geometry.kernels.box_overlap_batch_us_per_entry": 0.0,
        "geometry.kernels.box_query_masks_us_per_entry": 0.0,
    }
    if kernels.available():
        seg_batch = kernels.SegmentBatch(
            [s.time.low for s in segs],
            [s.time.high for s in segs],
            [s.origin for s in segs],
            [s.velocity for s in segs],
        )
        box_batch = kernels.BoxBatch(
            [b.lows for b in boxes], [b.highs for b in boxes]
        )
        params = kernels.window_params(window)
        out["geometry.kernels.segment_overlap_batch_us_per_entry"] = _per_call_us(
            lambda: kernels.moving_window_segment_overlap_batch(params, seg_batch), n
        )
        out["geometry.kernels.box_overlap_batch_us_per_entry"] = _per_call_us(
            lambda: kernels.moving_window_box_overlap_batch(params, box_batch), n
        )
        out["geometry.kernels.box_query_masks_us_per_entry"] = _per_call_us(
            lambda: kernels.box_query_masks(box_batch, query, query), n
        )
    return out


def _timed(fn: Callable[[], object]) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _index(segments: Sequence) -> Dict[str, float]:
    """Bulk load, then single-entry updates, node loads and the codec on
    an in-memory index over the first ``MICRO_SEGMENTS`` segments."""
    sample = list(segments[: MICRO_SEGMENTS + UPDATES])
    base, fresh = sample[:-UPDATES], sample[-UPDATES:]
    native = NativeSpaceIndex(dims=2)
    dual = DualTimeIndex(dims=2)
    out = {
        "index.bulk.native_segments_per_s": len(base)
        / _timed(lambda: native.bulk_load(base)),
        "index.bulk.dual_segments_per_s": len(base)
        / _timed(lambda: dual.bulk_load(base)),
    }
    tree = native.tree
    out["index.rtree.insert_ms"] = (
        _timed(lambda: [native.insert(r) for r in fresh]) / UPDATES * 1e3
    )
    out["index.rtree.delete_ms"] = (
        _timed(
            lambda: [tree.delete(r.key, native._leaf_entry(r).box) for r in fresh]
        )
        / UPDATES
        * 1e3
    )
    leaf = tree.load_node(tree.root_id)
    while not leaf.is_leaf:
        leaf = tree.load_node(leaf.entries[0].child_id)
    codec = NativeNodeCodec(2)
    page = codec.encode(leaf)
    out["index.codec.encode_us"] = _per_call_us(
        lambda: [codec.encode(leaf) for _ in range(20)], 20
    )
    out["index.codec.decode_us"] = _per_call_us(
        lambda: [codec.decode(page) for _ in range(20)], 20
    )
    out["index.pagearrays.build_us"] = _per_call_us(
        lambda: [PageArrays(leaf) for _ in range(20)], 20
    )
    return out


def _self_join(segments: Sequence) -> float:
    """One whole-tree self join over a tick, as ``JoinSession`` runs it."""
    index = NativeSpaceIndex(dims=2)
    index.bulk_load(list(segments[:JOIN_SEGMENTS]))
    tick = Interval(START, START + PERIOD)
    return _timed(lambda: snapshot_distance_join(index, index, tick, JOIN_DELTA)) * 1e3


def micro(segments: Sequence) -> Dict[str, float]:
    """Outside-in micro-timings on the workload's own segments."""
    out = _geometry(segments)
    out.update(_index(segments))
    out["core.joins.self_join_ms"] = _self_join(segments)
    return out


def replication_factor(wl: Workload, config, segments: Sequence) -> float:
    """Stored copies per segment under the workload's shard plan."""
    if wl.shards == 1:
        return 1.0
    side = config.space_side
    router = ShardRouter(ShardPlan.grid([0.0, 0.0], [side, side], wl.shards))
    # the front-ends inflate routing boxes by the larger index uncertainty
    inflate = max(
        NativeSpaceIndex(dims=2).uncertainty, DualTimeIndex(dims=2).uncertainty
    )
    copies = sum(
        len(router.shards_for_segment(r, inflate=inflate)) for r in segments
    )
    return copies / len(segments)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(
    wl: Workload, segments: Sequence, traced: RoundResult, tracer: Tracer
) -> Dict[str, float]:
    """The trace- and counter-based per-layer metrics of one workload.

    Per-tick figures are over ticks ``1..N-1`` of the traced round
    (tick 0 is the cold first tick and is reported on its own).
    """
    ticks = wl.ticks - 1
    first = tracer.totals(0, 0)
    steady = tracer.totals(1, wl.ticks - 1)
    setup = tracer.totals(SETUP, SETUP)
    counters = traced.counters
    summary = traced.summary

    def busy_ms_per_tick(name: str) -> float:
        return steady[name]["busy_s"] / ticks * 1e3

    def busy_per_call(name: str, scale: float, table=steady) -> float:
        return _ratio(table[name]["busy_s"], table[name]["calls"]) * scale

    out: Dict[str, float] = {}
    # repro.index
    out["index.rtree.load_node_us"] = busy_per_call("index.rtree.load_node", 1e6)
    out["index.rtree.load_node_calls_per_tick"] = (
        steady["index.rtree.load_node"]["calls"] / ticks
    )
    out["index.dualtime.frontier_walk_ms_per_tick"] = busy_ms_per_tick(
        "index.dualtime.frontier_walk"
    )
    # repro.storage
    out["storage.disk.read_us"] = busy_per_call("storage.disk.read", 1e6)
    out["storage.buffer.hit_ratio"] = summary.shared_hit_ratio
    out["storage.buffer.evictions_per_tick"] = counters.get("evictions", 0) / wl.ticks
    out["storage.file.commit_ms_per_tick"] = busy_ms_per_tick(
        "storage.file.begin_tick"
    ) + busy_ms_per_tick("storage.file.commit_tick")
    out["storage.file.checkpoint_ms"] = busy_per_call("storage.file.checkpoint", 1e3)
    wal_bytes = first["storage.wal.sync"]["bytes"] + steady["storage.wal.sync"]["bytes"]
    updates = summary.updates_applied
    out["storage.wal.bytes_per_tick"] = wal_bytes / wl.ticks
    out["storage.wal.records_per_update"] = _ratio(
        counters.get("wal_records", 0), updates
    )
    out["storage.wal.syncs_per_tick"] = counters.get("wal_syncs", 0) / wl.ticks
    out["storage.file.store_bytes_per_segment"] = traced.store_bytes / len(segments)
    out["wal_bytes_per_update"] = _ratio(wal_bytes, updates)
    # repro.core
    for kind in ("pdq", "npdq"):
        for count in ("distance_computations", "segment_tests"):
            out[f"core.{kind}.{count}_per_tick"] = (
                counters.get(f"{kind}.{count}", 0) / wl.ticks
            )
    out["core.npdq.snapshot_ms"] = busy_per_call("core.npdq.snapshot", 1e3)
    out["core.pdq.seed_ms_per_client"] = busy_per_call("core.pdq.window", 1e3, first)
    out["core.knn.query_ms"] = busy_per_call("core.knn.query", 1e3)
    out["core.aggregate.serve_ms"] = busy_per_call(
        "server.session.aggregate.serve", 1e3
    )
    # repro.server
    out["server.broker.self_ms_per_tick"] = (
        steady["server.broker.run_tick"]["self_s"] / ticks * 1e3
    )
    out["server.scheduler.begin_tick_ms"] = busy_per_call(
        "server.scheduler.begin_tick", 1e3
    )
    out["server.scheduler.pin_resident_ms_per_tick"] = busy_ms_per_tick(
        "server.scheduler.pin_resident"
    )
    out["server.scheduler.batched_pages_per_tick"] = summary.batched_pages / wl.ticks
    out["server.scheduler.piggyback_share"] = _ratio(
        summary.piggybacked_reads, summary.piggybacked_reads + summary.batched_pages
    )
    out["server.scheduler.mispredict_share"] = summary.mispredict_rate
    for kind in ("pdq", "npdq", "auto", "knn", "aggregate"):
        out[f"server.session.{kind}.serve_us"] = busy_per_call(
            f"server.session.{kind}.serve", 1e6
        )
    out["server.session.frontier_demand_ms_per_tick"] = busy_ms_per_tick(
        "server.session.frontier_demand"
    )
    out["server.session.deliver_poll_us"] = (
        _ratio(
            steady["server.session.deliver"]["busy_s"]
            + steady["server.session.poll"]["busy_s"],
            steady["server.session.deliver"]["calls"],
        )
        * 1e6
    )
    applied = first["server.dispatcher.apply"]["busy_s"] + steady[
        "server.dispatcher.apply"
    ]["busy_s"]
    out["server.dispatcher.apply_ms_per_tick"] = applied / wl.ticks * 1e3
    out["server.dispatcher.us_per_update"] = _ratio(applied, updates) * 1e6
    out["server.planner.plan_us"] = busy_per_call("server.planner.plan", 1e6, setup)
    # repro.server.shard
    out["server.shard.merge_ms_per_tick"] = busy_ms_per_tick("server.shard.merge")
    out["server.shard.slowest_shard_share"] = _slowest_share(wl, tracer, counters)
    # repro.server.remote
    remote = wl.tier == "proc"
    rtt = [v for k, v in counters.items() if k.startswith("rtt.")]
    slowest = max(rtt, default=0.0)
    out["server.remote.roundtrip_ms_per_tick"] = slowest / wl.ticks * 1e3
    run_tick = first["server.remote.run_tick"]["busy_s"] + steady[
        "server.remote.run_tick"
    ]["busy_s"]
    merge = first["server.shard.merge"]["busy_s"] + steady["server.shard.merge"]["busy_s"]
    out["server.remote.frontend_self_ms_per_tick"] = (
        (run_tick - merge - slowest) / wl.ticks * 1e3 if remote else 0.0
    )
    pack, decode = steady["server.remote.protocol.pack"], steady[
        "server.remote.protocol.decode"
    ]
    out["server.remote.protocol.pack_us_per_frame"] = busy_per_call(
        "server.remote.protocol.pack", 1e6
    )
    out["server.remote.protocol.decode_us_per_frame"] = busy_per_call(
        "server.remote.protocol.decode", 1e6
    )
    out["server.remote.frames_per_tick"] = (pack["calls"] + decode["calls"]) / ticks
    out["server.remote.bytes_per_tick"] = (pack["bytes"] + decode["bytes"]) / ticks
    return out


def _slowest_share(wl: Workload, tracer: Tracer, counters: Dict[str, float]) -> float:
    """Share of the shards' summed tick time spent in the slowest one
    (1/K when balanced): from the shard brokers' spans in one
    interpreter, from ``ShardHealth`` round trips across processes."""
    if wl.tier == "mux":
        per_tick: List[List[float]] = tracer.children_of(
            "server.shard.run_tick", "server.broker.run_tick"
        )
        shares = [max(t) / sum(t) for t in per_tick if sum(t) > 0.0]
        return statistics.fmean(shares) if shares else 0.0
    rtt = [v for k, v in counters.items() if k.startswith("rtt.")]
    return _ratio(max(rtt, default=0.0), sum(rtt))
