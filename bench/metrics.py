"""The names, units and directions ``BENCHMARK.json`` lists.

``BENCHMARK.json`` is the contract the driver reads; this table is where
the benchmark's own code (and ``bench/README.md``) gets the same names,
plus what the contract has no key for: which end-to-end metric, on which
workload, each per-layer metric is expected to move.  ``test_smoke.py``
fails when the two drift apart.
"""

from __future__ import annotations

from typing import List, NamedTuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    definition: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric (and workload) it should move


END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25,
             "generated segment list -> all clients registered and updates "
             "queued; median over the run's rounds"),
    EndToEnd("ticks_per_s", "1/s", "higher", 0.2,
             "ticks 1..N-1 over their wall time; a tick is run_tick() plus "
             "polling every session; median over rounds"),
    EndToEnd("tick_p50_ms", "ms", "lower", 0.2,
             "median of the per-tick samples of every round"),
    EndToEnd("tick_p95_ms", "ms", "lower", 0.25,
             "95th percentile of the same samples (>= 200 of them)"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.05,
             "ru_maxrss of the driver plus the workers' VmHWM"),
]

_LOW, _HIGH = "lower", "higher"

PER_LAYER: List[PerLayer] = [
    # moved out of end_to_end: the contract wants every end-to-end metric
    # on every workload and never 0
    PerLayer("failed_share", "fraction", _LOW, "must stay 0 everywhere"),
    PerLayer("first_tick_ms", "ms", _LOW,
             "tick 0 (cold pool, queue seeding): the server-side 'first query'"),
    PerLayer("physical_reads_per_tick", "pages", _LOW,
             "the paper's I/O metric; exact for a seed"),
    PerLayer("drain_s", "s", _LOW, "shutdown cost on zoo_churn_durable"),
    PerLayer("wal_bytes_per_update", "bytes", _LOW, "zoo_churn_durable only; exact"),
    # repro.workload
    PerLayer("workload.objects.generate_s", "s", _LOW, "nothing (before setup_s starts)"),
    # repro.geometry (micro, one 256-entry page)
    PerLayer("geometry.box.intersect_us", "us", _LOW,
             "ticks_per_s, tick_p50_ms on npdq_mid"),
    PerLayer("geometry.trapezoid.segment_overlap_us", "us", _LOW,
             "ticks_per_s, first_tick_ms on pdq_paper"),
    PerLayer("geometry.trapezoid.box_overlap_us", "us", _LOW,
             "ticks_per_s, first_tick_ms on pdq_paper"),
    PerLayer("geometry.kernels.segment_overlap_batch_us_per_entry", "us", _LOW,
             "nothing while accel defaults to off"),
    PerLayer("geometry.kernels.box_overlap_batch_us_per_entry", "us", _LOW,
             "nothing while accel defaults to off"),
    PerLayer("geometry.kernels.box_query_masks_us_per_entry", "us", _LOW,
             "nothing while accel defaults to off; then ticks_per_s on npdq_mid"),
    # repro.index
    PerLayer("index.bulk.native_segments_per_s", "1/s", _HIGH, "setup_s everywhere"),
    PerLayer("index.bulk.dual_segments_per_s", "1/s", _HIGH,
             "setup_s where a dual index is built"),
    PerLayer("index.rtree.load_node_us", "us", _LOW, "ticks_per_s on npdq_mid"),
    PerLayer("index.rtree.load_node_calls_per_tick", "count", _LOW,
             "ticks_per_s on npdq_mid"),
    PerLayer("index.dualtime.frontier_walk_ms_per_tick", "ms", _LOW,
             "tick_p50_ms on npdq_mid"),
    PerLayer("index.rtree.insert_ms", "ms", _LOW, "ticks_per_s on zoo_churn_durable"),
    PerLayer("index.rtree.delete_ms", "ms", _LOW, "drain_s on zoo_churn_durable"),
    PerLayer("index.codec.decode_us", "us", _LOW,
             "ticks_per_s on zoo_churn_durable (misses)"),
    PerLayer("index.codec.encode_us", "us", _LOW, "setup_s on zoo_churn_durable"),
    PerLayer("index.pagearrays.build_us", "us", _LOW,
             "nothing while accel defaults to off"),
    # repro.storage
    PerLayer("storage.disk.read_us", "us", _LOW, "ticks_per_s on pdq_paper"),
    PerLayer("storage.buffer.hit_ratio", "fraction", _HIGH,
             "physical_reads_per_tick, ticks_per_s on pdq_paper"),
    PerLayer("storage.buffer.evictions_per_tick", "count", _LOW,
             "physical_reads_per_tick on pdq_paper"),
    PerLayer("storage.file.commit_ms_per_tick", "ms", _LOW,
             "ticks_per_s on zoo_churn_durable"),
    PerLayer("storage.file.checkpoint_ms", "ms", _LOW,
             "tick_p95_ms on zoo_churn_durable"),
    PerLayer("storage.wal.bytes_per_tick", "bytes", _LOW, "wal_bytes_per_update"),
    PerLayer("storage.wal.records_per_update", "count", _LOW, "wal_bytes_per_update"),
    PerLayer("storage.wal.syncs_per_tick", "count", _LOW,
             "ticks_per_s on zoo_churn_durable"),
    PerLayer("storage.file.store_bytes_per_segment", "bytes", _LOW, "space only"),
    # repro.core
    PerLayer("core.pdq.distance_computations_per_tick", "count", _LOW,
             "ticks_per_s on pdq_paper"),
    PerLayer("core.pdq.segment_tests_per_tick", "count", _LOW,
             "ticks_per_s on pdq_paper"),
    PerLayer("core.npdq.distance_computations_per_tick", "count", _LOW,
             "ticks_per_s on npdq_mid"),
    PerLayer("core.npdq.segment_tests_per_tick", "count", _LOW,
             "ticks_per_s on npdq_mid"),
    PerLayer("core.npdq.snapshot_ms", "ms", _LOW, "ticks_per_s on npdq_mid"),
    PerLayer("core.pdq.seed_ms_per_client", "ms", _LOW, "first_tick_ms on pdq_paper"),
    PerLayer("core.knn.query_ms", "ms", _LOW, "ticks_per_s on zoo_churn_durable"),
    PerLayer("core.aggregate.serve_ms", "ms", _LOW, "ticks_per_s on zoo_churn_durable"),
    PerLayer("core.joins.self_join_ms", "ms", _LOW, "nothing (no join client in any fleet)"),
    # repro.server
    PerLayer("server.broker.self_ms_per_tick", "ms", _LOW,
             "ticks_per_s, tick_p50_ms on pdq_paper; no move on npdq_mid"),
    PerLayer("server.scheduler.begin_tick_ms", "ms", _LOW,
             "ticks_per_s, tick_p50_ms on pdq_paper"),
    PerLayer("server.scheduler.pin_resident_ms_per_tick", "ms", _LOW,
             "ticks_per_s, tick_p50_ms on pdq_paper; no move on npdq_mid"),
    PerLayer("server.scheduler.batched_pages_per_tick", "pages", _LOW,
             "physical_reads_per_tick"),
    PerLayer("server.scheduler.piggyback_share", "fraction", _HIGH,
             "physical_reads_per_tick"),
    PerLayer("server.scheduler.mispredict_share", "fraction", _LOW,
             "physical_reads_per_tick on npdq_mid"),
    PerLayer("server.session.pdq.serve_us", "us", _LOW, "ticks_per_s on pdq_paper"),
    PerLayer("server.session.npdq.serve_us", "us", _LOW, "ticks_per_s on npdq_mid"),
    PerLayer("server.session.auto.serve_us", "us", _LOW, "ticks_per_s on spread_mux2"),
    PerLayer("server.session.knn.serve_us", "us", _LOW,
             "ticks_per_s on zoo_churn_durable"),
    PerLayer("server.session.aggregate.serve_us", "us", _LOW,
             "ticks_per_s on zoo_churn_durable"),
    PerLayer("server.session.frontier_demand_ms_per_tick", "ms", _LOW,
             "ticks_per_s on npdq_mid (the prediction walk runs inside it)"),
    PerLayer("server.session.deliver_poll_us", "us", _LOW, "ticks_per_s on pdq_paper"),
    PerLayer("server.dispatcher.apply_ms_per_tick", "ms", _LOW,
             "ticks_per_s, tick_p95_ms on zoo_churn_durable"),
    PerLayer("server.dispatcher.us_per_update", "us", _LOW,
             "ticks_per_s, tick_p95_ms on zoo_churn_durable"),
    PerLayer("server.planner.plan_us", "us", _LOW, "setup_s"),
    # repro.server.shard
    PerLayer("server.shard.route_load_s", "s", _LOW, "setup_s on spread_*"),
    PerLayer("server.shard.replication_factor", "ratio", _LOW,
             "setup_s, peak_rss_mb on spread_*"),
    PerLayer("server.shard.merge_ms_per_tick", "ms", _LOW, "ticks_per_s on spread_*"),
    PerLayer("server.shard.slowest_shard_share", "fraction", _LOW,
             "ticks_per_s on spread_proc2 (the barrier waits for the slowest)"),
    PerLayer("server.shard.k1_ticks_per_s", "1/s", _HIGH,
             "the unsharded baseline of spread_*"),
    PerLayer("server.shard.speedup_vs_k1", "ratio", _HIGH,
             "ticks_per_s on spread_* over the same fleet at K=1"),
    # repro.server.remote
    PerLayer("server.remote.load_s", "s", _LOW, "setup_s on spread_proc2"),
    PerLayer("server.remote.roundtrip_ms_per_tick", "ms", _LOW,
             "ticks_per_s, tick_p95_ms on spread_proc2"),
    PerLayer("server.remote.frontend_self_ms_per_tick", "ms", _LOW,
             "ticks_per_s on spread_proc2"),
    PerLayer("server.remote.protocol.pack_us_per_frame", "us", _LOW,
             "ticks_per_s on spread_proc2"),
    PerLayer("server.remote.protocol.decode_us_per_frame", "us", _LOW,
             "ticks_per_s on spread_proc2"),
    PerLayer("server.remote.frames_per_tick", "count", _LOW,
             "ticks_per_s on spread_proc2"),
    PerLayer("server.remote.bytes_per_tick", "bytes", _LOW,
             "ticks_per_s on spread_proc2"),
    # tracing
    PerLayer("trace.overhead_share", "fraction", _LOW,
             "1 - traced/untraced ticks_per_s; bounds what the spans can claim"),
]

#: Units of values that are measured times (or derived from them): they
#: are speed-normalised (``bench/calibrate.py``) and differ from run to
#: run.  Everything else is a count the program makes and repeats
#: exactly for a seed.
TIME_UNITS = {"s": 1.0, "ms": 1.0, "us": 1.0, "1/s": -1.0}
_TIMED_RATIOS = {
    "trace.overhead_share",
    "server.shard.slowest_shard_share",
    "server.shard.speedup_vs_k1",
}


def is_timing(metric) -> bool:
    """Does ``metric`` vary with the machine (as opposed to the seed)?"""
    return (
        metric.unit in TIME_UNITS
        or metric.unit == "MB"
        or metric.name in _TIMED_RATIOS
    )
