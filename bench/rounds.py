"""Driving one round closed-loop from a single process.

Ticks run back to back and every client is polled after every tick, so
nobody is shed.  A tick sample is ``run_tick()`` plus that polling.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from bench.calibrate import BURST_EVERY_S, burst, local_speeds, speed
from bench.trace import SETUP
from bench.workloads import RoundInputs, Server, Workload, build, register


@dataclass
class RoundResult:
    """Everything one round measured; ``frames`` is the answer stream."""

    setup_s: float = 0.0  # segment list -> every client registered, updates queued
    #: building the deployment, and the whole set-up, at nominal speed
    #: (``bench/calibrate.py``)
    build_nominal_s: float = 0.0
    setup_nominal_s: float = 0.0
    tick_s: List[float] = field(default_factory=list)
    #: slowdown of the sandbox against nominal around each tick, and over
    #: the whole tick phase
    tick_speed: List[float] = field(default_factory=list)
    speed: float = 1.0
    reads: List[int] = field(default_factory=list)
    frames: Dict[str, List] = field(default_factory=dict)
    drain_s: float = 0.0
    expired: int = 0
    worker_rss_kb: int = 0
    store_bytes: int = 0
    summary: Optional[object] = None  # the broker's ServerMetrics
    #: the program's own counters over the tick phase (see ``_counters``)
    counters: Dict[str, float] = field(default_factory=dict)


def _vm_hwm_kb(pid: int) -> int:
    """Peak resident set of a live process (Linux); 0 when unreadable."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def _counters(server: Server) -> Dict[str, float]:
    """Public counters of the layers below the front-end, summed over
    in-process shards.  Worker processes keep theirs out of reach: the
    process tier reports only ``rtt.<shard>`` (``ShardHealth``)."""
    out: Dict[str, float] = defaultdict(float)
    for broker in server.inner_brokers():
        for session in broker.sessions:
            cost = getattr(getattr(session, "engine", None), "cost", None)
            if cost is not None:
                out[f"{session.kind}.distance_computations"] += cost.distance_computations
                out[f"{session.kind}.segment_tests"] += cost.segment_tests
        pools = {
            id(index.tree.disk.buffer_pool): index.tree.disk.buffer_pool
            for index in (broker.native, broker.dual)
            if index is not None and index.tree.disk.buffer_pool is not None
        }
        out["evictions"] += sum(p.stats.evictions for p in pools.values())
    for _disk, log, _meta in server.stores:
        out["wal_records"] += log.appended_records
        out["wal_syncs"] += log.syncs
    for shard_id, health in server.broker.metrics.shard_health.items():
        out[f"rtt.{shard_id}"] = health.total_latency
    return out


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(path, name)) for name in os.listdir(path)
    )


def run_round(
    wl: Workload,
    config,
    segments: Sequence,
    inputs: RoundInputs,
    scratch: str,
    tracer=None,
) -> RoundResult:
    """Set up, serve ``wl.ticks`` ticks, drain; always tears down."""
    out = RoundResult()
    gc.collect()
    speed_before = speed(3)
    if tracer is not None:
        tracer.begin_root("setup", SETUP)
    started = time.perf_counter()
    server = build(wl, config, segments, scratch)
    try:
        build_s = time.perf_counter() - started
        speed_built = speed(3)
        registering = time.perf_counter()
        register(server, inputs.fleet)
        server.submit(inputs.ops)
        register_s = time.perf_counter() - registering
        if tracer is not None:
            tracer.end_root()
        out.setup_s = build_s + register_s
        out.build_nominal_s = build_s / ((speed_before + speed_built) / 2.0)
        out.setup_nominal_s = out.build_nominal_s + register_s / (
            (speed_built + speed(3)) / 2.0
        )
        # building the index leaves a full collection pending; let it run
        # here, not at a random moment of tick 0
        gc.collect()

        broker = server.broker
        sessions = broker.sessions
        frames = out.frames = {s.client_id: [] for s in sessions}
        before = _counters(server)
        bursts, bursts_before, since_burst = [burst()], [], 0.0
        for index in range(wl.ticks):
            bursts_before.append(len(bursts))
            if tracer is not None:
                tracer.begin_root("tick", index)
            tick_started = time.perf_counter()
            metrics = broker.run_tick()
            for session in sessions:
                frames[session.client_id].extend(session.poll())
            out.tick_s.append(time.perf_counter() - tick_started)
            if tracer is not None:
                tracer.end_root()
            out.reads.append(metrics.physical_reads)
            since_burst += out.tick_s[-1]
            if since_burst >= BURST_EVERY_S or index == wl.ticks - 1:
                bursts.append(burst())
                since_burst = 0.0
        out.tick_speed = local_speeds(bursts, bursts_before)
        out.speed = statistics.median(out.tick_speed)

        after = _counters(server)
        out.counters = {k: after[k] - before.get(k, 0) for k in after}
        out.worker_rss_kb = sum(_vm_hwm_kb(p) for p in server.worker_pids())
        out.summary = broker.metrics
        drain_started = time.perf_counter()
        out.expired = server.drain()
        out.drain_s = time.perf_counter() - drain_started
        if server.data_dir is not None:
            out.store_bytes = _dir_bytes(server.data_dir)
    finally:
        server.close()
    return out
