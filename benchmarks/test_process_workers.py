"""Out-of-process serving benchmark: spawned workers vs in-process mux.

A spread observer fleet is served twice at each shard count — once by
the in-process :class:`MultiplexBroker`, once by the spawned-worker
:class:`RemoteMultiplexBroker` — and the run asserts the two backends
are *structurally indistinguishable*: identical per-client answer
frames and identical physical page reads at every K.  What the process
boundary buys is wall-clock: K workers evaluate tick N on K
interpreters concurrently, so the barriered tick loop can beat one
GIL-bound process once per-shard work dominates the pipe overhead.

The committed ``BENCH_process_workers.json`` artifact carries the
structural counts (bit-for-bit reproducible) *and* the measured
ticks/sec.  The timing fields are wall-clock and therefore
non-deterministic — they are listed in the artifact's
``nondeterministic_fields`` key so a review diff on them is understood
as machine noise, not behaviour change.
"""

from __future__ import annotations

import time

import pytest

from conftest import _data_config
from _bench_common import emit, write_bench_artifact

from repro.server import (
    MultiplexBroker,
    RemoteMultiplexBroker,
    ServerConfig,
    SimulatedClock,
)
from repro.server.remote import protocol as proto
from repro.workload.objects import generate_motion_segments
from repro.workload.observers import observer_fleet, path_of

SHARD_COUNTS = (1, 4)
CLIENTS = 8
START, PERIOD, TICKS = 1.0, 0.1, 20
HALF = (4.0, 4.0)
PAGE_SIZE = 2048


@pytest.fixture(scope="module")
def segments():
    return list(generate_motion_segments(_data_config()))


@pytest.fixture(scope="module")
def fleet():
    return observer_fleet(
        _data_config(),
        CLIENTS,
        mode="spread",
        duration=TICKS * PERIOD + 0.5,
        start_time=START,
        seed=9,
    )


def register_fleet(broker, fleet, remote):
    for i, traj in enumerate(fleet):
        kind = ("pdq", "npdq", "auto")[i % 3]
        cid = f"c{i}"
        if kind == "pdq":
            broker.register("pdq", cid, trajectory=traj)
        elif kind == "npdq":
            broker.register("npdq", cid, trajectory=traj)
        elif remote:
            broker.register_auto(cid, traj, HALF)
        else:
            broker.register_auto(cid, path_of(traj), HALF)


def shard_reads(broker):
    """Total physical node reads across all shards, either backend."""
    if isinstance(broker, RemoteMultiplexBroker):
        async def _collect():
            out = []
            for handle in broker.workers:
                out.append(
                    await broker._request(handle, proto.MSG_METRICS, {})
                )
            return out

        return sum(int(m["physical_reads"]) for m in broker._run(_collect()))
    return sum(s.broker.metrics.physical_reads for s in broker.shards)


def run_backend(segments, fleet, shards, backend):
    kwargs = dict(
        shards=shards,
        clock=SimulatedClock(start=START, period=PERIOD),
        config=ServerConfig(queue_depth=TICKS + 1),
        page_size=PAGE_SIZE,
    )
    cls = RemoteMultiplexBroker if backend == "process" else MultiplexBroker
    broker = cls.over_segments(segments, **kwargs)
    try:
        register_fleet(broker, fleet, remote=backend == "process")
        frames = {}
        started = time.perf_counter()
        for _ in range(TICKS):
            broker.run_tick()
            for session in broker.sessions:
                for r in session.poll():
                    frames.setdefault(session.client_id, []).append(
                        (
                            r.index,
                            r.mode,
                            frozenset(i.key for i in r.items),
                            frozenset(i.key for i in r.prefetched),
                        )
                    )
        elapsed = time.perf_counter() - started
        reads = shard_reads(broker)
        broker.quiesce()
    finally:
        if backend == "process":
            broker.close()
    return frames, reads, elapsed


def test_process_workers_match_in_process_and_report_throughput(
    segments, fleet
):
    rows = []
    lines = [
        f"{'shards':>6} {'backend':>10} {'reads':>8} {'reads/tick':>10} "
        f"{'ticks/sec':>10}"
    ]
    for shards in SHARD_COUNTS:
        results = {}
        for backend in ("inprocess", "process"):
            frames, reads, elapsed = run_backend(
                segments, fleet, shards, backend
            )
            results[backend] = frames
            ticks_per_sec = TICKS / elapsed if elapsed > 0 else 0.0
            rows.append(
                {
                    "shards": shards,
                    "backend": backend,
                    "physical_reads": reads,
                    "reads_per_tick": round(reads / TICKS, 2),
                    "ticks_per_sec": round(ticks_per_sec, 2),
                }
            )
            lines.append(
                f"{shards:>6} {backend:>10} {reads:>8} "
                f"{reads / TICKS:>10.1f} {ticks_per_sec:>10.2f}"
            )
        # The headline: the process boundary is answer-invisible.
        assert results["process"] == results["inprocess"], (
            f"K={shards}: spawned workers diverged from the in-process "
            "front-end"
        )
    emit("\n".join(lines))

    # Same shard count, same routed state, same broker code: physical
    # reads must agree exactly between the two backends.
    by_key = {(r["shards"], r["backend"]): r for r in rows}
    for shards in SHARD_COUNTS:
        assert (
            by_key[(shards, "process")]["physical_reads"]
            == by_key[(shards, "inprocess")]["physical_reads"]
        )

    write_bench_artifact(
        "process_workers",
        {
            "clients": CLIENTS,
            "ticks": TICKS,
            "rows": rows,
            "nondeterministic_fields": ["ticks_per_sec"],
        },
    )
