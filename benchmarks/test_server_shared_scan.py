"""Shared-scan serving benchmark: N overlapping clients, sublinear I/O.

The broker's batch phase reads each distinct R-tree page at most once
per tick across all clients — priority-queue frontiers over the native
tree for PDQ observers, prediction walks over the dual-time tree for
the frames NPDQ observers submitted — so a fleet of fully-overlapping
clients should cost barely more physical I/O than a single one.  The
headline assertions: 64 identical PDQ clients cost **less than 2x** the
node reads of 1 client, and 16 identical NPDQ observers batched cost
**at most half** the reads of the same 16 unbatched.
"""

from __future__ import annotations

import pytest

from conftest import _data_config
from _bench_common import emit, write_bench_artifact

from repro.index.dualtime import DualTimeIndex
from repro.index.nsi import NativeSpaceIndex
from repro.server import (
    MultiplexBroker,
    QueryBroker,
    ServerConfig,
    SimulatedClock,
)
from repro.workload.objects import generate_motion_segments
from repro.workload.observers import observer_fleet

CLIENT_COUNTS = (1, 4, 16, 64)
SHARD_COUNTS = (1, 2, 4, 8)
START, PERIOD, TICKS = 1.0, 0.1, 30


@pytest.fixture(scope="module")
def segments():
    return list(generate_motion_segments(_data_config()))


@pytest.fixture(scope="module")
def fleet():
    """One identical-mode fleet at max size; runs slice it so every
    client count observes the exact same trajectory."""
    return observer_fleet(
        _data_config(),
        max(CLIENT_COUNTS),
        mode="identical",
        duration=TICKS * PERIOD + 0.5,
        start_time=START,
        seed=9,
    )


def serve_fleet(segments, fleet, n_clients, shared=True, kind="pdq"):
    """One broker run over n identical observers; returns (reads, metrics).

    ``kind`` picks the client mix: all-PDQ over the native tree, all-NPDQ
    over the dual-time tree, or an alternating mixed fleet over both.
    ``reads`` counts physical node reads on every disk the fleet touched.
    """
    index = NativeSpaceIndex(dims=2)
    index.bulk_load(segments)
    dual = None
    if kind != "pdq":
        dual = DualTimeIndex(dims=2)
        dual.bulk_load(segments)
    broker = QueryBroker(
        index,
        dual=dual,
        clock=SimulatedClock(start=START, period=PERIOD),
        config=ServerConfig(
            max_clients=max(CLIENT_COUNTS),
            queue_depth=TICKS + 1,
            shared_scan=shared,
        ),
    )
    for i, t in enumerate(fleet[:n_clients]):
        if kind == "npdq" or (kind == "mixed" and i % 2):
            broker.register_npdq(f"c{i}", t)
        else:
            broker.register_pdq(f"c{i}", t)
    broker.run(TICKS)
    reads = broker.metrics.physical_reads
    broker.quiesce()
    return reads, broker.metrics


def sweep(segments, fleet, kind):
    rows, reads_by_n, artifact_rows = [], {}, []
    for n in CLIENT_COUNTS:
        reads, metrics = serve_fleet(segments, fleet, n, kind=kind)
        reads_by_n[n] = reads
        # The walk descends for the frame that is evaluated: what it
        # enumerates is what is read (both 0 for a PDQ-only fleet).
        assert metrics.predicted_pages == metrics.actual_pages
        rows.append(
            f"{n:>8} {reads:>10} {metrics.logical_reads:>10} "
            f"{metrics.shared_hit_ratio:>8.2%} {metrics.predicted_pages:>10} "
            f"{metrics.mispredict_rate:>10.2%}"
        )
        artifact_rows.append(
            {
                "clients": n,
                "physical_reads": reads,
                "logical_reads": metrics.logical_reads,
                "shared_hit_ratio": round(metrics.shared_hit_ratio, 6),
                "predicted_pages": metrics.predicted_pages,
                "mispredict_rate": round(metrics.mispredict_rate, 6),
            }
        )
    emit(
        f"shared-scan serving ({kind}): N identical observers, "
        f"{TICKS} ticks of {PERIOD}\n"
        f"{'clients':>8} {'physical':>10} {'logical':>10} {'hit rate':>8} "
        f"{'predicted':>10} {'mispredict':>10}\n" + "\n".join(rows)
    )
    write_bench_artifact(
        f"shared_scan_{kind}",
        {"kind": kind, "ticks": TICKS, "period": PERIOD, "rows": artifact_rows},
    )
    return reads_by_n


def test_shared_scan_is_sublinear(segments, fleet):
    reads_by_n = sweep(segments, fleet, "pdq")
    # The issue's headline bar: 64 fully-overlapping clients under 2x
    # the physical node reads of a single client.
    assert reads_by_n[64] < 2 * reads_by_n[1]
    # And monotone sanity: more clients never read fewer pages.
    for smaller, larger in zip(CLIENT_COUNTS, CLIENT_COUNTS[1:]):
        assert reads_by_n[smaller] <= reads_by_n[larger]


def test_npdq_shared_scan_is_sublinear(segments, fleet):
    reads_by_n = sweep(segments, fleet, "npdq")
    # The prediction walk gives non-predictive clients the same batching
    # economics the PDQ frontier gives predictive ones.
    assert reads_by_n[64] < 2 * reads_by_n[1]


def test_mixed_fleet_shares_both_trees(segments, fleet):
    reads_by_n = sweep(segments, fleet, "mixed")
    # A mixed fleet batches over two trees, so its single-client-pair
    # cost is roughly one PDQ plus one NPDQ engine; scaling to 64
    # clients must still come nowhere near linear.
    assert reads_by_n[64] < 2 * reads_by_n[4]


def test_npdq_batched_halves_unbatched_reads(segments, fleet):
    # The PR's acceptance bar: 16 fully-overlapping NPDQ observers
    # served through the shared scan cost at most half the physical
    # reads of the same fleet unbatched.
    n = 16
    batched, metrics = serve_fleet(segments, fleet, n, kind="npdq")
    unbatched, _ = serve_fleet(segments, fleet, n, shared=False, kind="npdq")
    emit(
        f"{n} identical NPDQ observers: batched {batched} reads "
        f"vs unbatched {unbatched} reads "
        f"(mispredict rate {metrics.mispredict_rate:.2%})"
    )
    write_bench_artifact(
        "npdq_batched_vs_unbatched",
        {
            "clients": n,
            "ticks": TICKS,
            "batched_reads": batched,
            "unbatched_reads": unbatched,
            "mispredict_rate": round(metrics.mispredict_rate, 6),
        },
    )
    assert batched * 2 <= unbatched
    assert metrics.mispredicted_pages == 0


def test_shared_scan_beats_private_scans(segments, fleet):
    n = 16
    shared_reads, _ = serve_fleet(segments, fleet, n, shared=True)
    private_reads, _ = serve_fleet(segments, fleet, n, shared=False)
    emit(
        f"{n} identical observers: shared scan {shared_reads} reads "
        f"vs private scans {private_reads} reads"
    )
    assert shared_reads < private_reads


# -- sharded serving ----------------------------------------------------------

SPREAD_CLIENTS = 16


@pytest.fixture(scope="module")
def spread_fleet():
    """Observers seeded on a lattice across the space: disjoint coverage,
    the workload sharding is built for."""
    return observer_fleet(
        _data_config(),
        SPREAD_CLIENTS,
        mode="spread",
        duration=TICKS * PERIOD + 0.5,
        start_time=START,
        seed=9,
    )


def serve_spread(segments, fleet, shards):
    """One sharded run; returns (total reads, peak per-shard reads/tick).

    ``shards=1`` is the unsharded reference: the same front-end over a
    single shard owning the whole domain (answer-invariance makes it
    read-for-read identical to a plain :class:`QueryBroker`), so the
    peak comparison is apples to apples.
    """
    broker = MultiplexBroker.over_segments(
        segments,
        shards=shards,
        dual=False,
        clock=SimulatedClock(start=START, period=PERIOD),
        config=ServerConfig(
            max_clients=len(fleet), queue_depth=TICKS + 1
        ),
    )
    for i, t in enumerate(fleet):
        broker.register_pdq(f"c{i}", t)
    broker.run(TICKS)
    total = broker.metrics.physical_reads
    peak = max(
        max((t.physical_reads for t in shard.broker.metrics.tick_log), default=0)
        for shard in broker.shards
    )
    clients = max(len(shard.broker.sessions) for shard in broker.shards)
    broker.quiesce()
    return total, peak, clients


def test_sharding_caps_per_shard_load(segments, spread_fleet):
    # The PR's acceptance bar: splitting the domain 4 ways under a
    # spread-out fleet drops the hottest shard's per-tick physical reads
    # to at most half the unsharded broker's per-tick reads.
    rows, peak_by_k, artifact_rows = [], {}, []
    for k in SHARD_COUNTS:
        total, peak, clients = serve_spread(segments, spread_fleet, k)
        peak_by_k[k] = peak
        rows.append(
            f"{k:>8} {total:>10} {peak:>16} {clients:>16}"
        )
        artifact_rows.append(
            {
                "shards": k,
                "physical_reads": total,
                "peak_shard_reads_per_tick": peak,
                "busiest_shard_clients": clients,
            }
        )
    emit(
        f"sharded serving: {SPREAD_CLIENTS} spread observers, "
        f"{TICKS} ticks of {PERIOD}\n"
        f"{'shards':>8} {'physical':>10} {'peak shard/tick':>16} "
        f"{'busiest clients':>16}\n" + "\n".join(rows)
    )
    write_bench_artifact(
        "sharded_serving",
        {"clients": SPREAD_CLIENTS, "ticks": TICKS, "rows": artifact_rows},
    )
    assert peak_by_k[4] * 2 <= peak_by_k[1]
