"""Durability-overhead benchmark: file backend vs simulated disk.

The file backend serves every page read out of the same in-memory cell
map the simulated :class:`~repro.storage.disk.DiskManager` uses — the
price of durability is paid on the *write* side: redo frames appended
per committed transaction, one group-commit ``fsync`` per tree per
tick, and a periodic checkpoint that rewrites dirty slots.  The
headline assertion is therefore that durable serving costs **zero extra
physical page reads per tick**, and the artifact records what it does
cost instead (log bytes, syncs, checkpoint flushes).
"""

from __future__ import annotations

import os
import tempfile

import pytest

from conftest import _data_config
from _bench_common import emit, write_bench_artifact

from repro.index.codec import ChecksummedCodec, NativeNodeCodec
from repro.index.nsi import NativeSpaceIndex
from repro.server import QueryBroker, ServerConfig, SimulatedClock
from repro.storage.constants import PAGE_SIZE
from repro.storage.file import TickDurability, open_durable
from repro.workload.config import WorkloadConfig
from repro.workload.objects import generate_motion_segments
from repro.workload.observers import observer_fleet

CLIENTS = 8
START, PERIOD, TICKS = 1.0, 0.1, 30
CHECKPOINT_EVERY = 8
CHURN = 4


@pytest.fixture(scope="module")
def segments():
    return list(generate_motion_segments(_data_config()))


@pytest.fixture(scope="module")
def fleet():
    return observer_fleet(
        _data_config(),
        CLIENTS,
        mode="identical",
        duration=TICKS * PERIOD + 0.5,
        start_time=START,
        seed=9,
    )


def _churn_batch(tick_index):
    cfg = _data_config()
    extra = WorkloadConfig(
        num_objects=CHURN,
        space_side=cfg.space_side,
        horizon=cfg.horizon,
        seed=cfg.seed + 7919 * (tick_index + 1),
    )
    batch = []
    for i, seg in enumerate(generate_motion_segments(extra)):
        if i >= CHURN:
            break
        batch.append(
            type(seg)(1_000_000 + tick_index * 1_000 + i, seg.seq, seg.segment)
        )
    return batch


def _serve(index, fleet, durability=None):
    clock = SimulatedClock(start=START, period=PERIOD)
    broker = QueryBroker(
        index,
        clock=clock,
        config=ServerConfig(max_clients=CLIENTS, queue_depth=TICKS + 1),
        durability=durability,
    )
    for i, t in enumerate(fleet):
        broker.register("pdq", f"c{i}", trajectory=t)
    for k in range(TICKS):
        batch = _churn_batch(k)
        broker.dispatcher.submit_inserts(
            batch, times=[clock.boundary(k)] * len(batch)
        )
    broker.run(TICKS)
    reads = broker.metrics.physical_reads
    broker.quiesce()
    return reads


def test_file_backend_adds_no_read_overhead(segments, fleet):
    simulated = NativeSpaceIndex(dims=2)
    simulated.bulk_load(segments)
    simulated_reads = _serve(simulated, fleet)

    with tempfile.TemporaryDirectory() as data_dir:
        disk, log, _ = open_durable(
            data_dir, "native",
            codec=ChecksummedCodec(NativeNodeCodec(2)),
            page_size=PAGE_SIZE,
            sync_on_commit=False,
        )
        durable = NativeSpaceIndex(dims=2, disk=disk)
        durable.bulk_load(segments)
        disk.checkpoint(meta=durable.tree.recovery_meta())
        hook = TickDurability(
            [(disk, log, durable.tree.recovery_meta)],
            checkpoint_every=CHECKPOINT_EVERY,
        )
        durable_reads = _serve(durable, fleet, durability=hook)
        wal_bytes = os.path.getsize(os.path.join(data_dir, "native.wal"))
        wal_syncs = log.syncs
        wal_records = log.appended_records
        checkpoints = disk.checkpoints
        hook.close()

    emit(
        f"durability overhead: {CLIENTS} observers, {TICKS} ticks, "
        f"churn {CHURN}/tick\n"
        f"  simulated disk reads: {simulated_reads}\n"
        f"  file backend reads:   {durable_reads}\n"
        f"  wal: {wal_records} records, {wal_syncs} fsync bursts, "
        f"{wal_bytes} B at exit; {checkpoints} checkpoints"
    )
    write_bench_artifact(
        "durability_overhead",
        {
            "clients": CLIENTS,
            "ticks": TICKS,
            "churn_per_tick": CHURN,
            "checkpoint_every": CHECKPOINT_EVERY,
            "simulated_reads": simulated_reads,
            "file_backend_reads": durable_reads,
            "reads_per_tick": round(durable_reads / TICKS, 2),
            "wal_records": wal_records,
            "wal_syncs": wal_syncs,
            "checkpoints": checkpoints,
        },
    )
    # Same tree geometry, same scan, same buffer pool: durability must
    # never show up on the read side of the ledger.
    assert durable_reads == simulated_reads
    # And the group-commit discipline holds: roughly one fsync burst per
    # tick (plus recovery/checkpoint resets), not one per transaction.
    assert wal_syncs <= TICKS + CHECKPOINT_EVERY + 2
