"""Writer crashes under a live multi-client broker.

The single-writer insert stream runs against a disk that fails writes —
scripted for the deterministic test, seeded-random for the soak.  Every
crashed insert is rolled back through the intent log (recovery writes
bypass the fault gates, so rollback always completes); the dispatcher
retries once and otherwise drops the update.  Afterwards:

* every client's answers are a subset of a fault-free run, missing at
  most the dropped updates (degraded-subset semantics);
* the index passes ``fsck`` with zero errors.
"""

import pytest

from repro.index.check import fsck
from repro.server import (
    QueryBroker,
    ServerConfig,
    SimulatedClock,
    UpdateOp,
)
from repro.storage.faults import FaultInjector

from _helpers import make_segment

START, PERIOD, TICKS = 1.0, 0.1, 20
N_CLIENTS = 3
N_INSERTS = 10


def insert_stream(trajectories):
    """Inserts parked inside the observers' windows, due at staggered ticks."""
    ops = []
    for i in range(N_INSERTS):
        due = START + (1 + i) * PERIOD
        trajectory = trajectories[i % len(trajectories)]
        center = trajectory.window_at(min(due + PERIOD, 3.9)).center
        seg = make_segment(9000 + i, 9, due, due + 2.0, center, (0.0, 0.0))
        ops.append(UpdateOp(due, "insert", seg))
    return ops


def run_chaos(build_native, trajectories, injector=None):
    """One broker run over the insert stream; returns per-client key sets."""
    index = build_native(intent_log=True)
    if injector is not None:
        index.tree.disk.set_faults(injector)
    broker = QueryBroker(
        index,
        clock=SimulatedClock(start=START, period=PERIOD),
        config=ServerConfig(queue_depth=100),
    )
    sessions = [
        broker.register("pdq", f"c{i}", trajectory=t)
        for i, t in enumerate(trajectories)
    ]
    ops = insert_stream(trajectories)
    for op in ops:
        broker.dispatcher.submit(op)
    broker.run(TICKS)
    answers = {
        s.client_id: {item.key for r in s.poll() for item in r.items}
        for s in sessions
    }
    broker.quiesce()
    index.tree.disk.set_faults(None)
    index.tree.recover()
    return index, broker, answers, ops


class TestScriptedWriterCrash:
    def test_crashes_recover_drops_degrade(self, build_native, fleet):
        trajectories = fleet(N_CLIENTS, mode="clustered")
        _, clean_broker, baseline, ops = run_chaos(build_native, trajectories)
        assert clean_broker.dispatcher.stats.inserts_applied == N_INSERTS

        # Write ops 1+2 kill both attempts of the first due insert (the
        # retry's first write is op 2); op 12 crashes a later insert
        # once, which then recovers and retries successfully.
        injector = (
            FaultInjector()
            .script_write_op(1)
            .script_write_op(2)
            .script_write_op(12)
        )
        index, broker, answers, _ = run_chaos(
            build_native, trajectories, injector
        )
        stats = broker.dispatcher.stats
        assert stats.updates_dropped == 1
        assert stats.dropped_keys == [ops[0].segment.key]
        assert stats.inserts_applied == N_INSERTS - 1
        assert stats.crashes_recovered >= 2

        # Degraded-subset: nothing beyond the dropped update is missing,
        # and nothing appears that the fault-free run did not report.
        for cid, keys in answers.items():
            assert keys <= baseline[cid]
            assert baseline[cid] - keys <= {ops[0].segment.key}

        report = fsck(index.tree)
        assert report.errors == []


class TestRandomWriterSoak:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_write_faults_never_corrupt(
        self, build_native, fleet, seed
    ):
        trajectories = fleet(N_CLIENTS, mode="independent", seed=seed + 20)
        _, _, baseline, ops = run_chaos(build_native, trajectories)
        index, broker, answers, _ = run_chaos(
            build_native,
            trajectories,
            FaultInjector(write_error_rate=0.4, seed=seed),
        )
        stats = broker.dispatcher.stats
        assert stats.inserts_applied + stats.updates_dropped == N_INSERTS
        dropped = set(stats.dropped_keys)
        for cid, keys in answers.items():
            assert keys <= baseline[cid]
            assert baseline[cid] - keys <= dropped
        # Every crash was rolled back atomically: the tree is clean.
        assert fsck(index.tree).errors == []
