"""Writer crashes under a live multi-client broker.

The single-writer insert stream runs against a disk that fails writes —
scripted for the deterministic test, seeded-random for the soak.  Every
crashed insert is rolled back through the intent log (recovery writes
bypass the fault gates, so rollback always completes); the dispatcher
retries once and otherwise drops the update.  Afterwards:

* every client's answers are a subset of a fault-free run, missing at
  most the dropped updates (degraded-subset semantics);
* the index passes ``fsck`` with zero errors.

With several inserts due per tick a tick's inserts are one write batch;
a fault in it rolls the whole batch back before any engine hears of it,
and the dispatcher re-applies its inserts one at a time, so a persistent
fault drops only the insert it hits.
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


def batched_stream(trajectories, per_tick=3, ticks=3):
    """``per_tick`` inserts due at each of ``ticks`` ticks, one in each
    of ``per_tick`` observers' windows."""
    ops = []
    for tick in range(ticks):
        due = START + (1 + tick) * PERIOD
        for j in range(per_tick):
            trajectory = trajectories[j % len(trajectories)]
            center = trajectory.window_at(min(due + PERIOD, 3.9)).center
            seg = make_segment(9000 + 10 * tick + j, 9, due, due + 2.0, center, (0.0, 0.0))
            ops.append(UpdateOp(due, "insert", seg))
    return ops


def run_chaos(build_native, trajectories, injector=None, ops=None, arm=None):
    """One broker run over the insert stream; returns per-client key sets.

    ``arm(index, broker, t)``, if given, runs before each tick's updates
    are applied (a fault armed there lands in that tick's batch).
    """
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
    heard = []  # the keys of every notice the tree's listeners got
    index.tree.add_listener(lambda notices: heard.extend(n.entry.record.key for n in notices))
    if arm is not None:
        apply_until = broker.dispatcher.apply_until

        def armed(t, live_queries=True):
            arm(index, broker, t)
            return apply_until(t, live_queries)

        broker.dispatcher.apply_until = armed
    ops = insert_stream(trajectories) if ops is None else ops
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
    broker.heard = heard
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


class TestBatchWriterCrash:
    """Three inserts due per tick: each tick's inserts are one batch."""

    def test_fault_in_a_batch_drops_only_the_insert_it_hits(
        self, build_native, fleet
    ):
        trajectories = fleet(N_CLIENTS, mode="independent", seed=7)
        ops = batched_stream(trajectories)
        _, clean, baseline, _ = run_chaos(build_native, trajectories, ops=ops)
        assert clean.dispatcher.stats.inserts_applied == len(ops)
        assert sorted(clean.heard) == sorted(op.segment.key for op in ops)

        # The middle tick's batch: its second insert's leaf fails every
        # write — in the batch's write-back, then in both attempts of the
        # insert alone — and nothing else does.
        middle = [op for op in ops if op.time == ops[3].time]
        victim = middle[1].segment
        armed = {}

        def arm(index, broker, t):
            if armed or t < middle[0].time:
                return
            tree = index.tree
            leaves = {
                op.segment.key: tree._choose_path(
                    index._leaf_entry(op.segment).box
                )[-1].page_id
                for op in middle
            }
            armed["leaf"] = leaves[victim.key]
            # the other inserts of the batch do not touch that leaf
            assert list(leaves.values()).count(armed["leaf"]) == 1
            armed["crashes"] = broker.dispatcher.stats.crashes_recovered
            tree.disk.set_faults(
                FaultInjector().script_write_fault(armed["leaf"], times=3)
            )

        index, broker, answers, _ = run_chaos(
            build_native, trajectories, ops=ops, arm=arm
        )
        stats = broker.dispatcher.stats
        assert stats.dropped_keys == [victim.key]
        assert stats.inserts_applied == len(ops) - 1
        # one rollback for the batch, two for the victim's attempts
        assert stats.crashes_recovered - armed["crashes"] == 3
        # No engine heard the rolled-back batch: every applied insert was
        # heard exactly once, the dropped one never.
        assert sorted(broker.heard) == sorted(
            op.segment.key for op in ops if op.segment.key != victim.key
        )
        keys = [e.record.key for e in index.tree.all_leaf_entries()]
        assert len(keys) == len(set(keys)) and victim.key not in keys
        for cid, got in answers.items():
            assert got <= baseline[cid]
            assert baseline[cid] - got <= {victim.key}
        assert any(victim.key in keys for keys in baseline.values())
        assert fsck(index.tree).errors == []


class TestRandomBatchWriterSoak:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_write_faults_in_batches_never_corrupt(
        self, build_native, fleet, seed
    ):
        trajectories = fleet(N_CLIENTS, mode="independent", seed=seed + 40)
        ops = batched_stream(trajectories, per_tick=4, ticks=4)
        _, _, baseline, _ = run_chaos(build_native, trajectories, ops=ops)
        index, broker, answers, _ = run_chaos(
            build_native,
            trajectories,
            FaultInjector(write_error_rate=0.2, seed=seed),
            ops=ops,
        )
        stats = broker.dispatcher.stats
        assert stats.inserts_applied + stats.updates_dropped == len(ops)
        dropped = set(stats.dropped_keys)
        applied = sorted(op.segment.key for op in ops if op.segment.key not in dropped)
        assert sorted(broker.heard) == applied
        for cid, keys in answers.items():
            assert keys <= baseline[cid]
            assert baseline[cid] - keys <= dropped
        assert fsck(index.tree).errors == []
