"""The single-writer update stream: ordering, fan-out, crash recovery."""

import pytest

from repro.core.pdq import PDQEngine
from repro.errors import ServerError
from repro.server.dispatcher import UpdateDispatcher, UpdateOp
from repro.storage.faults import FaultInjector

from _helpers import assert_fsck_clean, make_segment


def fresh_segment(oid, t0=2.0, origin=(50.0, 50.0)):
    return make_segment(oid, 9, t0, t0 + 1.0, origin, (0.5, 0.0))


class TestStreamOrdering:
    def test_ops_apply_only_when_due(self, build_native):
        index = build_native()
        dispatcher = UpdateDispatcher(index)
        dispatcher.submit_inserts(
            [fresh_segment(9001, t0=2.0), fresh_segment(9002, t0=5.0)]
        )
        assert dispatcher.pending == 2
        assert dispatcher.apply_until(2.0) == 1
        assert dispatcher.pending == 1
        assert dispatcher.apply_until(10.0) == 1
        assert dispatcher.stats.inserts_applied == 2

    def test_submission_order_does_not_matter(self, build_native):
        index = build_native()
        dispatcher = UpdateDispatcher(index)
        dispatcher.submit(UpdateOp(5.0, "insert", fresh_segment(9001)))
        dispatcher.submit(UpdateOp(1.0, "insert", fresh_segment(9002)))
        assert dispatcher.apply_until(1.0) == 1  # the earlier op only
        assert dispatcher.stats.inserts_applied == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ServerError):
            UpdateOp(0.0, "truncate", fresh_segment(1))


class TestFanOut:
    def test_insert_lands_in_both_indexes(self, build_native, build_dual):
        native, dual = build_native(), build_dual()
        dispatcher = UpdateDispatcher(native, dual)
        before_n, before_d = len(native), len(dual)
        dispatcher.submit_inserts([fresh_segment(9001)])
        dispatcher.apply_until(10.0)
        assert len(native) == before_n + 1
        assert len(dual) == before_d + 1

    def test_live_pdq_sees_the_insert(self, build_native, fleet):
        index = build_native()
        (trajectory,) = fleet(1)
        # A segment parked in the middle of the observer's own window,
        # inserted mid-query.
        center = trajectory.window_at(2.0).center
        span = trajectory.time_span
        seg = make_segment(
            9001, 9, span.low, span.high, center, (0.0, 0.0)
        )
        with PDQEngine(index, trajectory, track_updates=True) as pdq:
            pdq.window(span.low, 1.8)
            dispatcher = UpdateDispatcher(index)
            dispatcher.submit(UpdateOp(1.9, "insert", seg))
            dispatcher.apply_until(1.9)
            later = pdq.window(1.8, span.high)
        assert any(item.key == seg.key for item in later)


class TestExpires:
    def test_expires_deferred_while_live(self, build_native, tiny_segments):
        index = build_native()
        dispatcher = UpdateDispatcher(index)
        victim = tiny_segments[0]
        dispatcher.submit(UpdateOp(0.5, "expire", victim))
        assert dispatcher.apply_until(1.0, live_queries=True) == 0
        assert dispatcher.stats.expires_deferred == 1
        assert len(dispatcher.deferred_expires) == 1
        before = len(index)
        assert dispatcher.flush_expired() == 1
        assert len(index) == before - 1
        assert not dispatcher.deferred_expires
        assert_fsck_clean(index.tree)

    def test_expires_apply_directly_when_quiesced(
        self, build_native, build_dual, tiny_segments
    ):
        native, dual = build_native(), build_dual()
        dispatcher = UpdateDispatcher(native, dual)
        victim = tiny_segments[3]
        dispatcher.submit(UpdateOp(0.5, "expire", victim))
        assert dispatcher.apply_until(1.0, live_queries=False) == 1
        assert len(native) == len(dual) == len(tiny_segments) - 1


class TestWriterCrash:
    def test_transient_crash_is_recovered_and_retried(self, build_native):
        index = build_native(intent_log=True)
        # The first physical write after attachment fails: the insert
        # crashes mid-flight, the dispatcher rolls it back and retries.
        index.tree.disk.set_faults(FaultInjector().script_write_op(1))
        dispatcher = UpdateDispatcher(index)
        dispatcher.submit_inserts([fresh_segment(9001)])
        assert dispatcher.apply_until(10.0) == 1
        assert dispatcher.stats.crashes_recovered >= 1
        assert dispatcher.stats.inserts_applied == 1
        assert dispatcher.stats.updates_dropped == 0
        assert any(
            e.record.key == (9001, 9)
            for e in index.tree.all_leaf_entries()
        )
        assert_fsck_clean(index.tree)

    def test_persistent_crash_drops_the_update(self, build_native):
        index = build_native(intent_log=True)
        index.tree.disk.set_faults(FaultInjector(write_error_rate=1.0, seed=0))
        dispatcher = UpdateDispatcher(index)
        seg = fresh_segment(9001)
        dispatcher.submit_inserts([seg])
        before = len(index)
        assert dispatcher.apply_until(10.0) == 0
        assert dispatcher.stats.updates_dropped == 1
        assert dispatcher.stats.dropped_keys == [seg.key]
        index.tree.disk.set_faults(None)
        index.tree.recover()
        # The tree is structurally whole and back to its pre-insert state.
        assert len(index) == before
        assert_fsck_clean(index.tree)
