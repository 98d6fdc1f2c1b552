"""Tests for the two spatio-temporal index facades (NSI and dual-time)."""

import pytest

from repro.errors import QueryError
from repro.geometry.box import Box
from repro.geometry.interval import EMPTY_INTERVAL, Interval
from repro.geometry.segment import segment_box_overlap_interval
from repro.index.dualtime import DualTimeIndex
from repro.index.nsi import NativeSpaceIndex
from repro.storage.metrics import QueryCost

from _helpers import assert_fsck_clean, make_segment, window


@pytest.fixture(params=["native", "dual"])
def any_index(request, tiny_segments):
    if request.param == "native":
        idx = NativeSpaceIndex(dims=2)
    else:
        idx = DualTimeIndex(dims=2)
    idx.bulk_load(tiny_segments)
    return idx


class TestConstruction:
    def test_invalid_dims(self):
        with pytest.raises(QueryError):
            NativeSpaceIndex(dims=0)
        with pytest.raises(QueryError):
            DualTimeIndex(dims=0)

    def test_negative_uncertainty(self):
        with pytest.raises(QueryError):
            NativeSpaceIndex(dims=2, uncertainty=-1.0)
        with pytest.raises(QueryError):
            DualTimeIndex(dims=2, uncertainty=-1.0)

    def test_axes_counts(self):
        assert NativeSpaceIndex(dims=2).tree.axes == 3
        assert DualTimeIndex(dims=2).tree.axes == 4

    def test_paper_fanouts(self):
        nsi = NativeSpaceIndex(dims=2)
        assert nsi.tree.max_internal == 145
        assert nsi.tree.max_leaf == 127
        dti = DualTimeIndex(dims=2)
        assert dti.tree.max_internal == 113
        assert dti.tree.max_leaf == 127

    def test_wrong_dims_segment_rejected(self):
        nsi = NativeSpaceIndex(dims=2)
        rec = make_segment(origin=(0.0,), velocity=(1.0,))
        with pytest.raises(QueryError):
            nsi.insert(rec)
        dti = DualTimeIndex(dims=2)
        with pytest.raises(QueryError):
            dti.insert(rec)


class TestDomain:
    """What a planner may know without a read: the cover of the native
    boxes of every row loaded or inserted, unknown for a reopened one."""

    @pytest.mark.parametrize("cls", [NativeSpaceIndex, DualTimeIndex])
    def test_loaded_and_inserted_rows_are_covered(self, cls, tiny_segments):
        index = cls(dims=2)
        assert index.domain is None
        index.bulk_load(tiny_segments[:50])
        want = tiny_segments[0].bounding_box()
        for record in tiny_segments[1:50]:
            want = want.cover(record.bounding_box())
        assert index.domain == want
        far = make_segment(oid=10**6, t0=0.0, t1=1.0, origin=(500.0, 500.0))
        index.insert_batch([far])
        assert index.domain == want.cover(far.bounding_box())

    def test_an_empty_index_takes_its_first_insert(self):
        index = NativeSpaceIndex(dims=2)
        record = make_segment()
        index.insert(record)
        assert index.domain == record.bounding_box()

    def test_a_reopened_index_stays_unknown_after_inserts(self, tiny_segments):
        built = NativeSpaceIndex(dims=2)
        built.bulk_load(tiny_segments[:50])
        reopened = NativeSpaceIndex(
            dims=2, disk=built.tree.disk, restore_meta=built.tree.recovery_meta()
        )
        assert len(reopened) == 50 and reopened.domain is None
        reopened.insert(make_segment(oid=10**6))
        assert reopened.domain is None


class TestQueryBoxes:
    def test_native_query_box_layout(self):
        nsi = NativeSpaceIndex(dims=2)
        q = nsi.query_box(Interval(1, 2), window(0, 0, 4, 4))
        assert q.dims == 3
        assert q.extent(0) == Interval(1, 2)

    def test_dual_query_box_layout(self):
        dti = DualTimeIndex(dims=2)
        q = dti.query_box(Interval(1, 2), window(0, 0, 4, 4))
        assert q.dims == 4
        assert q.extent(0).high == 2  # ts <= q_h
        assert q.extent(1).low == 1  # te >= q_l
        assert q.extent(0).low == float("-inf")
        assert q.extent(1).high == float("inf")

    def test_dual_query_empty_time_rejected(self):
        dti = DualTimeIndex(dims=2)
        with pytest.raises(QueryError):
            dti.query_box(Interval(2, 1), window(0, 0, 1, 1))
        # One boundary rule for every flavour's search, NSI included.
        for index in (dti, NativeSpaceIndex(dims=2)):
            with pytest.raises(QueryError, match="empty time interval"):
                index.snapshot_search(EMPTY_INTERVAL, window(0, 0, 1, 1))

    def test_window_dim_mismatch(self):
        nsi = NativeSpaceIndex(dims=2)
        with pytest.raises(QueryError):
            nsi.query_box(Interval(0, 1), Box.from_bounds((0.0,), (1.0,)))


class TestSearchCorrectness:
    def _brute(self, segments, time, win):
        qbox = Box([time] + list(win))
        return {
            s.key
            for s in segments
            if not segment_box_overlap_interval(s.segment, qbox).is_empty
        }

    def test_exact_search_matches_brute_force(self, any_index, tiny_segments, rng):
        for _ in range(20):
            t0 = rng.uniform(0, 14)
            x0, y0 = rng.uniform(0, 90), rng.uniform(0, 90)
            time = Interval(t0, t0 + rng.uniform(0, 1))
            win = window(x0, y0, x0 + 10, y0 + 10)
            got = {r.key for r, _ in any_index.snapshot_search(time, win)}
            assert got == self._brute(tiny_segments, time, win)

    def test_overlap_intervals_nonempty_and_within_query(
        self, any_index, rng
    ):
        time = Interval(5.0, 6.0)
        win = window(20, 20, 60, 60)
        for record, overlap in any_index.snapshot_search(time, win):
            assert not overlap.is_empty
            assert overlap.low >= time.low - 1e-9
            assert overlap.high <= time.high + 1e-9
            assert record.time.overlaps(time)

    def test_inexact_search_superset(self, any_index, tiny_segments):
        time = Interval(5.0, 6.0)
        win = window(20, 20, 60, 60)
        exact = {r.key for r, _ in any_index.snapshot_search(time, win)}
        loose = {
            r.key
            for r, _ in any_index.snapshot_search(time, win, exact=False)
        }
        assert exact <= loose

    def test_cost_accounted(self, any_index):
        cost = QueryCost()
        any_index.snapshot_search(
            Interval(5.0, 6.0), window(20, 20, 60, 60), cost=cost
        )
        assert cost.total_reads > 0
        assert cost.distance_computations > 0

    def test_insert_then_search(self):
        nsi = NativeSpaceIndex(dims=2)
        rec = make_segment(5, 0, 1.0, 2.0, (10.0, 10.0), (0.0, 0.0))
        nsi.insert(rec)
        got = nsi.snapshot_search(Interval(1.5, 1.6), window(9, 9, 11, 11))
        assert [r.object_id for r, _ in got] == [5]

    def test_len(self, tiny_segments):
        nsi = NativeSpaceIndex(dims=2)
        nsi.bulk_load(tiny_segments)
        assert len(nsi) == len(tiny_segments)


class TestUncertainty:
    def test_uncertain_index_never_misses(self, tiny_segments):
        exact_idx = NativeSpaceIndex(dims=2)
        exact_idx.bulk_load(tiny_segments[:300])
        fuzzy_idx = NativeSpaceIndex(dims=2, uncertainty=1.0)
        fuzzy_idx.bulk_load(tiny_segments[:300])
        time = Interval(2.0, 4.0)
        win = window(10, 10, 70, 70)
        exact_keys = {r.key for r, _ in exact_idx.snapshot_search(time, win)}
        # Bounding boxes are inflated, exact segment test unchanged: the
        # fuzzy index returns at least the exact answers.
        fuzzy_keys = {
            r.key for r, _ in fuzzy_idx.snapshot_search(time, win, exact=False)
        }
        assert exact_keys <= fuzzy_keys

    def test_dual_uncertainty_inflates_spatial_only(self):
        dti = DualTimeIndex(dims=2, uncertainty=1.0)
        rec = make_segment(0, 0, 1.0, 2.0, (10.0, 10.0), (0.0, 0.0))
        entry = dti._leaf_entry(rec)
        assert entry.box.extent(0) == Interval.point(1.0)  # ts untouched
        assert entry.box.extent(2) == Interval(9.0, 11.0)


class TestDualTimeMapping:
    def test_leaf_entry_is_point_in_dual_time(self):
        dti = DualTimeIndex(dims=2)
        rec = make_segment(0, 0, 3.0, 4.5, (1.0, 2.0))
        entry = dti._leaf_entry(rec)
        assert entry.box.extent(0) == Interval.point(3.0)
        assert entry.box.extent(1) == Interval.point(4.5)

    def test_above_diagonal_invariant(self, tiny_dual):
        """All dual-time points lie on or above the 45° line (Fig. 5(b))."""
        for e in tiny_dual.tree.all_leaf_entries():
            assert e.box.extent(0).low <= e.box.extent(1).low

    def test_integrity(self, tiny_native, tiny_dual):
        assert_fsck_clean(tiny_native.tree)
        assert_fsck_clean(tiny_dual.tree)
