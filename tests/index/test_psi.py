"""Tests for the parametric-space index (PSI)."""

import pytest

from repro.errors import QueryError
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.geometry.segment import segment_box_overlap_interval
from repro.index.psi import ParametricSpaceIndex
from repro.storage.metrics import QueryCost

from _helpers import assert_fsck_clean, make_segment, window


@pytest.fixture(scope="module")
def psi(tiny_segments):
    index = ParametricSpaceIndex(dims=2)
    index.bulk_load(tiny_segments)
    return index


def brute(segments, time, win):
    qbox = Box([time] + list(win))
    return {
        s.key
        for s in segments
        if not segment_box_overlap_interval(s.segment, qbox).is_empty
    }


class TestConstruction:
    def test_axes_and_fanouts(self):
        index = ParametricSpaceIndex(dims=2)
        assert index.tree.axes == 6
        assert index.tree.max_internal == 78  # (4096-16)//(6*8+4)
        assert index.tree.max_leaf == 127

    def test_invalid_dims(self):
        with pytest.raises(QueryError):
            ParametricSpaceIndex(dims=0)

    def test_wrong_segment_dims_rejected(self):
        index = ParametricSpaceIndex(dims=2)
        with pytest.raises(QueryError):
            index.insert(make_segment(origin=(0.0,), velocity=(1.0,)))

    def test_leaf_entry_parameters(self):
        index = ParametricSpaceIndex(dims=2)
        rec = make_segment(0, 0, t0=2.0, t1=3.0, origin=(10.0, 5.0), velocity=(1.0, -1.0))
        box = index._leaf_entry(rec).box
        assert box.extent(0) == Interval.point(2.0)  # ts
        assert box.extent(1) == Interval.point(3.0)  # te
        assert box.extent(2) == Interval.point(8.0)  # a_x = 10 - 1*2
        assert box.extent(3) == Interval.point(7.0)  # a_y = 5 - (-1)*2
        assert box.extent(4) == Interval.point(1.0)  # v_x
        assert box.extent(5) == Interval.point(-1.0)  # v_y


class TestCorrectness:
    def test_matches_brute_force(self, psi, tiny_segments, rng):
        for _ in range(15):
            t0 = rng.uniform(0, 14)
            x0, y0 = rng.uniform(0, 90), rng.uniform(0, 90)
            time = Interval(t0, t0 + rng.uniform(0, 1))
            win = window(x0, y0, x0 + 10, y0 + 10)
            got = {r.key for r, _ in psi.snapshot_search(time, win)}
            assert got == brute(tiny_segments, time, win)

    def test_matches_nsi(self, psi, tiny_native, rng):
        time = Interval(5.0, 5.5)
        win = window(20, 20, 50, 50)
        a = {r.key for r, _ in psi.snapshot_search(time, win)}
        b = {r.key for r, _ in tiny_native.snapshot_search(time, win)}
        assert a == b

    def test_inexact_is_superset(self, psi):
        time = Interval(5.0, 5.5)
        win = window(20, 20, 50, 50)
        exact = {r.key for r, _ in psi.snapshot_search(time, win)}
        loose = {r.key for r, _ in psi.snapshot_search(time, win, exact=False)}
        assert exact <= loose

    def test_integrity_and_size(self, psi, tiny_segments):
        assert_fsck_clean(psi.tree)
        assert len(psi) == len(tiny_segments)

    def test_invalid_queries_rejected(self, psi):
        with pytest.raises(QueryError):
            psi.snapshot_search(Interval(2, 1), window(0, 0, 1, 1))
        with pytest.raises(QueryError):
            psi.snapshot_search(Interval(0, 1), Box.from_bounds((0.0,), (1.0,)))


class TestPaperClaim:
    def test_nsi_outperforms_psi(self, psi, tiny_native, rng):
        """Sect. 2: "NSI outperforms PSI, because of the loss of
        locality associated with PSI"."""
        psi_cost = QueryCost()
        nsi_cost = QueryCost()
        for _ in range(25):
            t0 = rng.uniform(0, 14)
            time = Interval(t0, t0 + 0.2)
            x0, y0 = rng.uniform(0, 90), rng.uniform(0, 90)
            win = window(x0, y0, x0 + 8, y0 + 8)
            psi.snapshot_search(time, win, cost=psi_cost)
            tiny_native.snapshot_search(time, win, cost=nsi_cost)
        assert nsi_cost.total_reads < psi_cost.total_reads
