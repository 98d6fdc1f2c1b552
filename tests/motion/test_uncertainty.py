"""Tests for the bounded-uncertainty model (Sect. 3.1)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import MotionError
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.geometry.segment import segment_box_overlap_interval
from repro.motion.uncertainty import UncertainMotionSegment, inflate_box

from _helpers import make_segment


class TestInflateBox:
    def test_spatial_dims_grow(self):
        box = Box([Interval(0, 1), Interval(10, 12), Interval(20, 22)])
        out = inflate_box(box, 0.5)
        assert out.extent(0) == Interval(0, 1)  # time untouched
        assert out.extent(1) == Interval(9.5, 12.5)
        assert out.extent(2) == Interval(19.5, 22.5)

    def test_spatial_dims_from(self):
        box = Box([Interval(0, 1), Interval(0, 1), Interval(10, 12)])
        out = inflate_box(box, 1.0, spatial_dims_from=2)
        assert out.extent(1) == Interval(0, 1)
        assert out.extent(2) == Interval(9, 13)

    def test_negative_raises(self):
        with pytest.raises(MotionError):
            inflate_box(Box([Interval(0, 1)]), -0.1)

    def test_zero_is_identity(self):
        box = Box([Interval(0, 1), Interval(2, 3)])
        assert inflate_box(box, 0.0) == box


class TestUncertainSegment:
    def _uncertain(self, eps=0.5):
        return UncertainMotionSegment(make_segment(), eps)

    def test_negative_epsilon_raises(self):
        with pytest.raises(MotionError):
            UncertainMotionSegment(make_segment(), -1.0)

    def test_indexed_box_contains_reported_box(self):
        u = self._uncertain()
        assert u.indexed_bounding_box().contains_box(
            u.record.bounding_box()
        )

    def test_possible_superset_of_definite(self):
        u = self._uncertain()
        q = Box([Interval(0, 1), Interval(0, 1), Interval(-1, 1)])
        definite = u.definitely_overlap_interval(q)
        possible = u.possibly_overlap_interval(q)
        assert possible.contains_interval(definite)

    def test_zero_epsilon_matches_exact(self):
        u = UncertainMotionSegment(make_segment(), 0.0)
        q = Box([Interval(0, 1), Interval(0.2, 0.7), Interval(-1, 1)])
        exact = segment_box_overlap_interval(u.record.segment, q)
        assert u.possibly_overlap_interval(q) == exact
        assert u.definitely_overlap_interval(q) == exact

    def test_definite_empty_when_window_smaller_than_epsilon(self):
        u = UncertainMotionSegment(make_segment(), 5.0)
        q = Box([Interval(0, 1), Interval(0.0, 0.5), Interval(-0.1, 0.1)])
        assert u.definitely_overlap_interval(q).is_empty

    def test_possible_catches_near_misses(self):
        # Object passes at y=0; window at y in [0.2, 0.4]: missed exactly,
        # caught within epsilon 0.5.
        u = self._uncertain(eps=0.5)
        q = Box([Interval(0, 1), Interval(0, 1), Interval(0.2, 0.4)])
        assert segment_box_overlap_interval(u.record.segment, q).is_empty
        assert not u.possibly_overlap_interval(q).is_empty

    def test_accessors(self):
        u = self._uncertain()
        assert u.object_id == 0
        assert u.time == Interval(0.0, 1.0)

    @given(st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
    def test_no_false_dismissals(self, eps):
        """Whatever the bound, the true overlap (of the reported motion)
        is always within the 'possible' interval — the paper's no-miss
        guarantee."""
        u = UncertainMotionSegment(make_segment(), eps)
        q = Box([Interval(0, 1), Interval(0.3, 0.6), Interval(-1, 1)])
        exact = segment_box_overlap_interval(u.record.segment, q)
        assert u.possibly_overlap_interval(q).contains_interval(exact)
