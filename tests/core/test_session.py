"""Tests for the automatic Snapshot/PDQ/NPDQ mode hand-off session."""

import pytest

from repro.core.session import DynamicQuerySession, SessionMode
from repro.errors import SessionError
from repro.index.dualtime import DualTimeIndex


@pytest.fixture()
def session(tiny_native, tiny_dual):
    s = DynamicQuerySession(
        tiny_native,
        tiny_dual,
        half_extents=(4.0, 4.0),
        stability_frames=3,
        prediction_horizon=3.0,
    )
    yield s
    s.close()


class TestConstruction:
    def test_dims_must_match(self, tiny_native):
        bad_dual = DualTimeIndex(dims=1)
        with pytest.raises(SessionError):
            DynamicQuerySession(tiny_native, bad_dual, half_extents=(4.0, 4.0))

    def test_half_extents_length_checked(self, tiny_native, tiny_dual):
        with pytest.raises(SessionError):
            DynamicQuerySession(tiny_native, tiny_dual, half_extents=(4.0,))

    def test_invalid_stability(self, tiny_native, tiny_dual):
        with pytest.raises(SessionError):
            DynamicQuerySession(
                tiny_native, tiny_dual, half_extents=(4, 4), stability_frames=0
            )

    def test_invalid_horizon(self, tiny_native, tiny_dual):
        with pytest.raises(SessionError):
            DynamicQuerySession(
                tiny_native, tiny_dual, half_extents=(4, 4), prediction_horizon=0
            )


class TestModeTransitions:
    def test_first_frame_is_snapshot(self, session):
        report = session.observe(1.0, (50.0, 50.0))
        assert report.mode is SessionMode.SNAPSHOT

    def test_unstable_motion_uses_npdq(self, session):
        session.observe(1.0, (50.0, 50.0))
        report = session.observe(1.1, (50.5, 50.0))
        assert report.mode is SessionMode.NON_PREDICTIVE

    def test_stable_motion_promotes_to_pdq(self, session):
        t, x = 1.0, 50.0
        modes = []
        for _ in range(8):
            modes.append(session.observe(t, (x, 50.0)).mode)
            t += 0.1
            x += 0.3
        assert modes[0] is SessionMode.SNAPSHOT
        assert SessionMode.PREDICTIVE in modes
        # Once predictive, it stays predictive while the motion holds.
        first_pdq = modes.index(SessionMode.PREDICTIVE)
        assert all(m is SessionMode.PREDICTIVE for m in modes[first_pdq:])

    def test_deviation_falls_back_to_npdq(self, session):
        t, x = 1.0, 50.0
        for _ in range(8):
            session.observe(t, (x, 50.0))
            t += 0.1
            x += 0.3
        assert session.mode is SessionMode.PREDICTIVE
        report = session.observe(t, (x + 3.0, 55.0))  # swerve
        assert report.mode is SessionMode.NON_PREDICTIVE

    def test_teleport_resets_to_snapshot(self, session):
        session.observe(1.0, (20.0, 20.0))
        session.observe(1.1, (20.2, 20.0))
        report = session.observe(1.2, (80.0, 80.0))
        assert report.mode is SessionMode.SNAPSHOT

    def test_prediction_horizon_expiry_renews(self, session):
        """Past the horizon the session re-predicts (stays predictive)."""
        t, x = 1.0, 30.0
        modes = []
        for _ in range(60):
            modes.append(session.observe(t, (x, 50.0)).mode)
            t += 0.1
            x += 0.2
        assert modes[-1] is SessionMode.PREDICTIVE

    def test_mode_switches_recorded(self, session):
        session.observe(1.0, (50.0, 50.0))
        session.observe(1.1, (50.3, 50.0))
        assert session.mode_switches
        assert session.mode_switches[0][1] is SessionMode.SNAPSHOT


class TestResultContinuity:
    def _oracle_visible(self, tiny_segments, t, center, half=4.0):
        keys = set()
        for s in tiny_segments:
            if not s.time.contains(t):
                continue
            x, y = s.position_at(t)
            if abs(x - center[0]) <= half and abs(y - center[1]) <= half:
                keys.add(s.object_id)
        return keys

    def test_cache_tracks_truth_across_modes(
        self, session, tiny_segments
    ):
        """At every frame the cache contains (at least) every object
        truly visible at that instant, regardless of the serving mode."""
        t, x, y = 1.0, 40.0, 40.0
        for frame in range(25):
            if frame == 12:
                x, y = 70.0, 20.0  # teleport mid-run
            report = session.observe(t, (x, y))
            truly_visible = self._oracle_visible(tiny_segments, t, (x, y))
            cached = session.cache.visible_ids()
            missing = truly_visible - cached
            assert not missing, (
                f"frame {frame} ({report.mode}): missing {missing}"
            )
            t += 0.1
            x += 0.25

    def test_frames_must_advance(self, session):
        session.observe(1.0, (50.0, 50.0))
        with pytest.raises(SessionError):
            session.observe(1.0, (50.0, 50.0))

    def test_center_dims_checked(self, session):
        with pytest.raises(SessionError):
            session.observe(1.0, (50.0,))

    def test_reports_carry_counts(self, session):
        report = session.observe(1.0, (50.0, 50.0))
        assert report.visible_count == len(session.cache)
        assert report.time == 1.0


class TestSemiPredictiveSession:
    @pytest.fixture()
    def spdq_session(self, tiny_native, tiny_dual):
        s = DynamicQuerySession(
            tiny_native,
            tiny_dual,
            half_extents=(4.0, 4.0),
            stability_frames=3,
            prediction_horizon=3.0,
            spdq_delta=1.0,
        )
        yield s
        s.close()

    def test_negative_delta_rejected(self, tiny_native, tiny_dual):
        with pytest.raises(SessionError):
            DynamicQuerySession(
                tiny_native, tiny_dual, half_extents=(4, 4), spdq_delta=-1.0
            )

    def test_wobble_within_delta_stays_predictive(self, spdq_session, rng):
        t, x = 1.0, 40.0
        modes = []
        for k in range(14):
            wobble = 0.4 * ((-1) ** k) if k > 6 else 0.0
            modes.append(spdq_session.observe(t, (x, 50.0 + wobble)).mode)
            t += 0.1
            x += 0.3
        first_pdq = modes.index(SessionMode.PREDICTIVE)
        assert all(m is SessionMode.PREDICTIVE for m in modes[first_pdq:])

    def test_excess_deviation_still_falls_back(self, spdq_session):
        t, x = 1.0, 40.0
        for _ in range(8):
            spdq_session.observe(t, (x, 50.0))
            t += 0.1
            x += 0.3
        assert spdq_session.mode is SessionMode.PREDICTIVE
        report = spdq_session.observe(t, (x, 55.0))  # > delta
        assert report.mode is SessionMode.NON_PREDICTIVE

    def test_cache_complete_under_wobble(
        self, spdq_session, tiny_segments, rng
    ):
        t, x = 1.0, 40.0
        for k in range(20):
            wobble = rng.uniform(-0.6, 0.6) if k > 5 else 0.0
            center = (x, 50.0 + wobble)
            spdq_session.observe(t, center)
            visible = set()
            for s in tiny_segments:
                if not s.time.contains(t):
                    continue
                px, py = s.position_at(t)
                if abs(px - center[0]) <= 4.0 and abs(py - center[1]) <= 4.0:
                    visible.add(s.object_id)
            assert visible <= spdq_session.cache.visible_ids()
            t += 0.1
            x += 0.3
