"""Hypothesis-driven update-management fuzzing.

Random interleavings of frame consumption and record insertion against
a live PDQ (with splits forced by tiny pages) and a live NPDQ.  The
invariants are the paper's:

* PDQ delivers every record whose visibility lies ahead of the query
  frontier at its insertion time — exactly once per visibility
  component — and never delivers anything outside its oracle set;
* NPDQ's cumulative deliveries cover every frame's exact answer set,
  including records inserted between frames.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.npdq import NPDQEngine
from repro.core.pdq import PDQEngine
from repro.core.snapshot import SnapshotQuery
from repro.core.trajectory import QueryTrajectory
from repro.geometry.interval import Interval
from repro.geometry.segment import segment_box_overlap_interval
from repro.index.dualtime import DualTimeIndex
from repro.index.nsi import NativeSpaceIndex
from repro.motion.segment import MotionSegment
from repro.geometry.segment import SpaceTimeSegment

from _helpers import assert_fsck_clean

SIDE = 30.0
SPAN = Interval(0.0, 6.0)


def base_segments(rng):
    out = []
    for oid in range(80):
        t = 0.0
        seq = 0
        pos = (rng.uniform(0, SIDE), rng.uniform(0, SIDE))
        while t < SPAN.high:
            dur = rng.uniform(0.5, 1.5)
            vel = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            out.append(
                MotionSegment(
                    oid, seq, SpaceTimeSegment(Interval(t, t + dur), pos, vel)
                )
            )
            pos = tuple(p + v * dur for p, v in zip(pos, vel))
            t += dur
            seq += 1
    return out


def random_insert(rng, oid):
    t0 = rng.uniform(0.0, SPAN.high - 0.2)
    return MotionSegment(
        oid,
        0,
        SpaceTimeSegment(
            Interval(t0, t0 + rng.uniform(0.2, 1.5)),
            (rng.uniform(0, SIDE), rng.uniform(0, SIDE)),
            (rng.uniform(-1, 1), rng.uniform(-1, 1)),
        ),
    )


class TestPDQUnderRandomInserts:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_invariants(self, seed):
        rng = random.Random(seed)
        index = NativeSpaceIndex(dims=2, page_size=256)
        for s in base_segments(rng):
            index.insert(s)
        trajectory = QueryTrajectory.linear(
            0.5, 5.5,
            (rng.uniform(5, 25), rng.uniform(5, 25)),
            (rng.uniform(-2, 2), rng.uniform(-2, 2)),
            (3.0, 3.0),
        )
        inserted = []  # (record, frontier at insertion time)
        delivered = []
        with PDQEngine(index, trajectory) as pdq:
            t = 0.5
            oid = 10_000
            while t < 5.5:
                step = rng.uniform(0.2, 0.8)
                t_next = min(t + step, 5.5)
                delivered.extend(pdq.window(t, t_next))
                for _ in range(rng.randrange(0, 4)):
                    rec = random_insert(rng, oid)
                    index.insert(rec)
                    inserted.append((rec, t_next))
                    oid += 1
                t = t_next
        assert_fsck_clean(index.tree)

        pairs = [(i.key, i.visibility) for i in delivered]
        assert len(pairs) == len(set(pairs)), "duplicate delivery"

        delivered_keys = {i.key for i in delivered}
        # Completeness: anything inserted whose visibility starts after
        # the then-current frontier must have been delivered.
        for rec, frontier in inserted:
            ts = trajectory.segment_overlap(rec.segment)
            for component in ts:
                if component.low > frontier + 1e-9:
                    assert rec.key in delivered_keys
                    break
        # Soundness: everything delivered is in the oracle set.
        for item in delivered:
            ts = trajectory.segment_overlap(item.record.segment)
            assert any(
                abs(c.low - item.visibility.low) < 1e-9
                and abs(c.high - item.visibility.high) < 1e-9
                for c in ts
            )


class TestNPDQUnderRandomInserts:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_coverage(self, seed):
        rng = random.Random(seed)
        index = DualTimeIndex(dims=2, page_size=256)
        segments = base_segments(rng)
        for s in segments:
            index.insert(s)
        engine = NPDQEngine(index)
        center = [rng.uniform(5, 25), rng.uniform(5, 25)]
        vel = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
        delivered = set()
        all_segments = list(segments)
        t = 0.5
        oid = 20_000
        while t < 5.0:
            t_next = t + 0.3
            window_lo = [c - 3.0 for c in center]
            window_hi = [c + 3.0 for c in center]
            from repro.geometry.box import Box

            q = SnapshotQuery(
                Interval(t, t_next), Box.from_bounds(window_lo, window_hi)
            )
            result = engine.snapshot(q)
            delivered |= {i.key for i in result.items}
            delivered |= {i.key for i in result.prefetched}
            qbox = q.to_native_box()
            exact = {
                s.key
                for s in all_segments
                if not segment_box_overlap_interval(s.segment, qbox).is_empty
            }
            missing = exact - delivered
            assert not missing, f"frame at {t}: missing {missing}"
            # Mutate the world between frames.
            for _ in range(rng.randrange(0, 3)):
                rec = random_insert(rng, oid)
                index.insert(rec)
                all_segments.append(rec)
                oid += 1
            center = [c + v * 0.3 for c, v in zip(center, vel)]
            t = t_next
        assert_fsck_clean(index.tree)
