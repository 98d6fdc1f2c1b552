"""Tests for the synthetic object-population generator (Sect. 5)."""

import math
import statistics

import pytest

from repro.workload.config import WorkloadConfig
from repro.workload.objects import (
    generate_mobile_objects,
    generate_motion_segments,
)


@pytest.fixture(scope="module")
def config():
    return WorkloadConfig.tiny(seed=5)


@pytest.fixture(scope="module")
def segments(config):
    return list(generate_motion_segments(config))


class TestObjects:
    def test_object_count(self, config):
        objs = generate_mobile_objects(config)
        assert len(objs) == config.num_objects

    def test_deterministic_in_seed(self, config):
        a = generate_mobile_objects(config)
        b = generate_mobile_objects(config)
        for x, y in zip(a, b):
            assert x.true_location(3.0) == y.true_location(3.0)

    def test_different_seed_differs(self, config):
        other = WorkloadConfig.tiny(seed=99)
        a = generate_mobile_objects(config)[0]
        b = generate_mobile_objects(other)[0]
        assert a.true_location(3.0) != b.true_location(3.0)

    def test_objects_stay_in_bounds(self, config):
        for obj in generate_mobile_objects(config)[:30]:
            for k in range(60):
                t = config.horizon * k / 60
                pos = obj.true_location(t)
                for c in pos:
                    assert -1.0 <= c <= config.space_side + 1.0

    def test_speed_distribution_near_configured(self, config):
        speeds = []
        for obj in generate_mobile_objects(config)[:60]:
            for leg in obj.motion.legs:
                speeds.append(leg.speed())
        assert 0.6 < statistics.mean(speeds) < 1.4


class TestSegments:
    def test_expected_count_roughly(self, config, segments):
        expected = config.expected_segments
        assert 0.7 * expected < len(segments) < 1.4 * expected

    def test_per_object_streams_contiguous(self, config, segments):
        by_object = {}
        for s in segments:
            by_object.setdefault(s.object_id, []).append(s)
        for stream in by_object.values():
            stream.sort(key=lambda s: s.seq)
            assert stream[0].time.low == 0.0
            assert stream[-1].time.high == config.horizon
            for a, b in zip(stream, stream[1:]):
                assert a.time.high == b.time.low

    def test_update_gaps_near_one_time_unit(self, segments):
        gaps = [s.time.length for s in segments]
        mean = statistics.mean(gaps)
        assert 0.7 < mean < 1.3

    def test_deterministic(self, config):
        a = list(generate_motion_segments(config))
        b = list(generate_motion_segments(config))
        assert len(a) == len(b)
        assert all(
            x.key == y.key and x.segment.origin == y.segment.origin
            for x, y in zip(a, b)
        )

    def test_segments_track_truth_at_start(self, config, segments):
        objs = {o.object_id: o for o in generate_mobile_objects(config)}
        for s in segments[:200]:
            truth = objs[s.object_id].true_location(s.time.low)
            assert math.dist(s.position_at(s.time.low), truth) < 1e-9
