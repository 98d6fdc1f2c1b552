"""Graceful degradation: engines under injected storage faults.

Every engine accepts a ``fault_budget``: a node load that keeps failing
is re-enqueued up to that many extra times, then its subtree is skipped
and the result is flagged ``degraded``.  The core soundness property is
that a degraded answer is always a *subset* of the fault-free answer —
faults may lose results but never invent them.
"""

import random

import pytest

from repro.core.naive import NaiveEvaluator
from repro.core.npdq import NPDQEngine
from repro.core.pdq import PDQEngine
from repro.core.trajectory import QueryTrajectory
from repro.errors import CorruptPageError, TransientIOError
from repro.geometry.interval import Interval
from repro.index.dualtime import DualTimeIndex
from repro.index.nsi import NativeSpaceIndex
from repro.motion.linear import LinearMotion, PiecewiseLinearMotion
from repro.motion.mobile_object import MobileObject, PeriodicUpdatePolicy
from repro.storage.faults import FaultInjector, RetryPolicy

HORIZON = 8.0
SIDE = 40.0
PERIOD = 0.1


def build_segments(seed=11, objects=30):
    rng = random.Random(seed)
    segments = []
    for oid in range(objects):
        legs = []
        t = 0.0
        pos = (rng.uniform(0, SIDE), rng.uniform(0, SIDE))
        while t < HORIZON:
            dur = rng.uniform(0.5, 2.0)
            vel = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            legs.append(LinearMotion(t, pos, vel))
            pos = tuple(p + v * dur for p, v in zip(pos, vel))
            t += dur
        obj = MobileObject(oid, PiecewiseLinearMotion(legs))
        policy = PeriodicUpdatePolicy(1.0, rng=random.Random(seed * 100 + oid))
        segments.extend(obj.reported_segments(policy, Interval(0.0, HORIZON)))
    return segments


def build_native(segments):
    index = NativeSpaceIndex(dims=2, page_size=512)
    index.bulk_load(segments)
    return index


def build_dual(segments):
    index = DualTimeIndex(dims=2, page_size=512)
    index.bulk_load(segments)
    return index


def trajectory():
    return QueryTrajectory.linear(
        start_time=1.0,
        end_time=3.5,
        start_center=(SIDE / 2, SIDE / 2),
        velocity=(2.0, 1.0),
        half_extents=(5.0, 5.0),
    )


def frame_keys(frames):
    return {item.key for frame in frames for item in frame.items}


class _Recorder(FaultInjector):
    """A no-fault injector that records which pages get read."""

    def __init__(self):
        super().__init__()
        self.read_pages = []

    def before_read(self, page_id):
        self.read_pages.append(page_id)
        super().before_read(page_id)


def visited_non_root_pages(index, probe, k=3):
    """Pages a fault-free ``probe(index)`` run actually reads, minus the
    root (skipping the root would degenerate to an empty answer)."""
    recorder = _Recorder()
    index.tree.disk.set_faults(recorder)
    probe(index)
    index.tree.disk.set_faults(None)
    pages = []
    for pid in recorder.read_pages:
        if pid != index.tree.root_id and pid not in pages:
            pages.append(pid)
    assert len(pages) >= k, "probe query touched too few pages"
    return pages[:k]


def naive_probe(index):
    NaiveEvaluator(index).run(trajectory(), PERIOD)


def pdq_probe(index):
    with PDQEngine(index, trajectory(), track_updates=False) as pdq:
        pdq.run(PERIOD)


def npdq_probe(index):
    NPDQEngine(index).run(trajectory(), PERIOD)


class TestNaiveDegradation:
    def test_without_budget_faults_propagate(self):
        segments = build_segments()
        index = build_native(segments)
        index.tree.disk.set_faults(FaultInjector(read_error_rate=1.0, seed=0))
        naive = NaiveEvaluator(index)
        with pytest.raises(TransientIOError):
            naive.run(trajectory(), PERIOD)

    def test_degraded_subset_and_accounting(self):
        segments = build_segments()
        baseline = frame_keys(NaiveEvaluator(build_native(segments)).run(
            trajectory(), PERIOD
        ))
        index = build_native(segments)
        injector = FaultInjector()
        for pid in visited_non_root_pages(index, naive_probe):
            injector.script_corruption(pid)
        index.tree.disk.set_faults(injector)
        naive = NaiveEvaluator(index, fault_budget=1)
        frames = naive.run(trajectory(), PERIOD)
        assert frame_keys(frames) <= baseline
        degraded_frames = [f for f in frames if f.degraded]
        assert degraded_frames
        assert all(f.skipped_subtrees > 0 for f in degraded_frames)
        clean_frames = [f for f in frames if not f.degraded]
        assert all(f.skipped_subtrees == 0 for f in clean_frames)

    def test_budget_absorbs_shorter_fault_runs(self):
        segments = build_segments()
        baseline = frame_keys(NaiveEvaluator(build_native(segments)).run(
            trajectory(), PERIOD
        ))
        index = build_native(segments)
        injector = FaultInjector()
        for pid in visited_non_root_pages(index, naive_probe):
            injector.script_read_fault(pid, times=2)  # transient, then heals
        index.tree.disk.set_faults(injector)
        naive = NaiveEvaluator(index, fault_budget=3)
        frames = naive.run(trajectory(), PERIOD)
        assert frame_keys(frames) == baseline
        assert not any(f.degraded for f in frames)


class TestPDQDegradation:
    def test_without_budget_faults_propagate(self):
        segments = build_segments()
        index = build_native(segments)
        index.tree.disk.set_faults(
            FaultInjector().script_corruption(
                visited_non_root_pages(index, pdq_probe, k=1)[0]
            )
        )
        with pytest.raises(CorruptPageError):
            with PDQEngine(index, trajectory(), track_updates=False) as pdq:
                pdq.run(PERIOD)

    def test_degraded_subset_with_sticky_flag(self):
        segments = build_segments()
        with PDQEngine(
            build_native(segments), trajectory(), track_updates=False
        ) as pdq:
            baseline = frame_keys(pdq.run(PERIOD))
        index = build_native(segments)
        injector = FaultInjector()
        for pid in visited_non_root_pages(index, pdq_probe):
            injector.script_corruption(pid)
        index.tree.disk.set_faults(injector)
        with PDQEngine(
            index, trajectory(), track_updates=False, fault_budget=1
        ) as pdq:
            frames = pdq.run(PERIOD)
            assert pdq.degraded
            assert pdq.skipped_subtrees
        assert frame_keys(frames) <= baseline
        # Degradation is cumulative: a lost subtree poisons the whole
        # incremental answer, so the final frame must carry the flag.
        assert frames[-1].degraded
        assert frames[-1].skipped_subtrees == len(
            set(pdq.skipped_subtrees) | set()
        ) or frames[-1].skipped_subtrees == len(pdq.skipped_subtrees)

    def test_disk_retries_plus_budget_absorb_transients(self):
        segments = build_segments()
        with PDQEngine(
            build_native(segments), trajectory(), track_updates=False
        ) as pdq:
            baseline = frame_keys(pdq.run(PERIOD))
        index = build_native(segments)
        index.tree.disk.retry = RetryPolicy(attempts=3)
        index.tree.disk.set_faults(
            FaultInjector(read_error_rate=0.1, seed=5)
        )
        with PDQEngine(
            index, trajectory(), track_updates=False, fault_budget=5
        ) as pdq:
            frames = pdq.run(PERIOD)
        # p=0.1 with 3 attempts and a generous re-enqueue budget: every
        # fault is eventually absorbed.
        assert frame_keys(frames) == baseline
        assert not pdq.degraded
        assert index.tree.disk.stats.retries > 0


class TestNPDQDegradation:
    def test_without_budget_faults_propagate(self):
        segments = build_segments()
        index = build_dual(segments)
        index.tree.disk.set_faults(FaultInjector(read_error_rate=1.0, seed=0))
        engine = NPDQEngine(index)
        with pytest.raises(TransientIOError):
            engine.run(trajectory(), PERIOD)

    def test_degraded_subset_and_sticky_history(self):
        segments = build_segments()
        clean = NPDQEngine(build_dual(segments)).run(trajectory(), PERIOD)
        baseline = frame_keys(clean) | {
            i.key for f in clean for i in f.prefetched
        }
        index = build_dual(segments)
        injector = FaultInjector()
        for pid in visited_non_root_pages(index, npdq_probe):
            injector.script_corruption(pid)
        index.tree.disk.set_faults(injector)
        engine = NPDQEngine(index, fault_budget=1)
        frames = engine.run(trajectory(), PERIOD)
        assert frame_keys(frames) <= baseline
        assert engine.degraded
        first_skip = next(i for i, f in enumerate(frames) if f.degraded)
        # Once history over-claims coverage, every later frame is tainted.
        assert all(f.degraded for f in frames[first_skip:])

    def test_reset_clears_the_degraded_flag(self):
        segments = build_segments()
        index = build_dual(segments)
        pid = visited_non_root_pages(index, npdq_probe, k=1)[0]
        injector = FaultInjector().script_corruption(pid)
        index.tree.disk.set_faults(injector)
        engine = NPDQEngine(index, fault_budget=0)
        engine.run(trajectory(), PERIOD)
        assert engine.degraded
        index.tree.disk.set_faults(None)
        engine.reset()
        assert not engine.degraded
        again = engine.run(trajectory(), PERIOD)
        assert not engine.degraded
        assert not any(f.degraded for f in again)

    def test_budget_absorbs_shorter_fault_runs(self):
        segments = build_segments()
        clean = NPDQEngine(build_dual(segments)).run(trajectory(), PERIOD)
        index = build_dual(segments)
        injector = FaultInjector()
        for pid in visited_non_root_pages(index, npdq_probe):
            injector.script_read_fault(pid, times=2)
        index.tree.disk.set_faults(injector)
        engine = NPDQEngine(index, fault_budget=3)
        frames = engine.run(trajectory(), PERIOD)
        assert frame_keys(frames) == frame_keys(clean)
        assert not engine.degraded
