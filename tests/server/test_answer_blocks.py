"""A frame's answer blocks read as the answer objects the object path builds.

``TickResult.items`` / ``.prefetched`` / ``.neighbors`` and
``SnapshotResult.items`` are column blocks whose answer objects are
built on first read.  Read, they must equal — record for record, every
visibility bound and distance bit for bit — what the object path gives:
``PDQEngine.get_next``, the scalar NPDQ reference, ``MovingKNN.query``
and the aggregate rule over those items.  The fleet's observers bounce
off a wall twice a tick, so static segments beside the wall are seen,
lost and seen again inside one tick (two visibility components of one
segment in one frame).  The merged blocks of 2 and 4 in-process shards
and of two process workers must read the same.
"""

from __future__ import annotations

import math
import struct

import pytest

from _helpers import ScalarNPDQEngine, block_of, make_segment
from repro.core.aggregate import count_timeline
from repro.core.knn import MovingKNN
from repro.core.npdq import NPDQEngine
from repro.core.pdq import PDQEngine
from repro.core.query import KNNAnswer, QuerySpec
from repro.core.results import AnswerBlock, AnswerItem
from repro.core.trajectory import KeySnapshot, QueryTrajectory
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.index.dualtime import DualTimeIndex
from repro.index.nsi import NativeSpaceIndex
from repro.server import (
    MultiplexBroker,
    QueryBroker,
    RemoteMultiplexBroker,
    ServerConfig,
    SimulatedClock,
    TickResult,
    merge_results,
)

START, PERIOD, TICKS = 1.0, 0.1, 8
PAGE_SIZE = 512
SIDE = 32.0
HALF = 4.0
NEAR, FAR = 6.0, 26.0  # the window's centre bounces between these


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def assert_same_answers(got, want, ordered=True):
    """Field for field; visibilities and distances bit for bit."""
    got, want = list(got), list(want)
    if not ordered:
        got.sort(key=lambda a: (a.key, bits(a.visibility.low)))
        want.sort(key=lambda a: (a.key, bits(a.visibility.low)))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        assert g.record == w.record
        if isinstance(w, KNNAnswer):
            assert bits(g.distance) == bits(w.distance)
        else:
            assert bits(g.visibility.low) == bits(w.visibility.low)
            assert bits(g.visibility.high) == bits(w.visibility.high)


def bouncing(y: float) -> QueryTrajectory:
    """A window at ``NEAR`` on every tick boundary and at ``FAR`` half
    way through every tick."""
    keys = []
    for i in range(2 * TICKS + 3):
        x = NEAR if i % 2 == 0 else FAR
        box = Box.from_bounds((x - HALF, y - HALF), (x + HALF, y + HALF))
        keys.append(KeySnapshot(START + i * (PERIOD / 2), box))
    return QueryTrajectory(keys)


@pytest.fixture(scope="module")
def population(tiny_segments):
    # static segments beside the wall: in the window at every tick
    # boundary, out of it half way through
    beside = [
        make_segment(90_000 + j, 0, 0.5, 9.0, (NEAR + 1.0, 4.0 + 6.0 * j), (0.0, 0.0))
        for j in range(4)
    ]
    return list(tiny_segments) + beside


@pytest.fixture(scope="module")
def fleet():
    return [bouncing(4.0 + 6.0 * j) for j in range(4)]


KINDS = ("pdq", "npdq", "knn", "aggregate")


def register(broker, fleet):
    for j, trajectory in enumerate(fleet):
        for kind in KINDS:
            spec = {
                "pdq": QuerySpec.range(trajectory),
                "npdq": QuerySpec.range(trajectory, predictive=False),
                "knn": QuerySpec.knn(trajectory, 3),
                "aggregate": QuerySpec.aggregate(trajectory),
            }[kind]
            broker.register_query(f"{kind}-{j}", spec)


def leaf_broker(population, fleet):
    native = NativeSpaceIndex(dims=2, page_size=PAGE_SIZE)
    native.bulk_load(population)
    dual = DualTimeIndex(dims=2, page_size=PAGE_SIZE)
    dual.bulk_load(population)
    broker = QueryBroker(
        native,
        dual,
        clock=SimulatedClock(start=START, period=PERIOD),
        config=ServerConfig(queue_depth=1000),
    )
    register(broker, fleet)
    return broker


def serve(broker, ticks=TICKS):
    frames = {}
    try:
        for _ in range(ticks):
            broker.run_tick()
            for session in broker.sessions:
                frames.setdefault(session.client_id, []).extend(session.poll())
    finally:
        broker.quiesce()
    return frames


class _ObjectPath:
    """The answers of one client built the object way."""

    def __init__(self, kind, trajectory, native, dual):
        self.kind, self.trajectory = kind, trajectory
        if kind in ("pdq", "aggregate"):
            self.engine = PDQEngine(native, trajectory, track_updates=False)
        elif kind == "npdq":
            self.engine = ScalarNPDQEngine(dual)
        else:
            self.engine = MovingKNN(native, 3)
        self.live = {}

    def _pops(self, start, end):
        items = []
        item = self.engine.get_next(start, end)
        while item is not None:
            items.append(item)
            item = self.engine.get_next(start, end)
        return items

    def frame(self, tick_start, tick_end):
        """``(items, prefetched, neighbors, aggregate)`` of one tick."""
        span_end = self.trajectory.time_span.high
        horizon = min(tick_end, span_end)
        if self.kind == "pdq":
            return self._pops(tick_start, horizon), [], [], ()
        if self.kind == "npdq":
            query = self.trajectory.frame_query(tick_start, tick_end)
            result = self.engine.snapshot(query)
            return result.items, result.prefetched, [], ()
        if self.kind == "knn":
            point = self.trajectory.window_at(tick_end).center
            found = self.engine.query(tick_end, point)
            return [], [], [KNNAnswer(r, d) for r, d in found], ()
        for item in self._pops(tick_start, horizon):
            self.live[(item.key, item.visibility.low)] = item
        self.live = {
            k: i for k, i in self.live.items() if i.visibility.high >= tick_start
        }
        span = Interval(tick_start, horizon)
        relevant = sorted(
            (
                i
                for i in self.live.values()
                if not i.visibility.intersect(span).is_empty
                and i.visibility.intersect(span).length > 0.0
            ),
            key=lambda i: (i.key, i.visibility.low),
        )
        return relevant, [], [], tuple(count_timeline(relevant, span))


def test_leaf_blocks_read_as_the_object_path(population, fleet):
    native = NativeSpaceIndex(dims=2, page_size=PAGE_SIZE)
    native.bulk_load(population)
    dual = DualTimeIndex(dims=2, page_size=PAGE_SIZE)
    dual.bulk_load(population)
    frames = serve(leaf_broker(population, fleet))
    twice = 0
    for j, trajectory in enumerate(fleet):
        for kind in KINDS:
            reference = _ObjectPath(kind, trajectory, native, dual)
            for result in frames[f"{kind}-{j}"]:
                items, prefetched, neighbors, aggregate = reference.frame(
                    result.start, result.end
                )
                assert isinstance(result.items, AnswerBlock)
                assert_same_answers(result.items, items)
                assert_same_answers(result.prefetched, prefetched)
                assert_same_answers(result.neighbors, neighbors)
                assert result.aggregate == aggregate
                keys = [i.key for i in result.items]
                twice += len(keys) - len(set(keys))
    assert twice > 0  # some segment had two components in one frame


def test_snapshot_result_blocks_read_as_the_scalar_engine(population, fleet):
    dual = DualTimeIndex(dims=2, page_size=PAGE_SIZE)
    dual.bulk_load(population)
    fast, scalar = NPDQEngine(dual), ScalarNPDQEngine(dual)
    answers = 0
    for trajectory in fleet:
        fast.reset()
        scalar.reset()
        for query in trajectory.frame_queries(PERIOD):
            got, want = fast.snapshot(query), scalar.snapshot(query)
            assert isinstance(got.items, AnswerBlock)
            assert_same_answers(got.items, want.items)
            assert_same_answers(got.prefetched, want.prefetched)
            answers += len(got.items)
    assert answers > 0


def test_pdq_window_block_keeps_a_negative_zero_start(population):
    # A window opening at -0.0: the kernel's visibility low of a segment
    # already inside is that -0.0, and the block keeps its sign.
    native = NativeSpaceIndex(dims=2, page_size=PAGE_SIZE)
    native.bulk_load(
        population + [make_segment(99_999, 0, -1.0, 2.0, (NEAR, 10.0), (0.0, 0.0))]
    )
    box = Box.from_bounds((NEAR - HALF, 6.0), (NEAR + HALF, 14.0))
    trajectory = QueryTrajectory([KeySnapshot(-0.0, box), KeySnapshot(1.0, box)])
    block = PDQEngine(native, trajectory).window(-0.0, 0.5)
    objects = PDQEngine(native, trajectory)
    want = []
    item = objects.get_next(-0.0, 0.5)
    while item is not None:
        want.append(item)
        item = objects.get_next(-0.0, 0.5)
    assert_same_answers(block, want)
    mine = [i for i in block if i.key == (99_999, 0)]
    assert [bits(i.visibility.low) for i in mine] == [bits(-0.0)]


def signed_edges():
    """Answers whose visibilities end at -0.0 and ±inf."""
    recs = [make_segment(i, 1, -1.0 - i, 5.0, (1.0 * i, 2.0), (0.5, -0.25)) for i in range(4)]
    bounds = [(-0.0, 1.5), (-math.inf, math.inf), (0.25, -0.0), (-math.inf, -0.0)]
    return [AnswerItem(r, Interval(low, high)) for r, (low, high) in zip(recs, bounds)]


def test_signed_edges_survive_the_views_and_the_merge():
    items = signed_edges()
    knn = [KNNAnswer(i.record, d) for i, d in zip(items, (-0.0, 0.0, 1.5, math.inf))]
    result = TickResult(
        index=0, start=0.0, end=0.1, mode="pdq", items=block_of(items),
        prefetched=block_of(items[:2]), neighbors=block_of(knn),
    )
    assert_same_answers(result.items, items)
    assert_same_answers(result.prefetched, items[:2])
    assert_same_answers(result.neighbors, knn)
    for shards in (2, 4):
        # each shard holds a replica of some rows: the merge keeps one
        parts = [
            TickResult(
                index=0, start=0.0, end=0.1, mode="pdq",
                items=block_of(items[s::shards] + items[: s + 1]),
                prefetched=block_of(items[s:2]),
            )
            for s in range(shards)
        ]
        merged = merge_results(parts)
        assert_same_answers(merged.items, items, ordered=False)
        assert_same_answers(merged.prefetched, items[:2], ordered=False)


@pytest.mark.parametrize("shards", [2, 4])
def test_merged_blocks_read_as_the_unsharded_ones(population, fleet, shards):
    want = serve(leaf_broker(population, fleet))
    broker = MultiplexBroker.over_segments(
        population,
        shards=shards,
        clock=SimulatedClock(start=START, period=PERIOD),
        config=ServerConfig(queue_depth=1000),
        page_size=PAGE_SIZE,
        bounds=([0.0, 0.0], [SIDE, SIDE]),
    )
    register(broker, fleet)
    got = serve(broker)
    assert_streams_agree(got, want)


def test_process_worker_blocks_read_as_the_unsharded_ones(population, fleet):
    want = serve(leaf_broker(population, fleet))
    broker = RemoteMultiplexBroker.over_segments(
        population,
        shards=2,
        clock=SimulatedClock(start=START, period=PERIOD),
        config=ServerConfig(queue_depth=1000),
        page_size=PAGE_SIZE,
        bounds=([0.0, 0.0], [SIDE, SIDE]),
    )
    register(broker, fleet)
    got = serve(broker)
    assert_streams_agree(got, want)


def assert_streams_agree(got, want):
    assert got.keys() == want.keys()
    for cid, frames in want.items():
        assert len(got[cid]) == len(frames)
        for g, w in zip(got[cid], frames):
            assert (g.index, g.mode, g.degraded, g.aggregate) == (
                w.index, w.mode, w.degraded, w.aggregate,
            )
            # range answers are a set across shards, ranks an order
            assert_same_answers(g.items, w.items, ordered=g.mode == "aggregate")
            assert_same_answers(g.prefetched, w.prefetched, ordered=False)
            assert_same_answers(g.neighbors, w.neighbors)
