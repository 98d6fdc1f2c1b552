"""Literal-value builders shared across test modules."""

from __future__ import annotations

import heapq
import itertools
import json
import math
import struct
import zlib
from functools import reduce

from repro.core.npdq import NPDQEngine
from repro.core.session import DynamicQuerySession, FrameReport, SessionMode
from repro.core.query import KNNAnswer
from repro.core.snapshot import SnapshotQuery
from repro.core.results import AnswerBlock, AnswerItem, NeighborBlock, SnapshotResult
from repro.errors import CorruptPageError, SessionError, TransientIOError
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.geometry.segment import SpaceTimeSegment, segment_box_overlap_interval
from repro.geometry.timeset import TimeSet
from repro.geometry.trapezoid import moving_window_box_overlap
from repro.index.check import fsck
from repro.index.codec import CHECKSUM_FRAME_BYTES
from repro.index.entry import InternalEntry, LeafEntry
from repro.motion.segment import MotionSegment


def make_segment(
    oid: int = 0,
    seq: int = 0,
    t0: float = 0.0,
    t1: float = 1.0,
    origin=(0.0, 0.0),
    velocity=(1.0, 0.0),
) -> MotionSegment:
    """Handy literal motion-segment builder."""
    return MotionSegment(
        oid, seq, SpaceTimeSegment(Interval(t0, t1), tuple(origin), tuple(velocity))
    )


def box_route(plan, segment, inflate=0.0):
    """The shards ``segment`` goes to, by Box algebra one segment at a
    time: its native bounding box projected on the spatial axes, grown
    by ``inflate`` when positive, matched by ``ShardPlan.shards_for_box``
    — the oracle of ``ShardRouter.route``."""
    box = segment.bounding_box()
    spatial = box.project(range(1, box.dims))
    if inflate > 0:
        spatial = spatial.inflate([inflate] * spatial.dims)
    return plan.shards_for_box(spatial)


def box_buckets(plan, segments, inflate=0.0):
    """Per shard, the keys :func:`box_route` sends it, in population order."""
    buckets = [[] for _ in plan.cells]
    for segment in segments:
        for shard_id in box_route(plan, segment, inflate):
            buckets[shard_id].append(segment.key)
    return buckets


def block_of(answers):
    """The column block whose items are ``answers`` (``AnswerItem``s, or
    ``KNNAnswer``s for a ``NeighborBlock``)."""
    answers = list(answers)
    if answers and isinstance(answers[0], KNNAnswer):
        rows = [(*a.record.key, a.distance) for a in answers]
        return NeighborBlock.of(rows, (a.record for a in answers))
    rows = [(*a.record.key, a.visibility.low, a.visibility.high) for a in answers]
    return AnswerBlock.of(rows, (a.record for a in answers))


def window(x0: float, y0: float, x1: float, y1: float) -> Box:
    """2-d spatial box literal."""
    return Box.from_bounds((x0, y0), (x1, y1))


def replace_row(node, row: int, entry) -> None:
    """Corrupt ``node`` by hand: its entry ``row`` becomes ``entry``."""
    entries = list(node.entries)
    entries[row] = entry
    node.replace_entries(entries, node.timestamp)


def assert_fsck_clean(tree) -> None:
    """Fail with fsck's summary and every violation unless ``tree`` is sound."""
    report = fsck(tree)
    assert report.ok, "\n".join([report.summary(), *map(str, report.violations)])


class JsonPageCodec:
    """Page codec for storage tests: any JSON value as its bytes."""

    def encode(self, payload) -> bytes:
        return json.dumps(payload).encode()

    def decode(self, data: bytes):
        return json.loads(data)


# -- the page codecs and the insert path, one entry object at a time ---------
#
# What ``index/codec.py`` and ``RTree._choose_path`` ran before a node
# became its page's columns, kept as the reference the column forms are
# tested against.

_PAGE_HEADER = struct.Struct("<IHHII")


class ReferenceNode:
    """A node as a plain list of entry objects: ``mbr`` is the scalar
    ``Box.cover`` fold and the mutators are list edits — the independent
    reference a column ``Node`` is tested against (the read side of a
    tree walk and the mutators a codec test applies to both)."""

    def __init__(self, page_id: int, level: int, timestamp: int, entries=()):
        self.page_id, self.level, self.timestamp = page_id, level, timestamp
        self.entries = list(entries)

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def __len__(self) -> int:
        return len(self.entries)

    def mbr(self) -> Box:
        return reduce(Box.cover, (e.box for e in self.entries))

    def child_ids(self):
        return tuple(e.child_id for e in self.entries)

    def _pop(self, keys, key, clock):
        self.timestamp = max(self.timestamp, clock)
        return self.entries.pop(keys.index(key))

    def add(self, entry, clock: int) -> None:
        self.timestamp = max(self.timestamp, clock)
        self.entries.append(entry)

    def remove_record(self, key, clock: int):
        return self._pop([e.record.key for e in self.entries], key, clock)

    def remove_child(self, child_id: int, clock: int):
        return self._pop(list(self.child_ids()), child_id, clock)

    def update_child_box(self, child_id: int, box: Box, clock: int) -> None:
        self.timestamp = max(self.timestamp, clock)
        row = self.child_ids().index(child_id)
        self.entries[row] = InternalEntry(box, child_id, timestamp=clock)


def reference_decode(codec, data: bytes) -> ReferenceNode:
    """The eager page decode: a :class:`ReferenceNode`, one entry object
    per record, every float a ``struct`` ``'f'`` unpacked one.

    ``codec`` is a ``NativeNodeCodec`` / ``DualTimeNodeCodec``, bare or
    inside a ``ChecksummedCodec`` (whose frame it then checks and strips).
    """
    inner = getattr(codec, "inner", None)
    if inner is not None:
        codec.decode(data)  # magic, length and CRC are the frame's own checks
        codec, data = inner, data[CHECKSUM_FRAME_BYTES:]
    dims, axes = codec.dims, codec._axes_count()
    internal = struct.Struct("<" + "f" * (2 * axes) + "I")
    leaf = struct.Struct("<" + "f" * (2 + 2 * dims) + "II")
    page_id, level, count, timestamp, _flags = _PAGE_HEADER.unpack_from(data, 0)
    node = ReferenceNode(page_id, level, timestamp)
    offset = _PAGE_HEADER.size
    for _ in range(count):
        if level == 0:
            values = leaf.unpack_from(data, offset)
            offset += leaf.size
            record = MotionSegment(
                values[-2],
                values[-1],
                SpaceTimeSegment(
                    Interval(values[0], values[1]),
                    tuple(values[2 : 2 + dims]),
                    tuple(values[2 + dims : 2 + 2 * dims]),
                ),
            )
            node.entries.append(
                LeafEntry(codec._leaf_box(record), record, timestamp=timestamp)
            )
        else:
            values = internal.unpack_from(data, offset)
            offset += internal.size
            box = Box(
                [Interval(values[2 * a], values[2 * a + 1]) for a in range(axes)]
            )
            node.entries.append(InternalEntry(box, values[-1], timestamp=timestamp))
    return node


_F32_MAX = 3.4028235e38


def _f32_clip(value: float) -> float:
    """Map ±inf onto the float32 range so struct 'f' packing succeeds."""
    if value == math.inf:
        return _F32_MAX
    if value == -math.inf:
        return -_F32_MAX
    return value


def reference_encode(codec, node) -> bytes:
    """The page bytes of ``node``, packed one entry object at a time with
    ``struct`` (``'f'`` bounds and coordinates, ``'I'`` ids); an internal
    page stores an infinite bound as the largest float32 of its sign.

    ``node`` is anything with ``page_id``, ``level``, ``timestamp`` and
    ``entries`` (a :class:`ReferenceNode` or a column ``Node``).  ``codec``
    is a ``NativeNodeCodec`` / ``DualTimeNodeCodec``, bare or inside a
    ``ChecksummedCodec`` (whose frame this then writes with ``zlib``).
    """
    inner = getattr(codec, "inner", None)
    if inner is not None:
        payload = reference_encode(inner, node)
        frame = struct.pack("<2sHI", b"RP", len(payload), zlib.crc32(payload))
        return frame + payload
    dims, axes = codec.dims, codec._axes_count()
    internal = struct.Struct("<" + "f" * (2 * axes) + "I")
    leaf = struct.Struct("<" + "f" * (2 + 2 * dims) + "II")
    entries = list(node.entries)
    out = [_PAGE_HEADER.pack(node.page_id, node.level, len(entries), node.timestamp, 0)]
    for e in entries:
        if node.level == 0:
            rec = e.record
            seg = rec.segment
            out.append(leaf.pack(
                seg.time.low, seg.time.high, *seg.origin, *seg.velocity,
                rec.object_id, rec.seq,
            ))
        else:
            coords = []
            for ext in e.box:
                coords += [_f32_clip(ext.low), _f32_clip(ext.high)]
            out.append(internal.pack(*coords, e.child_id))
    return b"".join(out)


class ReferenceDecodeCodec:
    """A page codec that writes ``codec``'s bytes and reads them back
    through :func:`reference_decode`: the same store, served as
    :class:`ReferenceNode` entry lists (for walks that only read)."""

    def __init__(self, codec):
        self.codec = codec
        self.containment_slack = codec.containment_slack

    def encode(self, payload) -> bytes:
        return self.codec.encode(payload)

    def decode(self, data: bytes) -> ReferenceNode:
        return reference_decode(self.codec, data)


def scalar_box_overlap(trajectory, box) -> TimeSet:
    """``T_{Q,R}`` of one native-space box ``<t, x_1, .., x_d>``, the
    scalar way: the union of ``moving_window_box_overlap`` over the
    trajectory segments the box's time extent meets (the oracle of
    ``QueryTrajectory.live_components`` on a box batch)."""
    return TimeSet(
        moving_window_box_overlap(trajectory.segments[j], box)
        for j in trajectory._segment_range(box.extent(0))
    )


def scalar_frame_window(trajectory, start, end):
    """The window of ``QueryTrajectory.frame_query`` before it became the
    one-row case of ``kernels.frame_windows``: the windows at both ends
    covered, then every key window strictly inside the frame, one
    ``Box.cover`` at a time."""
    window = trajectory.window_at(start).cover(trajectory.window_at(end))
    for j in trajectory._segment_range(Interval(start, end)):
        key = trajectory.key_snapshots[j + 1]
        if start < key.time < end:
            window = window.cover(key.window)
    return window


def scalar_frame_query(trajectory, start, end):
    """``QueryTrajectory.frame_query`` as it was: the scalar frame window
    over ``[start, end]``, refused by ``SnapshotQuery`` when empty."""
    return SnapshotQuery(Interval(start, end), scalar_frame_window(trajectory, start, end))


def scalar_choose_subtree(boxes, box) -> int:
    """Guttman ChooseLeaf as ``RTree._choose_path`` folded it: the first
    index whose ``(enlargement, volume)`` is least under tuple ``<``."""
    best = 0
    best_key = (boxes[0].enlargement(box), boxes[0].volume())
    for k in range(1, len(boxes)):
        key = (boxes[k].enlargement(box), boxes[k].volume())
        if key < best_key:
            best, best_key = k, key
    return best


def scalar_incremental_knn(index, t, point, cost=None, max_distance=math.inf):
    """``incremental_knn`` as it walked entry objects: one distance
    computation charged per entry, ``Box``/``MotionSegment`` arithmetic."""
    tree = index.tree
    tie = itertools.count()
    bound_sq = max_distance * max_distance
    heap = [(0.0, next(tie), tree.root_id, None)]
    while heap:
        dist_sq, _, page_id, record = heapq.heappop(heap)
        if dist_sq > bound_sq:
            return
        if record is not None:
            yield record, math.sqrt(dist_sq)
            continue
        node = tree.load_node(page_id, cost)
        for e in node.entries:
            if cost is not None:
                cost.count_distance_computations()
            if node.is_leaf:
                if not e.record.time.contains(t):
                    continue
                pos = e.record.position_at(t)
                d_sq = sum((a - b) ** 2 for a, b in zip(pos, point))
                item = (-1, e.record)
            else:
                if not e.box.extent(0).contains(t):
                    continue
                d_sq = 0.0
                for i, c in enumerate(point):
                    ext = e.box.extent(i + 1)
                    d = ext.low - c if c < ext.low else c - ext.high if c > ext.high else 0.0
                    d_sq += d * d
                item = (e.child_id, None)
            if d_sq <= bound_sq:
                heapq.heappush(heap, (d_sq, next(tie), *item))


# -- the dual-tree discard rule and the NPDQ traversals, one entry at a time --
#
# The scalar code the engines ran before ``kernels.live_rows`` replaced
# it, kept as the reference the mask-first traversals are tested against.


def scalar_live_rows(entries, query, prev=None, clock=-1):
    """Indices of ``entries`` that survive ``(Q ∩ R) ⊆ P ∧ stamp ≤ clock``."""
    live = []
    for k, e in enumerate(entries):
        shared = e.box.intersect(query)
        if shared.is_empty:
            continue
        if prev is not None and e.timestamp <= clock and prev.contains_box(shared):
            continue
        live.append(k)
    return live


def scalar_frontier_walk(
    index, query_box, prev_box=None, prev_clock=-1, cost=None, failed=None
):
    """``DualTimeIndex.frontier_walk`` with the per-entry scalar rule."""
    pages = []
    stack = [index.tree.root_id]
    while stack:
        page_id = stack.pop()
        pages.append(page_id)
        try:
            node = index.tree.load_node(page_id, cost)
        except (TransientIOError, CorruptPageError):
            if failed is not None:
                failed.append(page_id)
            continue
        if node.is_leaf:
            continue
        for _ in node.entries:
            if cost is not None:
                cost.count_distance_computations()
        for k in scalar_live_rows(node.entries, query_box, prev_box, prev_clock):
            stack.append(node.entries[k].child_id)
    return pages


class ScalarNPDQEngine(NPDQEngine):
    """``NPDQEngine`` with ``snapshot`` as it was before the mask-first
    page routine: one pass over every entry of every loaded page, scalar
    geometry, a cost counter bumped per entry outcome."""

    def predict_pages(self, query, cost=None, failed=None):
        dual = self.index.query_box(query.time, query.window)
        prev = self._prev
        if prev is None:
            return scalar_frontier_walk(self.index, dual, cost=cost, failed=failed)
        return scalar_frontier_walk(
            self.index, dual, prev.dual_box, prev.clock, cost, failed
        )

    def snapshot(self, query):
        prev = self._prev
        tree = self.index.tree
        dual = self.index.query_box(query.time, query.window)
        native = query.to_native_box()
        open_native = Box(
            [Interval(query.time.low, math.inf)] + list(query.window)
        )
        before = self.cost.snapshot()
        items = []
        prefetched = []
        self.last_loaded_pages = []
        snapshot_skips = 0
        attempts = {}
        stack = [tree.root_id]
        while stack:
            page_id = stack.pop()
            try:
                node = tree.load_node(page_id, self.cost)
            except (TransientIOError, CorruptPageError):
                if self.fault_budget is None:
                    raise
                tries = attempts.get(page_id, 0)
                if tries < self.fault_budget:
                    attempts[page_id] = tries + 1
                    stack.insert(0, page_id)  # retry after the rest
                else:
                    self.skipped_subtrees.append(page_id)
                    snapshot_skips += 1
                    self._degraded = True
                continue
            self.last_loaded_pages.append(page_id)
            if node.is_leaf:
                for e in node.entries:
                    self.cost.count_distance_computations()
                    shared = e.box.intersect(dual)
                    if shared.is_empty:
                        continue
                    segment = e.record.segment
                    if prev is not None and e.timestamp <= prev.clock:
                        if prev.dual_box.contains_box(shared):
                            continue
                        self.cost.count_segment_tests()
                        if not segment_box_overlap_interval(
                            segment, prev.native_box
                        ).is_empty:
                            continue
                    visibility = segment_box_overlap_interval(segment, open_native)
                    if not self.exact and visibility.is_empty:
                        visibility = Interval(query.time.low, e.record.time.high)
                    if self.exact:
                        self.cost.count_segment_tests()
                        if segment_box_overlap_interval(segment, native).is_empty:
                            if visibility.is_empty:
                                visibility = Interval(
                                    query.time.low, e.record.time.high
                                )
                            prefetched.append(AnswerItem(e.record, visibility))
                            continue
                    self.cost.count_results()
                    items.append(AnswerItem(e.record, visibility))
            else:
                for _ in node.entries:
                    self.cost.count_distance_computations()
                live = (
                    scalar_live_rows(node.entries, dual)
                    if prev is None
                    else scalar_live_rows(
                        node.entries, dual, prev.dual_box, prev.clock
                    )
                )
                for k in live:  # the others are discardable (Lemma 1)
                    stack.append(node.entries[k].child_id)
        self._memory = [*native.lows, *native.highs, float(tree.clock)]
        return SnapshotResult(
            query_time=query.time,
            items=items,
            cost=self.cost.snapshot() - before,
            prefetched=prefetched,
            degraded=self._degraded,
            skipped_subtrees=snapshot_skips,
        )


class ScalarDynamicQuerySession(DynamicQuerySession):
    """``DynamicQuerySession`` with ``observe`` as it was before the
    block: one session at a time, ``Box`` algebra for the teleport test,
    ``window_at(t).center`` for the prediction check, and each frame
    evaluated alone — a predictive engine's own ``window``, a
    snapshot/non-predictive frame's own ``NPDQEngine.snapshot``."""

    def _window(self, center):
        return Box.from_bounds(
            [c - h for c, h in zip(center, self.half_extents)],
            [c + h for c, h in zip(center, self.half_extents)],
        )

    def _prediction_holds(self, t, center):
        assert self._predicted is not None
        if t > self._pdq_until:
            return False
        predicted = self._predicted.window_at(t).center
        deviation = math.dist(tuple(center), predicted)
        return deviation <= max(self.deviation_tolerance, self.spdq_delta)

    def observe(self, t, center):
        center = tuple(center)
        if len(center) != self.native_index.dims:
            raise SessionError(
                f"center has {len(center)} dims, indexes have "
                f"{self.native_index.dims}"
            )
        if self._last_time is not None and t <= self._last_time:
            raise SessionError("frames must advance strictly in time")

        window = self._window(center)
        prev_window = None
        if self._last_time is not None:
            prev_window = self._window(self._last_center)
            inter = prev_window.intersect(window)
            overlap = inter.volume() / window.volume() if window.volume() else 0.0
            if overlap < self.teleport_overlap:
                prev_window = None
        fresh = prev_window is None
        report = FrameReport(time=t, mode=self._mode)

        velocity = None
        if not fresh:
            dt = t - self._last_time
            velocity = tuple(
                (c - p) / dt for c, p in zip(center, self._last_center)
            )
            if self._last_velocity is not None and all(
                abs(a - b) <= self.velocity_tolerance
                for a, b in zip(velocity, self._last_velocity)
            ):
                self._stable_count += 1
            else:
                self._stable_count = 0
        else:
            self._stable_count = 0

        if fresh:
            self._drop_pdq()
            self._npdq.reset()
            self._set_mode(t, SessionMode.SNAPSHOT)
        elif self._pdq is not None and self._prediction_holds(t, center):
            self._set_mode(t, SessionMode.PREDICTIVE)
        else:
            self._drop_pdq()
            if self._stable_count >= self.stability_frames:
                assert velocity is not None
                self._last_velocity = velocity
                self._start_prediction(t, center)
                self._set_mode(t, SessionMode.PREDICTIVE)
            else:
                self._set_mode(t, SessionMode.NON_PREDICTIVE)

        if self._mode is SessionMode.PREDICTIVE:
            assert self._pdq is not None
            items = self._pdq.window(self._last_time, t)
        else:
            if prev_window is None:
                query = SnapshotQuery(Interval.point(t), window)
            else:
                span = Interval(self._last_time, t)
                query = SnapshotQuery(span, window.cover(prev_window))
            before = self._npdq.cost.snapshot()
            result = self._npdq.snapshot(query)
            self.cost.absorb(self._npdq.cost.snapshot() - before)
            items = result.items
            for item in result.prefetched:
                self.cache.insert(item)

        for item in items:
            self.cache.insert(item)
        report.mode = self._mode
        report.new_items = items
        report.evicted_ids = self.cache.advance(t)
        report.visible_count = len(self.cache)

        self._last_time = t
        self._last_center = center
        self._last_velocity = velocity if velocity is not None else self._last_velocity
        return report
