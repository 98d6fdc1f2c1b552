"""Spans around the program's layer boundaries, recorded from outside.

The tracer replaces boundary callables (class attributes and two module
functions) with timing wrappers for the duration of a traced run and
puts the originals back afterwards; nothing under ``src/`` is edited.
A span is ``[name, start, end, parent, tick, count, busy, weight]``.
Per-call hot boundaries (``load_node``, codec, disk, pins, polls) are
*folded*: one span per (parent, name) carrying the call count and summed
time, so memory stays bounded.  A layer's self time is its busy time
minus the busy time of its children.  ``weight`` is a byte count on the
few boundaries that move bytes (frames packed and parsed, WAL syncs).

Worker processes are not traced: on the process tier the front-end's
round trip is visible and shard compute is read off ``spread_mux2``.
Geometry is too hot to wrap; it is attributed as micro-timing x
``QueryCost`` counts (see ``bench/layers.py``).
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.knn import MovingKNN
from repro.core.npdq import NPDQEngine
from repro.core.pdq import PDQEngine
from repro.core.session import DynamicQuerySession
from repro.index.codec import DualTimeNodeCodec, NativeNodeCodec
from repro.index.dualtime import DualTimeIndex
from repro.index.rtree import RTree
from repro.server import broker as broker_mod
from repro.server import session as session_mod
from repro.server import shard as shard_mod
from repro.server.dispatcher import UpdateDispatcher
from repro.server.remote import broker as remote_mod
from repro.server.remote import protocol as protocol_mod
from repro.server.scheduler import SharedScanScheduler
from repro.storage.disk import DiskManager
from repro.storage.file import FileDiskManager, TickDurability
from repro.storage.wal import DurableIntentLog

NAME, START, END, PARENT, TICK, COUNT, BUSY, WEIGHT = range(8)

#: ``tick`` of the spans recorded while a deployment is being set up
SETUP = -1

_SESSION_KINDS = {
    "pdq": session_mod.PDQSession,
    "npdq": session_mod.NPDQSession,
    "auto": session_mod.AutoSession,
    "knn": session_mod.KNNSession,
    "aggregate": session_mod.AggregateSession,
}


def _wal_size(args) -> int:
    return os.path.getsize(args[0].path)


#: ``name -> (before, weigh)``: ``before(args)`` runs ahead of the call
#: and ``weigh(args, result, token)`` turns the outcome into bytes.
_WEIGHTS: Dict[str, Tuple[Optional[Callable], Callable]] = {
    "server.remote.protocol.pack": (None, lambda args, out, _: len(out)),
    "server.remote.protocol.decode": (None, lambda args, out, _: len(args[0])),
    # sync() flushes everything buffered, so the file's growth across
    # one call is what that call appended
    "storage.wal.sync": (_wal_size, lambda args, out, was: _wal_size(args) - was),
}


def _boundaries() -> List[Tuple[object, str, str, bool]]:
    """``(owner, attribute, span name, folded)`` for every boundary."""
    out: List[Tuple[object, str, str, bool]] = [
        (remote_mod.RemoteMultiplexBroker, "run_tick", "server.remote.run_tick", False),
        (shard_mod.MultiplexBroker, "run_tick", "server.shard.run_tick", False),
        (broker_mod.QueryBroker, "run_tick", "server.broker.run_tick", False),
        (UpdateDispatcher, "apply_until", "server.dispatcher.apply", False),
        (SharedScanScheduler, "begin_tick", "server.scheduler.begin_tick", False),
        (SharedScanScheduler, "pin_resident", "server.scheduler.pin_resident", True),
        (SharedScanScheduler, "end_tick", "server.scheduler.end_tick", False),
        (session_mod.ClientSession, "frontier_demand", "server.session.frontier_demand", True),
        (session_mod.ClientSession, "deliver", "server.session.deliver", True),
        (session_mod.ClientSession, "poll", "server.session.poll", True),
        (PDQEngine, "window", "core.pdq.window", False),
        (NPDQEngine, "snapshot", "core.npdq.snapshot", False),
        (NPDQEngine, "predict_pages", "core.npdq.predict_pages", True),
        (MovingKNN, "query", "core.knn.query", False),
        (DynamicQuerySession, "observe", "core.session.observe", False),
        (RTree, "load_node", "index.rtree.load_node", True),
        (RTree, "insert", "index.rtree.insert", True),
        (RTree, "delete", "index.rtree.delete", True),
        (DualTimeIndex, "frontier_walk", "index.dualtime.frontier_walk", True),
        (DiskManager, "read", "storage.disk.read", True),
        (TickDurability, "begin_tick", "storage.file.begin_tick", False),
        (TickDurability, "commit_tick", "storage.file.commit_tick", False),
        (FileDiskManager, "checkpoint", "storage.file.checkpoint", False),
        (DurableIntentLog, "sync", "storage.wal.sync", True),
        # read_frame/write_frame run in the workers, out of sight
        (protocol_mod, "pack_frame", "server.remote.protocol.pack", True),
        (protocol_mod, "decode_body", "server.remote.protocol.decode", True),
    ]
    # every front-end reaches these two through its own module global
    for module in (broker_mod, shard_mod, remote_mod):
        out.append((module, "plan_query", "server.planner.plan", True))
        if module is not broker_mod:
            out.append((module, "merge_results", "server.shard.merge", True))
    for codec in (NativeNodeCodec, DualTimeNodeCodec):
        out.append((codec, "encode", "index.codec.encode", True))
        out.append((codec, "decode", "index.codec.decode", True))
    for kind, cls in _SESSION_KINDS.items():
        out.append((cls, "serve", f"server.session.{kind}.serve", False))
        if "frontier_demand" in vars(cls):
            out.append(
                (cls, "frontier_demand", "server.session.frontier_demand", True)
            )
    return out


_INHERITED = object()


class Tracer:
    """Install, record, uninstall.  Spans are recorded only while a root
    span (``begin_root`` .. ``end_root``) is open."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._folds: Dict[Tuple[int, str], int] = {}
        self._tick = SETUP
        self._originals: List[Tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, folded in _boundaries():
            # the codecs inherit encode/decode: shadow, then delete
            original = vars(owner).get(attr, _INHERITED)
            fn = getattr(owner, attr)
            make = self._folded if folded else self._span
            setattr(owner, attr, make(name, fn))
            self._originals.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            record = [name, clock(), 0.0, stack[-1], self._tick, 1, 0.0, 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = clock()
                record[BUSY] = record[END] - record[START]
                stack.pop()

        return traced

    def _folded(self, name: str, fn):
        spans, stack, folds = self.spans, self._stack, self._folds
        clock = time.perf_counter
        before, weigh = _WEIGHTS.get(name, (None, None))

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            key = (stack[-1], name)
            span_id = folds.get(key)
            token = before(args) if before is not None else None
            began = clock()
            if span_id is None:
                span_id = folds[key] = len(spans)
                spans.append([name, began, began, stack[-1], self._tick, 0, 0.0, 0])
            stack.append(span_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                ended = clock()
                record = spans[span_id]
                record[END] = ended
                record[COUNT] += 1
                record[BUSY] += ended - began
                stack.pop()
            if weigh is not None:
                record[WEIGHT] += weigh(args, out, token)
            return out

        return traced

    # -- roots -------------------------------------------------------------

    def begin_root(self, name: str, tick: int) -> None:
        """Open a root span: ``"tick"`` (run_tick + polling) with the
        tick index as the shared identifier, or ``"setup"``."""
        self._tick = tick
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, -1, tick, 1, 0.0, 0])

    def end_root(self) -> None:
        record = self.spans[self._stack.pop()]
        record[END] = time.perf_counter()
        record[BUSY] = record[END] - record[START]
        self._folds.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> List[float]:
        """Busy time of each span minus its children's."""
        own = [span[BUSY] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[BUSY]
        return own

    def totals(self, first_tick: int, last_tick: int) -> Dict[str, Dict[str, float]]:
        """Per span name over ticks ``first_tick..last_tick``: calls,
        busy seconds, self seconds and bytes."""
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "bytes": 0}
        )
        for span, own in zip(self.spans, self.self_times()):
            if first_tick <= span[TICK] <= last_tick:
                row = out[span[NAME]]
                row["calls"] += span[COUNT]
                row["busy_s"] += span[BUSY]
                row["self_s"] += own
                row["bytes"] += span[WEIGHT]
        return out

    def children_of(self, parent_name: str, child_name: str) -> List[List[float]]:
        """Busy seconds of the ``child_name`` spans under each
        ``parent_name`` span, in call order (one list per parent)."""
        groups: Dict[int, List[float]] = {
            i: [] for i, span in enumerate(self.spans) if span[NAME] == parent_name
        }
        for span in self.spans:
            if span[NAME] == child_name and span[PARENT] in groups:
                groups[span[PARENT]].append(span[BUSY])
        return list(groups.values())

    def worst_root_gap(self) -> float:
        """Largest relative gap, over root spans, between the root's
        duration and the self times recorded under it (0 when they add
        up, which they do unless a boundary re-enters itself)."""
        root_of: List[int] = []
        under: Dict[int, float] = defaultdict(float)
        for i, (span, own) in enumerate(zip(self.spans, self.self_times())):
            root_of.append(i if span[PARENT] < 0 else root_of[span[PARENT]])
            under[root_of[i]] += own
        return max(
            (
                abs(total - self.spans[i][BUSY]) / self.spans[i][BUSY]
                for i, total in under.items()
                if self.spans[i][BUSY] > 0.0
            ),
            default=0.0,
        )

    def dump(self, path: str, meta: Dict) -> None:
        """Write every span (times relative to the first) as JSON."""
        origin = self.spans[0][START] if self.spans else 0.0
        rows = [
            [s[NAME], s[START] - origin, s[END] - origin] + s[PARENT:]
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "meta": meta,
                    "columns": [
                        "name", "start_s", "end_s", "parent", "tick",
                        "count", "busy_s", "bytes",
                    ],
                    "spans": rows,
                },
                fh,
                separators=(",", ":"),
            )
            fh.write("\n")
