"""Non-Predictive Dynamic Queries (Sect. 4.2).

The trajectory is unknown, so each snapshot is evaluated when it
arrives — but against the memory of the *previous* snapshot ``P``:

* a node ``R`` is **discardable** for the current snapshot ``Q`` iff
  ``(Q ∩ R) ⊆ P`` (Lemma 1): everything of ``R`` that matters to ``Q``
  was already inspected by ``P``;
* a motion segment is suppressed iff ``P`` delivered it, because the
  client still holds it.

**Soundness subtlety** (found by this library's fuzz tests): Lemma 1
reasons about *bounding boxes*, so it is only sound if delivery does
too.  With the exact leaf-level segment test of Sect. 3.2 alone, a
segment whose box overlaps ``P`` but whose trajectory first enters the
window during ``Q`` would be silently lost — ``Q`` discards its node
("``P`` covered it") while ``P``'s exact test rejected it.  The engine
therefore suppresses on box coverage and hands such box-only admissions
to the client as ``prefetched`` answers; ``items`` remain exactly the
snapshot's true answers.

Plain time axes make discardability vacuous (consecutive snapshots never
overlap temporally), so the engine runs over the
:class:`~repro.index.DualTimeIndex` — the paper's chosen fix (Fig. 5(b)).

Update management: an insertion stamps every entry along its insertion
path with the index's operation clock.  While searching, a bounding box
whose timestamp is newer than the previous query's clock reading must
not be discarded against ``P`` (``P`` never saw its new content); the
normal overlap test is used instead.  Likewise a leaf entry inserted
after ``P`` ran is never suppressed.

Evaluation is page-major (:func:`snapshot_all`): the snapshots of many
engines over one tree are evaluated in one level-by-level sweep that
loads each page once and applies every reader's discard rule to it in
one kernel call, then replays each engine's depth-first order over what
it found.  :meth:`NPDQEngine.snapshot` is the sweep of one engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.results import AnswerItem, SnapshotResult
from repro.core.snapshot import SnapshotQuery
from repro.core.trajectory import QueryTrajectory
from repro.errors import CorruptPageError, QueryError, TransientIOError
from repro.geometry import kernels
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.index.dualtime import DualTimeIndex
from repro.storage.metrics import QueryCost

__all__ = ["NPDQEngine", "snapshot_all"]


@dataclass(frozen=True)
class _PreviousQuery:
    """What the engine remembers about the last snapshot."""

    dual_box: Box
    native_box: Box
    clock: int
    time: Interval


class NPDQEngine:
    """Incremental evaluator for a non-predictive dynamic query.

    Parameters
    ----------
    index:
        The :class:`~repro.index.DualTimeIndex` holding the segments.
    exact:
        Apply exact leaf-level segment tests (on by default).
    fault_budget:
        ``None`` (default) propagates storage faults.  An integer
        enables graceful degradation: a failing node load is re-enqueued
        up to this many extra times, then skipped.  Because the engine's
        memory of the previous snapshot then over-claims coverage, every
        snapshot from the first skip until :meth:`reset` is flagged
        ``degraded``.
    """

    def __init__(
        self,
        index: DualTimeIndex,
        exact: bool = True,
        fault_budget: Optional[int] = None,
    ):
        self.index = index
        self.exact = exact
        self.fault_budget = fault_budget
        self.skipped_subtrees: List[int] = []
        self.cost = QueryCost()
        self.last_loaded_pages: List[int] = []
        self._prev: Optional[_PreviousQuery] = None
        self._degraded = False

    # -- state -------------------------------------------------------------

    def reset(self) -> None:
        """Forget the previous snapshot (e.g. after a teleport).

        Also clears the sticky ``degraded`` flag: with no history to
        over-trust, the next snapshot is evaluated from scratch.
        """
        self._prev = None
        self._degraded = False

    @property
    def degraded(self) -> bool:
        """True once a subtree skip has tainted the engine's history."""
        return self._degraded

    @property
    def has_history(self) -> bool:
        """True once at least one snapshot has been evaluated."""
        return self._prev is not None

    # -- prediction ----------------------------------------------------------

    def predict_pages(
        self,
        query: SnapshotQuery,
        cost: Optional[QueryCost] = None,
        failed: Optional[List[int]] = None,
    ) -> List[int]:
        """Page ids :meth:`snapshot` would load for ``query``, read-only.

        Replays the snapshot descent — overlap against the dual-time
        query box, Lemma-1 coverage pruning against the remembered
        previous query — without evaluating leaf entries or advancing
        the engine's memory, so calling it changes no answer and no
        per-query cost (reads are charged to the caller-supplied
        ``cost``, if any, never to :attr:`cost`).  No serving path
        calls it; it stays because ``bench/trace.py`` patches it by name.

        Because :meth:`~repro.index.DualTimeIndex.frontier_walk` is
        monotone in the query box, predicting with any *superset* of
        the query actually evaluated later yields a superset of the
        pages actually loaded — provided the tree and the engine's
        previous-query memory are unchanged in between, which is the
        serving layer's tick discipline (updates apply strictly between
        ticks, prediction and evaluation happen within one).

        Storage faults never propagate: a failing page is included in
        the result (and in ``failed``) but its subtree stays
        unenumerated, so a faulty walk can only under-predict — which
        costs the evaluation demand fetches, never answers.
        """
        if query.dims != self.index.dims:
            raise QueryError(
                f"query has {query.dims} dims, index has {self.index.dims}"
            )
        dual = self.index.query_box(query.time, query.window)
        prev = self._prev
        if prev is None:
            return self.index.frontier_walk(dual, cost=cost, failed=failed)
        return self.index.frontier_walk(
            dual,
            prev_box=prev.dual_box,
            prev_clock=prev.clock,
            cost=cost,
            failed=failed,
        )

    # -- evaluation ----------------------------------------------------------

    def snapshot(self, query: SnapshotQuery) -> SnapshotResult:
        """Evaluate one snapshot, returning only *new* answers.

        The first snapshot (or the first after :meth:`reset`) is a plain
        range search; subsequent ones skip discardable subtrees and
        suppress answers the previous snapshot already delivered.
        Snapshots must advance in time (``P.t̄ ⪯ Q.t̄``).  This is the
        one-client case of :func:`snapshot_all`.
        """
        return snapshot_all([(self, query)])[0]

    def run(
        self, trajectory: QueryTrajectory, period: float
    ) -> List[SnapshotResult]:
        """Evaluate a whole frame series (the trajectory is *not* given
        to the algorithm in advance — it is consumed one snapshot at a
        time, exactly as an unpredictable observer would produce it)."""
        return [self.snapshot(q) for q in trajectory.frame_queries(period)]


class _Client:
    """One engine's share of a sweep: its query, rule and what it found."""

    def __init__(self, slot: int, engine: NPDQEngine, query: SnapshotQuery):
        if query.dims != engine.index.dims:
            raise QueryError(
                f"query has {query.dims} dims, index has {engine.index.dims}"
            )
        prev = engine._prev
        if prev is not None and not prev.time.precedes(query.time):
            raise QueryError(
                "snapshots of a dynamic query must be temporally ordered"
            )
        self.slot, self.engine, self.query, self.prev = slot, engine, query, prev
        self.cost, self.before = engine.cost, engine.cost.snapshot()
        engine.last_loaded_pages = []
        # fault_budget=None still gets the one retry after the rest of
        # the sweep, and raises only if that fails too
        self.retries = 1 if engine.fault_budget is None else engine.fault_budget
        self.dual = engine.index.query_box(query.time, query.window)
        self.native = query.to_native_box()
        # Open-ended variant used to compute disappearance times: how long
        # the object stays inside the *current* window from now on.
        self.open_native = Box(
            [Interval(query.time.low, math.inf)] + list(query.window)
        )
        self.rule = (
            kernels.DiscardRule(self.dual)
            if prev is None
            else kernels.DiscardRule(self.dual, prev.dual_box, prev.clock)
        )
        self.children: Dict[int, List[int]] = {}  # internal page -> live children
        self.answers: Dict[int, Tuple[list, list]] = {}  # leaf -> items, prefetched

    def assemble(self, root: int, fails: Dict[int, int]) -> SnapshotResult:
        """Replay the depth-first descent over what the sweep found, so
        the answers, page list and skips come out in its order: children
        in entry order, a failed page retried after the rest."""
        engine = self.engine
        stack, tried = [root], {}
        loaded: List[int] = []
        items: List[AnswerItem] = []
        prefetched: List[AnswerItem] = []
        skips = 0
        while stack:
            page_id = stack.pop()
            n = tried.get(page_id, 0)
            if n < fails.get(page_id, 0):  # this attempt failed
                if n < self.retries:
                    tried[page_id] = n + 1
                    stack.insert(0, page_id)  # retry after the rest
                else:
                    engine.skipped_subtrees.append(page_id)
                    skips += 1
                    engine._degraded = True
                continue
            loaded.append(page_id)
            children = self.children.get(page_id)
            if children is not None:
                stack.extend(children)
            elif page_id in self.answers:
                found, admitted = self.answers[page_id]
                items.extend(found)
                prefetched.extend(admitted)
        engine.last_loaded_pages = loaded
        query = self.query
        engine._prev = _PreviousQuery(
            self.dual, self.native, engine.index.tree.clock, query.time
        )
        return SnapshotResult(
            query_time=query.time,
            items=items,
            cost=self.cost.snapshot() - self.before,
            prefetched=prefetched,
            degraded=engine._degraded,
            skipped_subtrees=skips,
        )


def _descend(tree, clients: List[_Client]):
    """Load every page some client's descent reaches, each once a level.

    Returns the leaf pages with live rows, ``(client, page id, arrays,
    rows)``, and the failed attempts per page.  Each demanding client is
    charged the read and one distance computation per entry, as its own
    ``load_node`` would; a page whose load fails is retried after the
    rest while a demanding client still allows it.
    """
    block = kernels.DiscardRule.stack([c.rule for c in clients])
    leaves = []
    fails: Dict[int, int] = {}
    pending: Dict[int, List[_Client]] = {tree.root_id: clients}
    retry: Dict[int, List[_Client]] = {}
    while pending:
        below: Dict[int, List[_Client]] = {}
        for page_id in sorted(pending):
            demand = pending[page_id]
            try:
                node = tree.load_node(page_id)
            except (TransientIOError, CorruptPageError):
                n = fails[page_id] = fails.get(page_id, 0) + 1
                if n > 1 and any(c.engine.fault_budget is None for c in demand):
                    raise
                again = [c for c in demand if n <= c.retries]
                if again:
                    retry[page_id] = again
                continue
            leaf, size = node.is_leaf, len(node.entries)
            for c in demand:
                c.cost.count_node_read(leaf)
                c.cost.count_distance_computations(size)
            rule = (
                block
                if len(demand) == len(clients)
                else block.take([c.slot for c in demand])
            )
            arrays = node.entries
            live = kernels.live_rows(arrays.box_batch(), arrays.stamps(), rule)
            for c, rows in zip(demand, live):
                if not leaf:
                    children = c.children[page_id] = [
                        arrays.child_id(k) for k in rows
                    ]
                    for child in children:
                        below.setdefault(child, []).append(c)
                elif rows:  # the usual leaf has none: no segment column
                    leaves.append((c, page_id, arrays, rows))
        if not below:
            below, retry = retry, {}
        pending = below
    return leaves, fails


def _evaluate_leaves(leaves) -> None:
    """The segment tests of every live leaf row of a sweep, two kernel
    calls in all, each row against its own client's boxes.

    Suppression mirrors Lemma 1's box semantics: if ``P``'s boxes
    covered an entry, ``P``'s run delivered it (possibly as a prefetch)
    and the client has it — those rows are already dead.  An exact-``P``
    hit is an equivalent witness, asked only of rows old enough for
    ``P`` to have seen them.  The exact-``Q`` test needs no call of its
    own: ``Q`` is the visibility box cut at ``Q.t̄.high``, so the row
    misses ``Q`` iff its visibility is empty or starts after that.
    """
    old_rows = []
    for c, _page_id, arrays, rows in leaves:
        old: List[int] = []
        if c.prev is not None:
            stamps, clock = arrays.stamps(), c.prev.clock
            old = [k for k in rows if stamps[k] <= clock]
            c.cost.count_segment_tests(len(old))
        old_rows.append(old)
    seen = _overlaps(
        (c.prev.native_box, arrays, old)
        for (c, _, arrays, _), old in zip(leaves, old_rows)
        if old
    )
    survivors = []
    for (c, _page_id, _arrays, rows), old in zip(leaves, old_rows):
        delivered = {k for k in old if not next(seen).is_empty}
        live = [k for k in rows if k not in delivered]
        if c.engine.exact:
            c.cost.count_segment_tests(len(live))
        survivors.append(live)
    visible = _overlaps(
        (c.open_native, arrays, live)
        for (c, _, arrays, _), live in zip(leaves, survivors)
        if live
    )
    for (c, page_id, arrays, _rows), live in zip(leaves, survivors):
        items: List[AnswerItem] = []
        prefetched: List[AnswerItem] = []
        horizon = c.query.time
        for k in live:
            record = arrays.record(k)
            visibility = next(visible)
            missed = visibility.is_empty or visibility.low > horizon.high
            if visibility.is_empty:
                # A box-only admission never enters the window: give it
                # a retention-hint interval instead.
                visibility = Interval(horizon.low, record.time.high)
            if c.engine.exact and missed:
                # Box-only admission: not an answer of Q, but future
                # snapshots may assume the client got it (see the module
                # docstring).
                prefetched.append(AnswerItem(record, visibility))
                continue
            c.cost.count_results()
            items.append(AnswerItem(record, visibility))
        c.answers[page_id] = (items, prefetched)


def _overlaps(tasks) -> Iterator[Interval]:
    """``segment_box_overlap_batch`` of every ``(box, arrays, rows)``
    task's rows against its box, in task order, in one call."""
    tasks = list(tasks)
    if not tasks:
        return iter(())
    lows, highs = [], []
    for box, _arrays, rows in tasks:
        lows.extend([box.lows] * len(rows))
        highs.extend([box.highs] * len(rows))
    return iter(kernels.segment_box_overlap_batch(
        kernels.SegmentBatch.gather(
            [(arrays.segment_batch(), rows) for _box, arrays, rows in tasks]
        ),
        kernels.BoxBatch(lows, highs),
    ))


def snapshot_all(
    pairs: Sequence[Tuple[NPDQEngine, SnapshotQuery]]
) -> List[SnapshotResult]:
    """Evaluate one snapshot for each ``(engine, query)``, page-major.

    Every engine must run over the same :class:`DualTimeIndex`.  The
    tree is swept level by level: each page some engine's descent
    reaches is loaded once, in page-id order, and its discard rule
    evaluated for all the engines reading it in one
    :func:`kernels.live_rows` call; the leaf rows that survive go
    through two segment-kernel calls for the whole sweep.  Each engine
    gets what :meth:`NPDQEngine.snapshot` alone would give it — answers,
    page list and skips in depth-first order, every ``QueryCost`` count
    — except that the sweep reads a shared page once, and that one
    failed load is retried after the rest of the sweep for everybody: an
    engine without a fault budget raises only if that retry fails too,
    one with a budget re-queues up to its count and then skips the
    subtree.
    """
    if not pairs:
        return []
    index = pairs[0][0].index
    if any(e.index is not index for e, _ in pairs):
        raise QueryError("a sweep evaluates engines over one index")
    if len({id(e) for e, _ in pairs}) != len(pairs):
        raise QueryError("an engine evaluates one snapshot per sweep")
    clients = [_Client(slot, e, q) for slot, (e, q) in enumerate(pairs)]
    leaves, fails = _descend(index.tree, clients)
    _evaluate_leaves(leaves)
    return [c.assemble(index.tree.root_id, fails) for c in clients]

