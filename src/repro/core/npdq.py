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

Evaluation is page-major (:func:`snapshot_block`): the snapshots of
many engines over one tree are one block of rows — the queries, each
engine's remembered ``P`` and the rule built from both are columns — evaluated
in one level-by-level sweep that loads each page once and then applies
the discard rule to every ``(engine, page)`` pair of the level in one
kernel call, tests the surviving leaf rows in one more, then replays
each engine's depth-first order over what it found.
:meth:`NPDQEngine.snapshot` is the sweep of one engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.results import AnswerBlock, SnapshotResult
from repro.core.snapshot import SnapshotQuery
from repro.core.trajectory import QueryTrajectory
from repro.errors import CorruptPageError, QueryError, TransientIOError
from repro.geometry import kernels
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.index.dualtime import DualTimeIndex
from repro.storage.metrics import CostSnapshot, QueryCost

__all__ = ["NPDQEngine", "snapshot_all", "snapshot_block"]


@dataclass(frozen=True)
class _PreviousQuery:
    """What the engine remembers about the last snapshot, as boxes."""

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
        #: the last snapshot's native box lows, highs and the clock
        #: reading, as :meth:`kernels.QueryBlock.memory` gives it
        self._memory: Optional[List[float]] = None
        self._degraded = False

    # -- state -------------------------------------------------------------

    def reset(self) -> None:
        """Forget the previous snapshot (e.g. after a teleport).

        Also clears the sticky ``degraded`` flag: with no history to
        over-trust, the next snapshot is evaluated from scratch.
        """
        self._memory = None
        self._degraded = False

    @property
    def _prev(self) -> Optional[_PreviousQuery]:
        """The memory of the last snapshot as boxes."""
        row = self._memory
        if row is None:
            return None
        axes = self.index.dims + 1
        native = Box.from_bounds(row[:axes], row[axes:-1])
        dual = self.index.query_box(native.extent(0), Box(native.extents[1:]))
        return _PreviousQuery(dual, native, int(row[-1]), native.extent(0))

    @property
    def degraded(self) -> bool:
        """True once a subtree skip has tainted the engine's history."""
        return self._degraded

    @property
    def has_history(self) -> bool:
        """True once at least one snapshot has been evaluated."""
        return self._memory is not None

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


class _Block:
    """The clients of one sweep, engine ``c`` row ``c`` of a
    :class:`kernels.QueryBlock`, and what the sweep found for each."""

    def __init__(self, engines: Sequence[NPDQEngine], queries: kernels.QueryBlock):
        # Every refusal comes before any engine is touched.
        index = engines[0].index
        if any(e.index is not index for e in engines):
            raise QueryError("a sweep evaluates engines over one index")
        if len({id(e) for e in engines}) != len(engines):
            raise QueryError("an engine evaluates one snapshot per sweep")
        if queries.dims != index.dims:
            raise QueryError(f"query has {queries.dims} dims, index has {index.dims}")
        axes = index.dims + 1
        for e, time in zip(engines, queries.times):
            if time.is_empty:
                raise QueryError("snapshot query has empty temporal extent")
            if e._memory is not None and not e._memory[axes] <= time.low:
                raise QueryError("snapshots of a dynamic query must be temporally ordered")
        self.engines, self.queries = engines, queries
        self.rule = queries.recall([e._memory for e in engines])
        # fault_budget=None still gets the one retry after the rest of
        # the sweep, and raises only if that fails too
        self.retries = [1 if e.fault_budget is None else e.fault_budget for e in engines]
        # per client: internal and leaf reads, distance computations,
        # segment tests and results (charged once a sweep); internal page
        # -> live children; leaf -> rows and records of items, prefetches
        self.tally = [[0, 0, 0, 0, 0] for _ in engines]
        self.children: List[Dict[int, List[int]]] = [{} for _ in engines]
        self.answers: List[Dict[int, Tuple[list, list, list, list]]] = [{} for _ in engines]
        for e in engines:
            e.last_loaded_pages = []

    def assemble(self, root: int, fails: Dict[int, int], shares) -> List[SnapshotResult]:
        """Replay each client's depth-first descent over what the sweep
        found, so its answers, page list and skips come out in that
        order: children in entry order, a failed page retried after the
        rest."""
        memory = self.queries.memory(self.engines[0].index.tree.clock)
        results = []
        for c, engine in enumerate(self.engines):
            children, answers, retries = self.children[c], self.answers[c], self.retries[c]
            stack, tried = [root], {}
            loaded: List[int] = []
            found: Tuple[list, list, list, list] = ([], [], [], [])
            skips = 0
            while stack:
                page_id = stack.pop()
                n = tried.get(page_id, 0)
                if n < fails.get(page_id, 0):  # this attempt failed
                    if n < retries:
                        tried[page_id] = n + 1
                        stack.insert(0, page_id)  # retry after the rest
                    else:
                        engine.skipped_subtrees.append(page_id)
                        skips += 1
                        engine._degraded = True
                    continue
                loaded.append(page_id)
                below = children.get(page_id)
                if below is not None:
                    stack.extend(below)
                elif page_id in answers:
                    for column, part in zip(found, answers[page_id]):
                        column.extend(part)
            engine.last_loaded_pages = loaded
            engine._memory = memory[c]
            results.append(SnapshotResult(
                query_time=self.queries.times[c],
                items=AnswerBlock.of(found[0], found[1]),
                cost=shares[c],
                prefetched=AnswerBlock.of(found[2], found[3]),
                degraded=engine._degraded,
                skipped_subtrees=skips,
            ))
        return results


def _descend(tree, block: _Block):
    """Load every page some client's descent reaches, each once a level.

    Returns the leaf pages with live rows, ``(client, page id, arrays,
    rows)``, and the failed attempts per page.  Each demanding client is
    tallied the read and one distance computation per entry, as its own
    ``load_node`` would; a page whose load fails is retried after the
    rest while a demanding client still allows it.  The pages a level
    loaded are evaluated for all their readers in one
    :func:`kernels.level_live_rows` call against the block's rule.
    """
    leaves = []
    fails: Dict[int, int] = {}
    pending: Dict[int, List[int]] = {tree.root_id: list(range(len(block.engines)))}
    retry: Dict[int, List[int]] = {}
    tally = block.tally
    while pending:
        loaded = []
        for page_id in sorted(pending):
            demand = pending[page_id]
            try:
                node = tree.load_node(page_id)
            except (TransientIOError, CorruptPageError):
                n = fails[page_id] = fails.get(page_id, 0) + 1
                if n > 1 and any(block.engines[c].fault_budget is None for c in demand):
                    raise
                again = [c for c in demand if n <= block.retries[c]]
                if again:
                    retry[page_id] = again
                continue
            arrays = node.entries
            read, size = int(node.is_leaf), len(arrays)
            for c in demand:
                tally[c][read] += 1
                tally[c][2] += size
            loaded.append((page_id, arrays, demand))
        live = iter(kernels.level_live_rows(
            [(arrays.box_batch(), arrays.stamps(), demand) for _, arrays, demand in loaded],
            block.rule,
        ))
        below: Dict[int, List[int]] = {}
        for page_id, arrays, demand in loaded:
            for c in demand:
                rows = next(live)
                if not arrays.is_leaf:
                    children = block.children[c][page_id] = [
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


def _evaluate_leaves(block: _Block, leaves) -> None:
    """The segment tests of every live leaf row of a sweep, in one
    :meth:`kernels.QueryBlock.leaf_tests` call, each row against its own
    client's boxes.

    Suppression mirrors Lemma 1's box semantics: if ``P``'s boxes
    covered an entry, ``P``'s run delivered it (possibly as a prefetch)
    and the client has it — those rows are already dead.  An exact-``P``
    hit is an equivalent witness, asked only of rows old enough for
    ``P`` to have seen them.  The exact-``Q`` test needs no call of its
    own: ``Q`` is the visibility box cut at ``Q.t̄.high``, so the row
    misses ``Q`` iff its visibility is empty or starts after that.
    """
    if not leaves:
        return
    tests = block.queries.leaf_tests([
        (arrays.segment_batch(), arrays.stamps(), rows, c)
        for c, _page_id, arrays, rows in leaves
    ])
    times = block.queries.times
    for c, page_id, arrays, rows in leaves:
        tally, exact, horizon = block.tally[c], block.engines[c].exact, times[c]
        found: Tuple[list, list, list, list] = ([], [], [], [])
        for k in rows:
            old, seen, low, high = next(tests)
            tally[3] += old + exact * (not seen)
            if seen:
                continue
            record = arrays.record(k)
            missed = low > high or low > horizon.high
            if low > high:
                # A box-only admission never enters the window: give it
                # a retention-hint interval instead.
                low, high = horizon.low, record.time.high
            if exact and missed:
                # Box-only admission: not an answer of Q, but future
                # snapshots may assume the client got it (see the module
                # docstring).
                found[2].append((record.object_id, record.seq, low, high))
                found[3].append(record)
                continue
            tally[4] += 1
            found[0].append((record.object_id, record.seq, low, high))
            found[1].append(record)
        block.answers[c][page_id] = found


def snapshot_all(
    pairs: Sequence[Tuple[NPDQEngine, SnapshotQuery]]
) -> List[SnapshotResult]:
    """Evaluate one snapshot for each ``(engine, query)``, page-major:
    :func:`snapshot_block` of the block of the queries."""
    if not pairs:
        return []
    dims = pairs[0][0].index.dims
    if any(q.dims != dims for _, q in pairs):
        raise QueryError(f"a query's dims differ from the index's {dims}")
    return snapshot_block(
        [e for e, _ in pairs], kernels.QueryBlock.of([q for _, q in pairs])
    )


def snapshot_block(
    engines: Sequence[NPDQEngine], queries: kernels.QueryBlock
) -> List[SnapshotResult]:
    """Evaluate query ``c`` of the block for engine ``c``, page-major.

    Every engine must run over the same :class:`DualTimeIndex`, once;
    a sweep that refuses a member refuses all of them before it touches
    any engine.  The tree is swept level by level: each page some
    engine's descent reaches is loaded once, in page-id order, and then
    the discard rule is evaluated for every ``(engine, page)`` pair of
    the level in one :func:`kernels.level_live_rows` call, against one
    rule block built from the query block and the engines' ``P`` rows;
    the leaf rows that survive go through one
    :meth:`kernels.QueryBlock.leaf_tests` call for the whole sweep.
    Each engine gets what :meth:`NPDQEngine.snapshot` alone would give
    it — answers, page list and skips in depth-first order, every
    ``QueryCost`` count — except that the sweep reads a shared page
    once, and that one failed load is retried after the rest of the
    sweep for everybody: an engine without a fault budget raises only if
    that retry fails too, one with a budget re-queues up to its count
    and then skips the subtree.
    """
    if not engines:
        return []
    block = _Block(engines, queries)
    tree = engines[0].index.tree
    try:
        leaves, fails = _descend(tree, block)
        _evaluate_leaves(block, leaves)
    finally:  # what a raising sweep read is charged, as each load was
        shares = [CostSnapshot(*tally) for tally in block.tally]
        for engine, share in zip(engines, shares):
            engine.cost.absorb(share)
    return block.assemble(tree.root_id, fails, shares)
