"""Fixtures for the serving-layer suite.

Broker tests mutate their indexes (updates, buffer pools, shedding), so
everything here is a per-test factory over the shared tiny segment list
rather than the session-scoped read-only indexes.
"""

from __future__ import annotations

import pytest

from repro.core.pdq import PDQEngine
from repro.core.trajectory import QueryTrajectory
from repro.index.dualtime import DualTimeIndex
from repro.index.nsi import NativeSpaceIndex
from repro.server.session import (
    AggregateSession,
    NPDQSession,
    NPDQSweep,
    PDQSession,
    PDQSweep,
)
from repro.storage.disk import DiskManager
from repro.storage.wal import IntentLog
from repro.workload.observers import observer_fleet

# A smaller page keeps the tiny trees several levels deep, so the
# shared-scan machinery actually has internal pages to batch.
PAGE_SIZE = 512


@pytest.fixture(autouse=True)
def _npdq_sweep_check(monkeypatch):
    """Suite-wide safety net for the NPDQ sweep.

    On every NPDQ serve of the whole serving-layer suite: the session
    returns the result the sweep of *that* tick computed for it, exactly
    once — and whatever demand it reported to the batch phase is the
    page list its engine loaded, in order.
    """
    run, serve = NPDQSweep.run, NPDQSession.serve
    demand = NPDQSession.frontier_demand
    swept = {}  # id(session) -> (tick, its result of that tick's sweep)

    def checked_run(self, tick):
        fresh = self._tick != tick
        run(self, tick)
        if fresh:
            for session_id, result in self._results.items():
                swept[session_id] = (tick, result)

    def checked_demand(self, tick):
        reported = demand(self, tick)
        pages = [p for _, tree_pages in reported for p in tree_pages]
        if self.will_serve(tick):
            assert pages == self.engine.last_loaded_pages, (
                f"{self.client_id}: tick {tick.index} reported {pages} but "
                f"the sweep loaded {self.engine.last_loaded_pages}"
            )
        return reported

    def checked_serve(self, tick):
        result = serve(self, tick)
        entry = swept.pop(id(self), None)
        assert entry is not None and entry[0] == tick, (
            f"{self.client_id}: served tick {tick.index} without a result "
            "of that tick's sweep, or twice"
        )
        want = entry[1]
        # the sweep's own answer blocks, passed through unread
        assert result.items is want.items
        assert result.prefetched is want.prefetched
        assert result.degraded == want.degraded
        return result

    monkeypatch.setattr(NPDQSweep, "run", checked_run)
    monkeypatch.setattr(NPDQSession, "frontier_demand", checked_demand)
    monkeypatch.setattr(NPDQSession, "serve", checked_serve)


@pytest.fixture(autouse=True)
def _pdq_sweep_check(monkeypatch):
    """Suite-wide safety net for the PDQ sweep.

    On every fault-free served tick of the whole serving-layer suite,
    each member of a PDQ sweep (a PDQ, shed PDQ or aggregate session
    over a pooled tree) takes every page its window expands from the
    sweep of *that* tick — no page is evaluated again — leaves nothing
    that sweep stashed for it unused, and the pages the sweep loaded for
    it, which are its batch demand, are exactly the pages it expanded.
    """
    run, window = PDQSweep.run, PDQEngine.window
    live_components = QueryTrajectory.live_components
    faults = {}  # id(sweep) -> (tick, disk faults before its run)
    stashed = {}  # id(engine) -> pages stashed when its last window began
    evaluations = [0]  # pages evaluated one at a time, outside a sweep

    def sweep_faults(sweep):
        """Faults so far on the disks the sweep's members read."""
        members = [ref() for ref in sweep._members]
        disks = {
            id(m.index.tree.disk): m.index.tree.disk.stats
            for m in members
            if m is not None
        }
        return sum(s.read_faults + s.corrupt_detected for s in disks.values())

    def checked_run(self, tick):
        if self._tick != tick:
            faults[id(self)] = (tick, sweep_faults(self))
        run(self, tick)

    def checked_window(self, t_start, t_end):
        stashed[id(self)] = set(self._stash)
        return window(self, t_start, t_end)

    def counted_live_components(self, batch, frontier):
        evaluations[0] += 1
        return live_components(self, batch, frontier)

    def checked(serve):
        def checked_serve(self, tick):
            engine = getattr(self.engine, "engine", self.engine)
            expanded_before = set(engine._expanded)
            evaluated_before = evaluations[0]
            result = serve(self, tick)
            sweep = self.sweep
            if (
                result is None
                or self.index.tree.disk.buffer_pool is None
                or sweep._tick != tick
            ):
                return result
            if faults.get(id(sweep)) != (tick, sweep_faults(sweep)):
                return result  # a fault fired: the drain may read on its own
            expanded = engine._expanded - expanded_before
            demand = sweep.demand(self, tick)
            assert demand == sorted(expanded), (
                f"{self.client_id}: tick {tick.index} demanded {demand} but "
                f"expanded {sorted(expanded)}"
            )
            assert stashed.pop(id(engine)) == expanded, (
                f"{self.client_id}: tick {tick.index} left stashed pages unused"
            )
            assert evaluations[0] == evaluated_before, (
                f"{self.client_id}: tick {tick.index} evaluated a page "
                "outside the sweep"
            )
            return result

        return checked_serve

    monkeypatch.setattr(PDQSweep, "run", checked_run)
    monkeypatch.setattr(PDQEngine, "window", checked_window)
    monkeypatch.setattr(
        QueryTrajectory, "live_components", counted_live_components
    )
    for cls in (PDQSession, AggregateSession):
        monkeypatch.setattr(cls, "serve", checked(cls.serve))


@pytest.fixture()
def build_native(tiny_segments):
    """Factory for a fresh bulk-loaded native-space index."""

    def build(segments=None, intent_log=False):
        disk = DiskManager(
            intent_log=IntentLog(auto_rollback=False) if intent_log else None
        )
        index = NativeSpaceIndex(dims=2, disk=disk, page_size=PAGE_SIZE)
        index.bulk_load(tiny_segments if segments is None else segments)
        return index

    return build


@pytest.fixture()
def build_dual(tiny_segments):
    """Factory for a fresh bulk-loaded dual-time index."""

    def build(segments=None, intent_log=False):
        disk = DiskManager(
            intent_log=IntentLog(auto_rollback=False) if intent_log else None
        )
        index = DualTimeIndex(dims=2, disk=disk, page_size=PAGE_SIZE)
        index.bulk_load(tiny_segments if segments is None else segments)
        return index

    return build


@pytest.fixture()
def fleet(tiny_config):
    """Factory for observer fleets over the tiny data space."""

    def make(count, mode="identical", duration=3.0, start=1.0, seed=5, **kw):
        return observer_fleet(
            tiny_config,
            count,
            mode=mode,
            duration=duration,
            start_time=start,
            seed=seed,
            **kw,
        )

    return make
