"""Fixtures for the serving-layer suite.

Broker tests mutate their indexes (updates, buffer pools, shedding), so
everything here is a per-test factory over the shared tiny segment list
rather than the session-scoped read-only indexes.
"""

from __future__ import annotations

import pytest

from repro.index.dualtime import DualTimeIndex
from repro.index.nsi import NativeSpaceIndex
from repro.server.session import NPDQSession, NPDQSweep
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
        assert result.items == tuple(want.items)
        assert result.prefetched == tuple(want.prefetched)
        assert result.degraded == want.degraded
        return result

    monkeypatch.setattr(NPDQSweep, "run", checked_run)
    monkeypatch.setattr(NPDQSession, "frontier_demand", checked_demand)
    monkeypatch.setattr(NPDQSession, "serve", checked_serve)


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
