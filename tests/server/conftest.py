"""Fixtures for the serving-layer suite.

Broker tests mutate their indexes (updates, buffer pools, shedding), so
everything here is a per-test factory over the shared tiny segment list
rather than the session-scoped read-only indexes.
"""

from __future__ import annotations

import pytest

from repro.index.dualtime import DualTimeIndex
from repro.index.nsi import NativeSpaceIndex
from repro.server.session import NPDQSession
from repro.storage.disk import DiskManager
from repro.storage.wal import IntentLog
from repro.workload.observers import observer_fleet

# A smaller page keeps the tiny trees several levels deep, so the
# shared-scan machinery actually has internal pages to batch.
PAGE_SIZE = 512


@pytest.fixture(autouse=True)
def _npdq_walk_check(monkeypatch):
    """Suite-wide safety net for the NPDQ prediction walk.

    Wraps :meth:`NPDQSession.serve` so that, on every serve in the whole
    serving-layer suite, the tick's walk is held to what evaluation
    loaded: the mispredict count is exactly the loaded-but-unwalked
    pages, always — and when the walk hit no storage fault the two page
    sets are *equal* (the walk descends for the very frame that is
    evaluated, under the evaluation's own pruning).
    """
    original = NPDQSession.serve

    def checked(self, tick):
        result = original(self, tick)
        record = self.last_prediction
        if (
            record is not None
            and record.served
            and record.tick_index == tick.index
        ):
            missing = set(record.actual) - set(record.pages)
            assert missing == set(record.mispredicted), (
                f"{self.client_id}: mispredict accounting drifted at tick "
                f"{tick.index}: loaded-but-unpredicted {sorted(missing)} vs "
                f"counted {sorted(record.mispredicted)}"
            )
            if record.walk_faults == 0:
                assert set(record.actual) == set(record.pages), (
                    f"{self.client_id}: the walk of tick {tick.index} hit "
                    f"no fault but enumerated {sorted(record.pages)} where "
                    f"evaluation loaded {sorted(record.actual)}"
                )
        return result

    monkeypatch.setattr(NPDQSession, "serve", checked)


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
