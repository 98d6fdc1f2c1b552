"""Runtime sanitizers: deterministic detectors for chaos-class bugs.

Each sanitizer watches one invariant through the hooks in
:mod:`repro.analysis.runtime` and raises
:class:`~repro.errors.SanitizerError` at the first violation:

* :class:`PageWriteSanitizer` — a page cached in a
  :class:`~repro.storage.buffer.BufferPool` (object-mode pages are
  shared by reference) must never change state without a WAL pre-image.
  This is the PR-2 writer-crash hole, caught on the very mutation
  instead of by a lucky crash seed.
* :class:`PinLeakSanitizer` — when a broker tick ends, no page may
  still be pinned; a leaked pin silently exempts pages from LRU
  eviction forever and the pool "capacity" becomes fiction.
* :class:`ClockSanitizer` — tick streams are strictly monotonic,
  gap-free, and bit-identical to the boundary formula; a drifting
  clock breaks the answer-invariance replay guarantee.
* :class:`WallClockGuard` — patches ``time.time`` & friends so any
  wall-clock read from inside ``repro.*`` raises immediately, except at
  the few allow-listed ``(module, function)`` call sites that
  legitimately report progress to a human.

All state lives in the sanitizers, none in the product objects, so the
sanitizers can be enabled around any existing test without touching it.
"""

from __future__ import annotations

import sys
import time as _time_module
from typing import Any, Dict, Optional, Set, Tuple

from repro.errors import SanitizerError

__all__ = [
    "PageWriteSanitizer",
    "PinLeakSanitizer",
    "ClockSanitizer",
    "WallClockGuard",
    "SanitizerSuite",
]

_Key = Tuple[int, int]  # (id(disk), page_id)


def _fingerprint(payload: Any) -> Optional[Tuple]:
    """Cheap structural state of a node page, or None.

    R-tree nodes expose ``entries`` and a modification ``timestamp``;
    every legitimate mutation path changes one of the two.  An
    object-mode node's entries are immutable objects in a list, so their
    identities are the state.  A page-backed node has no entry objects
    of its own — ``entries[k]`` is built on demand from the page's
    columns — so its ``entries`` offers ``fingerprint()``, a hash of the
    columns.  Stored binary-mode cells are ``bytes`` and cannot be
    mutated in place, so they need no tracking.
    """
    entries = getattr(payload, "entries", None)
    if entries is None:
        return None
    fingerprint = getattr(entries, "fingerprint", None)
    return (
        getattr(payload, "level", None),
        getattr(payload, "timestamp", None),
        len(entries),
        fingerprint()
        if fingerprint is not None
        else tuple(id(entry) for entry in entries),
    )


class PageWriteSanitizer:
    """Catches in-place mutation of cached pages outside WAL coverage.

    Tracks a fingerprint per (disk, page) the first time a page flows
    through a disk that has *both* a buffer pool (so the page object is
    shared) and an intent log (so crash safety is in scope).  A changed
    fingerprint with no recorded pre-image since the last checkpoint is
    the unrecoverable-crash bug, reported at the earliest of: the next
    read of the page, the broker's tick end, or the test's teardown
    checkpoint.
    """

    def __init__(self) -> None:
        self._states: Dict[_Key, Tuple] = {}
        # Strong refs on purpose: they pin disk ids against reuse while
        # tracked state exists (reset() drops everything).
        self._disks: Dict[int, Any] = {}
        self._logged: Set[_Key] = set()
        self._wal_pages: Dict[int, Set[_Key]] = {}

    # -- hooks ---------------------------------------------------------------

    def _in_scope(self, disk: Any) -> bool:
        return disk.intent_log is not None and disk.buffer_pool is not None

    def page_read(self, disk: Any, page_id: int, payload: Any) -> None:
        if not self._in_scope(disk):
            return
        state = _fingerprint(payload)
        if state is None:
            return
        key = (id(disk), page_id)
        known = self._states.get(key)
        if known is not None and known != state and key not in self._logged:
            raise SanitizerError(
                f"page {page_id} was mutated in place without a WAL "
                "pre-image (unrecoverable after a crash); detected on "
                "re-read"
            )
        self._states[key] = state
        self._disks[id(disk)] = disk

    def page_logged(self, disk: Any, page_id: int) -> None:
        key = (id(disk), page_id)
        self._logged.add(key)
        self._disks[id(disk)] = disk
        log = disk.intent_log
        if log is not None:
            self._wal_pages.setdefault(id(log), set()).add(key)

    def page_write(self, disk: Any, page_id: int) -> None:
        # A full write replaces the payload (and invalidates the buffered
        # copy); the page re-enters tracking at its next read.
        self._forget((id(disk), page_id))

    def page_freed(self, disk: Any, page_id: int) -> None:
        self._forget((id(disk), page_id))

    def wal_closed(self, log: Any) -> None:
        # Pages the transaction logged may legitimately have changed
        # (commit) or changed back (rollback): re-baseline them.
        for key in self._wal_pages.pop(id(log), ()):
            self._logged.discard(key)
            if key in self._states:
                self._refresh(key)

    def _forget(self, key: _Key) -> None:
        self._states.pop(key, None)
        self._logged.discard(key)

    def _refresh(self, key: _Key) -> None:
        disk = self._disks.get(key[0])
        payload = disk.raw_page(key[1]) if disk is not None else None
        state = _fingerprint(payload) if payload is not None else None
        if state is None:
            self._forget(key)
        else:
            self._states[key] = state

    # -- checkpoints ----------------------------------------------------------

    def checkpoint(self, disk: Any) -> None:
        """Verify every tracked page of ``disk``, then re-baseline it."""
        disk_id = id(disk)
        for key in [k for k in self._states if k[0] == disk_id]:
            page_id = key[1]
            payload = disk.raw_page(page_id)
            if payload is None:
                self._forget(key)
                continue
            state = _fingerprint(payload)
            if (
                state is not None
                and state != self._states[key]
                and key not in self._logged
            ):
                raise SanitizerError(
                    f"page {page_id} was mutated in place without a WAL "
                    "pre-image (unrecoverable after a crash); detected at "
                    "checkpoint"
                )
            if state is None:
                self._forget(key)
            else:
                self._states[key] = state
                self._logged.discard(key)

    def checkpoint_all(self) -> None:
        """Checkpoint every disk that still has tracked pages."""
        for disk in list(self._disks.values()):
            self.checkpoint(disk)

    def reset(self) -> None:
        """Drop all tracked state (between tests)."""
        self._states.clear()
        self._disks.clear()
        self._logged.clear()
        self._wal_pages.clear()


class PinLeakSanitizer:
    """Catches buffer-pool pins that survive the end of a serving tick.

    The shared-scan guarantee pins pages only *within* a tick; a pin
    that outlives :meth:`SharedScanScheduler.end_tick` shields its page
    from eviction for the rest of the run, so the pool's capacity bound
    (and every buffer-ablation number derived from it) quietly stops
    being true.
    """

    def tick_end(self, broker: Any) -> None:
        pools = []
        scheduler = getattr(broker, "scheduler", None)
        if scheduler is not None:
            pools.append(scheduler.pool)
        for index in (broker.native, getattr(broker, "dual", None)):
            if index is None:
                continue
            pool = index.tree.disk.buffer_pool
            if pool is not None:
                pools.append(pool)
        seen = set()
        for pool in pools:
            if id(pool) in seen:
                continue
            seen.add(id(pool))
            pinned = pool.pinned
            if pinned:
                raise SanitizerError(
                    f"{len(pinned)} page(s) still pinned at tick end "
                    f"(ids {sorted(pinned)[:8]}...); pins must not outlive "
                    "their tick"
                )

    def reset(self) -> None:
        """Stateless; present for suite symmetry."""


class ClockSanitizer:
    """Catches non-monotonic or drifting simulated-tick streams.

    Each tick must extend the previous one exactly (index +1, start ==
    previous end, positive duration) and its boundaries must equal the
    clock's own ``boundary()`` formula bit-for-bit — the property that
    lets an isolated engine replay the broker's frame times.  State is
    stored on the clock instance itself, so clocks garbage-collect
    normally and id reuse cannot cross wires.
    """

    _ATTR = "_sanitizer_last_tick"

    def tick(self, clock: Any, tick: Any) -> None:
        if tick.duration <= 0:
            raise SanitizerError(
                f"tick {tick.index} has non-positive duration {tick.duration}"
            )
        if tick.start != clock.boundary(tick.index) or tick.end != (
            clock.boundary(tick.index + 1)
        ):
            raise SanitizerError(
                f"tick {tick.index} boundaries drifted from the clock's "
                "boundary formula; replays would diverge"
            )
        last = getattr(clock, self._ATTR, None)
        if last is not None:
            last_index, last_end = last
            if tick.index != last_index + 1:
                raise SanitizerError(
                    f"tick index jumped from {last_index} to {tick.index}; "
                    "the stream must be gap-free"
                )
            if tick.start != last_end:
                raise SanitizerError(
                    f"tick {tick.index} starts at {tick.start} but the "
                    f"previous tick ended at {last_end}; wall-clock drift "
                    "into the tick stream"
                )
        setattr(clock, self._ATTR, (tick.index, tick.end))

    def reset(self) -> None:
        """Stateless here; per-clock state dies with the clock objects."""


class WallClockGuard:
    """Patches ``time`` so engine code cannot read the wall clock.

    While installed, ``time.time``/``monotonic``/``perf_counter`` (and
    the ``_ns`` variants) and ``time.sleep`` raise
    :class:`~repro.errors.SanitizerError` when the *caller* is any
    ``repro.*`` frame except the explicitly allow-listed call sites in
    :attr:`_ALLOWED_SITES` — ``(module, function)`` pairs naming the
    few places that legitimately report wall-clock progress to a human.
    Test code, pytest, and hypothesis keep working — the guard inspects
    the calling frame and passes everyone else through.

    The allow-list is deliberately *sites*, not module prefixes: a
    wholesale ``repro.cli`` exemption would silently bless a future
    wall-clock read anywhere in the CLI (or in ``repro.experiments``,
    which needs none at all).  ``tests/analysis/test_wallclock_sites.py``
    keeps the list honest against the source tree.
    """

    _PATCHED = (
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "sleep",
    )
    #: (module, function) pairs allowed to read the wall clock: only the
    #: CLI's figure runner, which prints elapsed-time progress lines.
    _ALLOWED_SITES = (("repro.cli", "_cmd_figures"),)

    def __init__(self) -> None:
        self._originals: Dict[str, Any] = {}

    def install(self) -> None:
        if self._originals:
            return
        for name in self._PATCHED:
            original = getattr(_time_module, name, None)
            if original is None:
                continue
            self._originals[name] = original
            setattr(_time_module, name, self._guarded(name, original))

    def uninstall(self) -> None:
        for name, original in self._originals.items():
            setattr(_time_module, name, original)
        self._originals.clear()

    def _guarded(self, name: str, original: Any) -> Any:
        allowed = self._ALLOWED_SITES

        def guard(*args: Any, **kwargs: Any) -> Any:
            # Guards can stack (a test-installed guard over the pytest
            # plugin's): every ``guard`` closure shares this one code
            # object, so skip such frames to reach the real caller.
            code = sys._getframe(0).f_code
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is code:
                frame = frame.f_back
            if frame is None:
                return original(*args, **kwargs)
            caller = frame.f_globals.get("__name__", "")
            if caller.startswith("repro.") and (
                (caller, frame.f_code.co_name) not in allowed
            ):
                raise SanitizerError(
                    f"wall-clock call time.{name}() from "
                    f"{caller}.{frame.f_code.co_name}; engine code must use "
                    "SimulatedClock (allow-listed sites: "
                    f"{', '.join('.'.join(s) for s in allowed)})"
                )
            return original(*args, **kwargs)

        guard.__name__ = name
        return guard

    def reset(self) -> None:
        """Stateless; present for suite symmetry."""


class SanitizerSuite:
    """One object bundling every sanitizer behind the runtime hook API."""

    def __init__(
        self,
        page_writes: Optional[PageWriteSanitizer] = None,
        pin_leaks: Optional[PinLeakSanitizer] = None,
        clock: Optional[ClockSanitizer] = None,
        wallclock: Optional[WallClockGuard] = None,
    ) -> None:
        self.page_writes = page_writes or PageWriteSanitizer()
        self.pin_leaks = pin_leaks or PinLeakSanitizer()
        self.clock = clock or ClockSanitizer()
        self.wallclock = wallclock or WallClockGuard()

    # -- hook dispatch (called via repro.analysis.runtime) -----------------

    def page_read(self, disk: Any, page_id: int, payload: Any) -> None:
        self.page_writes.page_read(disk, page_id, payload)

    def page_logged(self, disk: Any, page_id: int) -> None:
        self.page_writes.page_logged(disk, page_id)

    def page_write(self, disk: Any, page_id: int) -> None:
        self.page_writes.page_write(disk, page_id)

    def page_freed(self, disk: Any, page_id: int) -> None:
        self.page_writes.page_freed(disk, page_id)

    def wal_closed(self, log: Any) -> None:
        self.page_writes.wal_closed(log)

    def tick(self, clock: Any, tick: Any) -> None:
        self.clock.tick(clock, tick)

    def tick_end(self, broker: Any) -> None:
        self.pin_leaks.tick_end(broker)
        for index in (broker.native, getattr(broker, "dual", None)):
            if index is not None:
                self.page_writes.checkpoint(index.tree.disk)

    # -- lifecycle ------------------------------------------------------------

    def checkpoint_and_reset(self) -> None:
        """End-of-test sweep: verify all tracked pages, then clear state."""
        try:
            self.page_writes.checkpoint_all()
        finally:
            self.page_writes.reset()
            self.pin_leaks.reset()
            self.clock.reset()
