"""Project-specific static analysis and runtime sanitizers.

Generic linters see style; this package sees *this* codebase's
invariants — the rules a simulated-clock reproduction of the PDQ/NPDQ
engines lives or dies by:

* **determinism** — only :class:`~repro.server.clock.SimulatedClock`
  may source time inside the engine layers, RNGs must be seeded, and
  seeds must never be derived from :func:`hash` (randomized per
  process) — and no engine module may *reach* a wall-clock read or an
  unseeded RNG through any chain of calls;
* **layering** — ``server/`` and ``core/`` never touch
  :mod:`repro.storage.disk` except through the index layer and its
  :class:`~repro.storage.buffer.BufferPool`, ``geometry/`` imports
  nothing above it, and the filesystem, process and numpy boundaries
  each have a short list of owners — directly or transitively;
* **crash safety** — a cached page obtained from the buffer pool must
  not be mutated outside a scope that logged a WAL pre-image (the PR-2
  writer-crash bug class), and session/broker state must not hide
  shared mutable defaults.

Two halves:

* the lint (:mod:`repro.analysis.engine`, surfaced as ``repro-dq
  lint``) is one mechanism: every file is parsed once, one scanner
  (:mod:`repro.analysis.graph.model`) decides what an effect site is,
  two tables declare the contracts (import contracts in
  :mod:`repro.analysis.graph.layers`, effect contracts in
  :mod:`repro.analysis.graph.effects`), a handful of syntactic rules
  read single files, and every finding goes through the same per-line
  ``# repro: disable=RULE`` suppression and committed baseline;
* the runtime sanitizers (:mod:`repro.analysis.sanitizers`), activated
  by ``REPRO_SANITIZE=1`` through the pytest plugin
  (:mod:`repro.analysis.pytest_plugin`), catch what static analysis
  cannot prove: unlogged cached-page mutation, buffer pools still held
  at tick end, and non-monotonic tick streams — deterministically, instead
  of by chaos-test luck.

This module deliberately imports nothing at package-import time: the
storage and server layers call into :mod:`repro.analysis.runtime` on
hot paths, and must not drag the whole analyzer (or a circular import)
with them.
"""

from __future__ import annotations

__all__ = [
    "CATALOGUE",
    "LintEngine",
    "Violation",
    "SanitizerSuite",
    "PageWriteSanitizer",
    "PinLeakSanitizer",
    "ClockSanitizer",
    "WallClockGuard",
]

_LAZY = {
    "CATALOGUE": ("repro.analysis.engine", "CATALOGUE"),
    "LintEngine": ("repro.analysis.engine", "LintEngine"),
    "Violation": ("repro.analysis.rules", "Violation"),
    "SanitizerSuite": ("repro.analysis.sanitizers", "SanitizerSuite"),
    "PageWriteSanitizer": ("repro.analysis.sanitizers", "PageWriteSanitizer"),
    "PinLeakSanitizer": ("repro.analysis.sanitizers", "PinLeakSanitizer"),
    "ClockSanitizer": ("repro.analysis.sanitizers", "ClockSanitizer"),
    "WallClockGuard": ("repro.analysis.sanitizers", "WallClockGuard"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
