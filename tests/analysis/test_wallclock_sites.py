"""The WallClockGuard allow-list must mirror the source tree exactly.

The guard exempts specific ``(module, function)`` call sites, not whole
modules; this lint-style regression keeps that list honest in both
directions: a wall-clock call added anywhere in ``src/repro`` without
extending the allow-list fails here (before the runtime guard ever sees
it), and a stale allow-list entry whose call site has been removed fails
too, so the exemption surface can only shrink deliberately.

What counts as a wall-clock read is whatever the lint's one scanner
records as a ``wallclock`` site — the same sites DQD01 and DQG02 report
— so this test cannot disagree with them.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.graph import build_program
from repro.analysis.sanitizers import WallClockGuard

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_wallclock_call_sites_match_the_guard_allow_list():
    program = build_program(
        [
            (str(path), path.parts, ast.parse(path.read_text()))
            for path in sorted(SRC.rglob("*.py"))
        ]
    )
    found = {
        (module.name, function.qualname)
        for module in program.modules.values()
        for function in module.functions.values()
        for site in function.effects
        if site.kind == "wallclock"
    }
    assert found == set(WallClockGuard._ALLOWED_SITES), (
        "wall-clock call sites in src/repro drifted from "
        "WallClockGuard._ALLOWED_SITES; update the allow-list (or remove "
        f"the call): found {sorted(found)}"
    )
