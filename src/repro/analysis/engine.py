"""The lint engine: walk, check, suppress, ratchet.

One run parses every file once, runs the syntactic per-file rules
(:data:`FILE_RULES`) on each and the whole-program rules
(:data:`~repro.analysis.graph.GRAPH_RULES`) over all of them, and
reconciles every hit against three escape hatches, in order:

1. **line suppression** — ``# repro: disable=DQD01`` (comma-separate
   several ids, or ``all``) on the offending line;
2. **file suppression** — ``# repro: disable-file=DQD01`` anywhere in
   the file (generated fixtures, test corpora);
3. **the baseline** — a committed JSON ratchet
   (:data:`DEFAULT_BASELINE`) holding per-``path::rule`` counts of
   pre-existing violations.  Existing debt is tolerated, *new* debt
   fails, and fixing debt then running ``--update-baseline`` ratchets
   the allowance down.

Exit codes (used by ``repro-dq lint`` and CI): 0 clean or fully
baselined, 1 new violations, 2 usage/configuration error.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.asyncsafety import (
    BlockingAsyncCallRule,
    SharedTableAsyncMutationRule,
    UnawaitedCoroutineRule,
)
from repro.analysis.crashsafety import (
    MutableDefaultArgRule,
    SharedMutableClassAttrRule,
    UnloggedPageMutationRule,
)
from repro.analysis.determinism import HashSeedRule
from repro.analysis.graph import GRAPH_RULES, build_program
from repro.analysis.layering import GenericRaiseRule
from repro.analysis.rules import Rule, RuleDoc, Violation
from repro.errors import LintConfigError

__all__ = [
    "FILE_RULES",
    "CATALOGUE",
    "LintEngine",
    "LintReport",
    "DEFAULT_BASELINE",
]

#: The syntactic rules: each reads one file's AST and needs no graph.
FILE_RULES: Tuple[Rule, ...] = (
    HashSeedRule(),
    GenericRaiseRule(),
    UnloggedPageMutationRule(),
    MutableDefaultArgRule(),
    SharedMutableClassAttrRule(),
    BlockingAsyncCallRule(),
    UnawaitedCoroutineRule(),
    SharedTableAsyncMutationRule(),
)

#: Every id the lint can report, id-sorted; ``repro-dq lint --rules``
#: prints this.
CATALOGUE: Tuple[RuleDoc, ...] = tuple(
    sorted(doc for rule in FILE_RULES + GRAPH_RULES for doc in rule.docs())
)

DEFAULT_BASELINE = "lint-baseline.json"

_SUPPRESS = re.compile(r"#\s*repro:\s*disable=([A-Za-z0-9_,\s]+)")
_SUPPRESS_FILE = re.compile(r"#\s*repro:\s*disable-file=([A-Za-z0-9_,\s]+)")


def _parse_ids(raw: str) -> set:
    return {token.strip().upper() for token in raw.split(",") if token.strip()}


@dataclass
class LintReport:
    """Outcome of one engine run."""

    violations: List[Violation] = field(default_factory=list)
    baselined: List[Violation] = field(default_factory=list)
    suppressed: int = 0
    files_checked: int = 0
    parse_errors: List[str] = field(default_factory=list)
    #: baseline keys whose allowance was not (fully) consumed even
    #: though the keyed file was checked: dead ratchet weight.
    stale: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when nothing new was found (baselined debt is tolerated,
        *stale* baseline debt is not: a fixed violation must be
        ratcheted out with ``--update-baseline``, not carried)."""
        return not self.violations and not self.parse_errors and not self.stale

    def render(self, show_baselined: bool = False) -> str:
        """Human-readable report, one violation per line."""
        lines = [v.render() for v in self.violations]
        if show_baselined:
            lines += [f"{v.render()} [baselined]" for v in self.baselined]
        lines += [f"{path}: parse error" for path in self.parse_errors]
        lines += [
            f"{key}: stale baseline entry (violation no longer exists; "
            f"run --update-baseline to ratchet it out)"
            for key in self.stale
        ]
        summary = (
            f"{self.files_checked} files checked: "
            f"{len(self.violations)} new violation(s), "
            f"{len(self.baselined)} baselined, {self.suppressed} suppressed"
        )
        if self.stale:
            summary += f", {len(self.stale)} stale baseline entr(ies)"
        return "\n".join(lines + [summary])

    def to_json(self) -> str:
        """Machine-readable report for ``--format json`` / CI artifacts."""

        def encode(violation: Violation) -> Dict[str, object]:
            return {
                "rule": violation.rule,
                "path": violation.path,
                "line": violation.line,
                "col": violation.col,
                "message": violation.message,
                "witness": list(violation.witness),
            }

        payload = {
            "ok": self.ok,
            "files_checked": self.files_checked,
            "suppressed": self.suppressed,
            "violations": [encode(v) for v in self.violations],
            "baselined": [encode(v) for v in self.baselined],
            "parse_errors": list(self.parse_errors),
            "stale_baseline": list(self.stale),
        }
        return json.dumps(payload, indent=2, sort_keys=True)


class LintEngine:
    """Run :data:`FILE_RULES` and the whole-program rules over files
    and directories, settling every finding through one suppression /
    baseline path."""

    # -- file discovery -----------------------------------------------------

    @staticmethod
    def discover(paths: Iterable[str]) -> List[Path]:
        """Expand files/directories into a sorted, deduplicated .py list."""
        found: List[Path] = []
        for raw in paths:
            path = Path(raw)
            if path.is_dir():
                found.extend(
                    p
                    for p in sorted(path.rglob("*.py"))
                    if "__pycache__" not in p.parts
                    and not any(part.startswith(".") for part in p.parts)
                )
            elif path.suffix == ".py":
                found.append(path)
            elif not path.exists():
                raise LintConfigError(f"no such file or directory: {raw}")
        seen = set()
        unique = []
        for path in found:
            if path not in seen:
                seen.add(path)
                unique.append(path)
        return unique

    # -- suppression ----------------------------------------------------------

    @staticmethod
    def _file_suppressions(lines: List[str]) -> set:
        suppressed: set = set()
        for line in lines:
            match = _SUPPRESS_FILE.search(line)
            if match:
                suppressed |= _parse_ids(match.group(1))
        return suppressed

    @staticmethod
    def _suppressed(
        violation: Violation, lines: List[str], file_suppressed: set
    ) -> bool:
        if "ALL" in file_suppressed or violation.rule in file_suppressed:
            return True
        if 1 <= violation.line <= len(lines):
            match = _SUPPRESS.search(lines[violation.line - 1])
            if match:
                ids = _parse_ids(match.group(1))
                return "ALL" in ids or violation.rule in ids
        return False

    # -- the full run ------------------------------------------------------------

    def run(
        self,
        paths: Iterable[str],
        baseline: Optional[Dict[str, int]] = None,
    ) -> LintReport:
        """Lint ``paths``; violations covered by ``baseline`` counts are
        reported separately and do not fail the run.  A baseline
        allowance that goes *unconsumed* for a file that was checked is
        reported as stale and fails the run — the ratchet only ever
        tightens.  The whole-program rules see every parsed ``repro.*``
        module among ``paths`` (one file is a one-module program).
        """
        report = LintReport()
        allowance: Dict[str, int] = dict(baseline or {})
        # Per parsed file, in discovery order: what the program model is
        # built from and what a finding in it is reconciled against.
        parsed: List[Tuple[str, Tuple[str, ...], ast.Module]] = []
        suppression: Dict[str, Tuple[int, List[str], set]] = {}
        found: List[Violation] = []
        checked: set = set()
        for path in self.discover(paths):
            report.files_checked += 1
            display = str(path)
            checked.add(display)
            try:
                source = path.read_text()
                module = ast.parse(source, filename=display)
            except (SyntaxError, ValueError, OSError):
                report.parse_errors.append(display)
                continue
            lines = source.splitlines()
            parts = tuple(path.resolve().parts)
            suppression[display] = (
                len(parsed), lines, self._file_suppressions(lines)
            )
            parsed.append((display, parts, module))
            for rule in FILE_RULES:
                if rule.applies(parts):
                    found.extend(rule.check(module, source, display))
        program = build_program(parsed)
        for rule in GRAPH_RULES:
            found.extend(rule.check_program(program))
        for violation in sorted(
            found,
            key=lambda v: (suppression[v.path][0], v.line, v.col, v.rule),
        ):
            _, lines, file_suppressed = suppression[violation.path]
            if self._suppressed(violation, lines, file_suppressed):
                report.suppressed += 1
            elif allowance.get(violation.baseline_key, 0) > 0:
                allowance[violation.baseline_key] -= 1
                report.baselined.append(violation)
            else:
                report.violations.append(violation)
        for key in sorted(allowance):
            if allowance[key] > 0 and key.rsplit("::", 1)[0] in checked:
                report.stale.append(key)
        return report

    # -- baseline persistence ------------------------------------------------------

    @staticmethod
    def load_baseline(path: str) -> Dict[str, int]:
        """Read a baseline file (missing file = empty baseline)."""
        file = Path(path)
        if not file.exists():
            return {}
        try:
            data = json.loads(file.read_text())
            violations = data["violations"]
        except (ValueError, KeyError, TypeError) as exc:
            raise LintConfigError(f"unreadable baseline {path}: {exc}") from exc
        if not isinstance(violations, dict) or not all(
            isinstance(k, str) and isinstance(v, int) and v >= 0
            for k, v in violations.items()
        ):
            raise LintConfigError(f"unreadable baseline {path}: malformed counts")
        return dict(violations)

    @staticmethod
    def save_baseline(path: str, report: LintReport) -> Dict[str, int]:
        """Write the report's violations (new + baselined) as the new ratchet."""
        counts: Dict[str, int] = {}
        for violation in report.violations + report.baselined:
            counts[violation.baseline_key] = (
                counts.get(violation.baseline_key, 0) + 1
            )
        payload = {
            "comment": (
                "Known pre-existing lint debt, tolerated by repro-dq lint. "
                "Fix a violation, then run 'repro-dq lint --update-baseline' "
                "to ratchet this file down. Never ratchet it up by hand."
            ),
            "violations": {k: counts[k] for k in sorted(counts)},
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")
        return counts
