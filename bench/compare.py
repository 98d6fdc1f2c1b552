#!/usr/bin/env python3
"""Compare two sets of benchmark runs: ``compare.py A.json B.json``.

Each file is what ``bench/run.py --out`` writes (any number of passes:
``--repeat``).  One row per workload x end-to-end metric: both medians,
the ratio B/A, the bound from ``bench/metrics.py`` and a verdict —

* ``worse`` / ``better``: B's median differs from A's by more than the
  bound, in that direction;
* ``unresolved``: a side's own runs spread (quartile distance over
  median, or range over median below four runs) by more than the bound,
  unless every run of B is on one side of every run of A;
* ``same`` otherwise.

Counts and answer digests (each record's ``deterministic`` block) must
be identical on both sides.  Exit status 1 on any ``worse``,
``unresolved`` or count mismatch.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench.metrics import END_TO_END  # noqa: E402


def load(path: str) -> Dict[tuple, List[dict]]:
    """``(workload, trace) -> records`` of one result file."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    groups: Dict[tuple, List[dict]] = defaultdict(list)
    for record in data["runs"]:
        groups[(record["workload"], record["trace"])].append(record)
    return groups


def spread(values: List[float]) -> Optional[float]:
    """Run-to-run spread as a share of the median; None for one run."""
    if len(values) < 2:
        return None
    if len(values) < 4:
        return (max(values) - min(values)) / statistics.median(values)
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def verdict(metric, a: List[float], b: List[float]) -> str:
    sign = 1.0 if metric.better == "lower" else -1.0
    worsening = sign * (statistics.median(b) - statistics.median(a)) / statistics.median(a)
    apart = max(a) < min(b) or max(b) < min(a)
    noisy = any((spread(v) or 0.0) > metric.bound for v in (a, b))
    if noisy and not apart:
        return "unresolved"
    if worsening > metric.bound:
        return "worse"
    return "better" if worsening < -metric.bound else "same"


def _share(value: Optional[float]) -> str:
    return "   -  " if value is None else f"{value:6.3f}"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    side_a, side_b = load(argv[0]), load(argv[1])
    status = 0
    print(f"{'workload':<18} {'metric':<14} {'A':>11} {'B':>11} {'B/A':>7} "
          f"{'bound':>6} {'sprd A':>6} {'sprd B':>6}  verdict")
    for key in sorted(side_a):
        if key not in side_b:
            print(f"{key[0]} (trace {key[1]}): missing from B")
            status = 1
            continue
        counts_a = [r["deterministic"] for r in side_a[key]]
        counts_b = [r["deterministic"] for r in side_b[key]]
        for name in sorted(counts_a[0]):
            values = {json.dumps(c.get(name)) for c in counts_a + counts_b}
            if len(values) > 1:
                print(f"{key[0]} (trace {key[1]}): {name} differs: {sorted(values)}")
                status = 1
        if key[1] != 0:
            continue
        for metric in END_TO_END:
            a = [r["metrics"][metric.name]["value"] for r in side_a[key]]
            b = [r["metrics"][metric.name]["value"] for r in side_b[key]]
            result = verdict(metric, a, b)
            if result in ("worse", "unresolved"):
                status = 1
            med_a, med_b = statistics.median(a), statistics.median(b)
            print(f"{key[0]:<18} {metric.name:<14} {med_a:>11.5g} {med_b:>11.5g} "
                  f"{med_b / med_a:>7.3f} {metric.bound:>6.2f} "
                  f"{_share(spread(a))} {_share(spread(b))}  {result}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
