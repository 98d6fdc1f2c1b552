"""The sandbox's speed, sampled next to every measurement.

The benchmark runs on two shared cores whose speed drifts by about
+-30 % over seconds (a fixed pure-Python loop timed for a minute shows
it; CPU time drifts with wall time, so the process is slowed, not
descheduled).  Ten runs of one workload then spread by 15-25 %, more
than any bound worth setting.  So every timed region is bracketed by
*bursts* — a fixed mix of allocation, dict and float work that imports
nothing from the program — and a time is reported as

    measured * NOMINAL_BURST_S / (burst time around the measurement)

that is, as what it would have been on a core that holds the nominal
speed.  A change to the program cannot move the burst, so ratios between
two commits are unaffected; what is removed is the part of the drift
that slows the burst and the program alike (spreads drop to 5-10 %).
The raw wall-clock values are printed beside the normalised ones.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

#: One burst on an otherwise idle sandbox core (its usual fast regime).
NOMINAL_BURST_S = 0.0012
BURST_STEPS = 10_000
#: Bursts run between ticks once this much tick time has passed since
#: the last one, which keeps them near 5 % of a run.
BURST_EVERY_S = 0.03
#: A tick is normalised by the median of this many bursts around it.
WINDOW = 5


def burst() -> float:
    """Seconds one fixed mix of interpreter work takes right now."""
    started = time.perf_counter()
    table = {}
    total = 0.0
    for i in range(BURST_STEPS):
        pair = (i, i * 0.5)
        table[i & 255] = pair
        total += table.get((i * 7) & 255, pair)[1]
    return time.perf_counter() - started


def speed(samples: int = WINDOW) -> float:
    """Current slowdown against nominal (1.0 = nominal, 1.3 = 30 % slow)."""
    return statistics.median(burst() for _ in range(samples)) / NOMINAL_BURST_S


def local_speeds(bursts: Sequence[float], at: Sequence[int]) -> List[float]:
    """Slowdown to apply to each sample: ``at[i]`` is the number of
    bursts taken before sample ``i``; the median of the ``WINDOW``
    bursts around that point is its local burst time."""
    half = WINDOW // 2
    out = []
    for position in at:
        low = max(0, min(position - half, len(bursts) - WINDOW))
        out.append(
            statistics.median(bursts[low : low + WINDOW]) / NOMINAL_BURST_S
        )
    return out
