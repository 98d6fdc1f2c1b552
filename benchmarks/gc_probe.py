#!/usr/bin/env python3
"""Which collections land inside a benchmark workload's timed ticks.

Serves rounds exactly as ``bench/run.py`` does (``bench.rounds.run_round``:
build, register, ``ticks`` ticks of ``run_tick()`` plus polling every
client, every frame kept, drain) with a ``gc.callbacks`` hook that
records each collection's generation and duration and whether it
started inside a timed tick.  Prints one line per round: ticks/s (raw
wall time), then count and milliseconds of the generation-2 (full)
collections inside ticks, and of all collections.

    python3 benchmarks/gc_probe.py --workload pdq_paper --seed 11 --rounds 3
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench import rounds  # noqa: E402
from bench.workloads import WORKLOADS, generate, round_inputs  # noqa: E402


class _Probe:
    """The collector's callback and the tick boundaries it is judged by.

    A tick starts when ``run_tick`` is entered and ends at the next
    ``perf_counter()`` ``bench.rounds`` reads — the one that closes the
    tick's timing, after the polls.
    """

    def __init__(self) -> None:
        self.in_tick = False
        self.collections = []  # (generation, seconds, started in a tick)
        self._started = (0.0, False)

    def perf_counter(self) -> float:
        self.in_tick = False
        return time.perf_counter()

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = (time.perf_counter(), self.in_tick)
        else:
            began, inside = self._started
            self.collections.append(
                (info["generation"], time.perf_counter() - began, inside)
            )

    def build(self, *args, **kwargs):
        server = _build(*args, **kwargs)
        run_tick = server.broker.run_tick

        def timed_tick():
            self.in_tick = True
            return run_tick()

        server.broker.run_tick = timed_tick
        return server


_build = rounds.build


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="pdq_paper", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]
    config, segments = generate(wl, args.seed)
    probe = _Probe()
    rounds.build = probe.build
    rounds.time = probe  # run_round reads only time.perf_counter
    gc.callbacks.append(probe.on_gc)
    print("round  ticks/s  gen2-in-ticks  gen2-in-ticks-ms  all-in-ticks  all-ms")
    with tempfile.TemporaryDirectory() as scratch:
        for r in range(args.rounds):
            inputs = round_inputs(wl, config, segments, args.seed, r)
            probe.collections = []
            res = rounds.run_round(wl, config, segments, inputs, scratch)
            inside = [c for c in probe.collections if c[2]]
            full = [c for c in inside if c[0] == 2]
            print(
                f"{r:5d}  {len(res.tick_s) / sum(res.tick_s):7.1f}  "
                f"{len(full):13d}  {1e3 * sum(c[1] for c in full):16.1f}  "
                f"{len(inside):12d}  {1e3 * sum(c[1] for c in inside):6.1f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
