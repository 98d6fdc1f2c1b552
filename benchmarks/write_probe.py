#!/usr/bin/env python3
"""Where a tick's writes go: the writer's share of a benchmark workload.

Serves rounds exactly as ``bench/run.py`` does (``bench.rounds.run_round``)
and wraps the writer from outside with ``perf_counter``: the time of
``UpdateDispatcher.apply_until`` and of the PDQ update notices inside it,
and, over the calls of ``apply_until``, the page writes, redo
transactions, WAL records and WAL bytes it caused.  Prints raw wall
time (not speed-normalised) per tick, and WAL figures per applied insert.

    python3 benchmarks/write_probe.py --workload zoo_churn_durable --seed 11 --rounds 2

The notice timer wraps whichever notifier the checkout has
(``repro.core.pdq.notify_inserts`` for a committed batch, or the older
per-insert ``PDQEngine._on_insert``), so the same script measures a
parent commit too.
"""

from __future__ import annotations

import argparse
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
from repro.core import pdq  # noqa: E402
from repro.server.dispatcher import UpdateDispatcher  # noqa: E402


class _Probe:
    """Timers and counters around the writer of every built server."""

    def __init__(self) -> None:
        self.totals = dict.fromkeys(
            ("apply_s", "notice_s", "ticks", "inserts", "writes",
             "transactions", "wal_records", "wal_bytes"), 0.0
        )
        self.stores = []

    def build(self, *args, **kwargs):
        server = _build(*args, **kwargs)
        self.stores = [(disk, log) for disk, log, _ in server.stores]
        return server

    def _logs(self):
        return [
            (disk.stats.writes, log.commits, log.appended_records, len(log._pending))
            for disk, log in self.stores
        ]

    def apply_until(self, dispatcher, t, live_queries):
        before, applied_before = self._logs(), dispatcher.stats.inserts_applied
        started = time.perf_counter()
        applied = _apply_until(dispatcher, t, live_queries)
        self.totals["apply_s"] += time.perf_counter() - started
        self.totals["ticks"] += 1
        self.totals["inserts"] += dispatcher.stats.inserts_applied - applied_before
        for (w0, c0, r0, b0), (w1, c1, r1, b1) in zip(before, self._logs()):
            self.totals["writes"] += w1 - w0
            self.totals["transactions"] += c1 - c0
            self.totals["wal_records"] += r1 - r0
            # frames wait in the log's buffer until the tick's sync
            self.totals["wal_bytes"] += b1 - b0
        return applied

    def notice(self, notifier):
        def timed(*args):
            started = time.perf_counter()
            try:
                return notifier(*args)
            finally:
                self.totals["notice_s"] += time.perf_counter() - started

        return timed


_build = rounds.build
_apply_until = UpdateDispatcher.apply_until


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="zoo_churn_durable", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--rounds", type=int, default=2)
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]
    config, segments = generate(wl, args.seed)
    probe = _Probe()
    rounds.build = probe.build
    UpdateDispatcher.apply_until = (
        lambda dispatcher, t, live_queries=True:
        probe.apply_until(dispatcher, t, live_queries)
    )
    owner, name = (
        (pdq, "notify_inserts") if hasattr(pdq, "notify_inserts")
        else (pdq.PDQEngine, "_on_insert")
    )
    setattr(owner, name, probe.notice(getattr(owner, name)))
    tick_s = []
    with tempfile.TemporaryDirectory() as scratch:
        for r in range(args.rounds):
            inputs = round_inputs(wl, config, segments, args.seed, r)
            tick_s += rounds.run_round(wl, config, segments, inputs, scratch).tick_s
    t = probe.totals
    ticks, inserts = t["ticks"] or 1, t["inserts"] or 1
    print(f"workload {args.workload}, seed {args.seed}, {args.rounds} rounds, raw wall time")
    print(f"tick                      {1e3 * sum(tick_s) / len(tick_s):8.3f} ms")
    print(f"apply_until               {1e3 * t['apply_s'] / ticks:8.3f} ms a tick")
    print(f"  update notices          {1e3 * t['notice_s'] / ticks:8.3f} ms a tick")
    print(f"inserts                   {t['inserts'] / ticks:8.2f} a tick")
    print(f"page writes               {t['writes'] / ticks:8.2f} a tick")
    print(f"redo transactions         {t['transactions'] / ticks:8.2f} a tick")
    print(f"WAL records               {t['wal_records'] / inserts:8.2f} an insert")
    print(f"WAL bytes                 {t['wal_bytes'] / inserts:8.0f} an insert")
    return 0


if __name__ == "__main__":
    sys.exit(main())
