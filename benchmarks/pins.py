#!/usr/bin/env python3
"""The committed deterministic pins, checked or rewritten in one place.

A pin is a traced run's ``deterministic`` block (answer digest, reads,
hits, evictions, ``QueryCost`` counts, ``load_node`` calls, scheduler
shares) committed under a key of a ``results/`` artifact.  Each row of
:data:`PINS` names the workload, the seed, the artifact and the key::

    python3 benchmarks/pins.py --check    # exit 1 if any field differs
    python3 benchmarks/pins.py --update   # rewrite the pinned blocks

``--check`` runs ``bench/run.py --workload W --seed S --trace 1`` once
per row and prints every field that differs from the committed block.
``--update`` writes the fresh blocks into their artifacts and leaves
the rest of each file as it was, byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: ``(workload, seed, artifact under results/, key of its deterministic block)``
PINS: List[Tuple[str, int, str, str]] = [
    ("zoo_churn_durable", 11, "BENCH_durable_tick.json", "zoo_churn_durable_seed_11_traced"),
    ("npdq_mid", 11, "BENCH_npdq_sweep.json", "npdq_mid_seed_11_traced"),
    ("pdq_paper", 11, "BENCH_pdq_sweep.json", "pdq_paper_seed_11_traced"),
    ("spread_mux2", 11, "BENCH_serving_census.json", "spread_mux2_seed_11_traced"),
]


def fresh_block(workload: str, seed: int) -> Dict:
    """The ``deterministic`` block of one traced run of ``workload``."""
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "run.json")
        subprocess.run(
            [sys.executable, os.path.join(ROOT, "bench", "run.py"),
             "--workload", workload, "--seed", str(seed), "--trace", "1",
             "--out", out],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)["deterministic"]


def _artifact(name: str) -> str:
    return os.path.join(ROOT, "results", name)


def check() -> int:
    status = 0
    for workload, seed, artifact, key in PINS:
        with open(_artifact(artifact), encoding="utf-8") as fh:
            committed = json.load(fh)["deterministic"][key]
        fresh = fresh_block(workload, seed)
        moved = [
            name for name in sorted(set(committed) | set(fresh))
            if committed.get(name) != fresh.get(name)
        ]
        print(f"{artifact} {key}: {'identical' if not moved else 'DIFFERS'}")
        for name in moved:
            print(f"  {name}: committed {committed.get(name)!r}, fresh {fresh.get(name)!r}")
        status |= bool(moved)
    return status


def update() -> int:
    for workload, seed, artifact, key in PINS:
        path = _artifact(artifact)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        doc = json.loads(text)
        doc["deterministic"][key] = fresh_block(workload, seed)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=1) + text[len(text.rstrip("\n")):])
        print(f"{artifact} {key}: written")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--update", action="store_true")
    args = parser.parse_args()
    return check() if args.check else update()


if __name__ == "__main__":
    sys.exit(main())
