"""Smoke test of the benchmark itself (not part of tier-1):

    PYTHONPATH=src python -m pytest bench -q

One ``--smoke`` pass (``WorkloadConfig.tiny``, 20 ticks, one round) must
emit every workload and metric ``BENCHMARK.json`` names, with its unit
and no failed frame, inside a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from bench.metrics import END_TO_END, PER_LAYER
from bench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "bench", "run.py")


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_contract_lists_what_the_code_measures(contract):
    assert contract["paths"] == ["bench"]
    assert contract["command"] == ["python3", "bench/run.py"]
    assert contract["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS.values()
    ]
    assert contract["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert contract["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    assert any(m["name"] == "setup_s" for m in contract["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in contract["workloads"])


def test_smoke_pass_emits_every_metric(contract, tmp_path):
    out = tmp_path / "smoke.json"
    started = time.perf_counter()
    status = subprocess.run(
        [sys.executable, RUN, "--smoke", "--seed", "11", "--out", str(out)], cwd=ROOT
    ).returncode
    assert status == 0
    assert time.perf_counter() - started < 60.0
    runs = json.loads(out.read_text())["runs"]
    by_key = {(r["workload"], r["trace"]): r for r in runs}
    for workload in contract["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            record = by_key[(workload["name"], trace)]
            assert record["correct"] and record["failed"] == 0
            assert record["attempted"] >= 1
            emitted = record["metrics"]
            assert sorted(emitted) == sorted(m["name"] for m in contract[section])
            for m in contract[section]:
                assert emitted[m["name"]]["unit"] == m["unit"]
                assert isinstance(emitted[m["name"]]["value"], (int, float))
            if trace == 0:
                assert all(v["value"] > 0 for v in emitted.values())
            else:
                assert emitted["failed_share"]["value"] == 0
    digest = lambda name: by_key[(name, 0)]["deterministic"]["answer_digest"]  # noqa: E731
    assert digest("spread_mux2") == digest("spread_proc2")


def test_refuses_to_run_without_the_program(tmp_path):
    """Only BENCHMARK.json and bench/: non-zero exit and no result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "bench"), tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__", "results"),
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "npdq_mid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
