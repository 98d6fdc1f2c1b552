"""Worker-kill chaos: SIGKILL a shard worker mid-run, answers unchanged.

The contract under test is the tentpole of the out-of-process serving
work: ``repro-dq serve --shards K --workers process`` spawns K shard
worker processes behind the async multiplex front-end, and killing one
of them in the middle of the run (``--kill-worker SHARD@TICK`` SIGKILLs
the worker at the start of that master tick) must leave the answer
stream byte-identical — the front-end respawns the worker, replays its
message journal, and re-issues the in-flight tick.  The stream must
also match the in-process sharded front-end and the single unsharded
broker on the same seed.
"""

import os
import re
import subprocess
import sys

import pytest

SERVE_ARGS = [
    "--scenario", "synthetic", "--scale", "tiny", "--seed", "5",
    "--clients", "3", "--ticks", "10", "--kind", "mixed", "--churn", "2",
]


def _env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _serve(answer_log, *extra):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", *SERVE_ARGS,
         "--answer-log", str(answer_log), *extra],
        env=_env(), capture_output=True, text=True, timeout=600,
    )


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def unsharded_answers(tmp_path_factory):
    log = tmp_path_factory.mktemp("unsharded") / "answers.log"
    proc = _serve(log)
    assert proc.returncode == 0, proc.stderr
    return _read(log)


class TestWorkerKillChaos:
    def test_process_workers_match_unsharded(
        self, tmp_path, unsharded_answers
    ):
        log = tmp_path / "answers.log"
        proc = _serve(log, "--shards", "4", "--workers", "process")
        assert proc.returncode == 0, proc.stderr
        assert "process workers" in proc.stdout
        assert "per-shard:" in proc.stdout
        assert _read(log) == unsharded_answers

    def test_sigkill_worker_mid_run_answers_unchanged(
        self, tmp_path, unsharded_answers
    ):
        log = tmp_path / "answers.log"
        proc = _serve(
            log,
            "--shards", "4", "--workers", "process",
            "--kill-worker", "2@5",
        )
        assert proc.returncode == 0, proc.stderr
        # The kill really happened: shard 2 logged a crash and restart.
        assert re.search(r"shard 2\s.*restarts=1", proc.stdout), proc.stdout
        # ... and its journal replayed real SUBMITs: --churn took effect.
        assert re.search(r"updates +: [1-9]\d* applied", proc.stdout), proc.stdout
        assert _read(log) == unsharded_answers

    def test_in_process_sharding_matches_too(
        self, tmp_path, unsharded_answers
    ):
        log = tmp_path / "answers.log"
        proc = _serve(log, "--shards", "4")
        assert proc.returncode == 0, proc.stderr
        assert _read(log) == unsharded_answers

    def test_kill_worker_flag_is_validated(self, tmp_path):
        log = tmp_path / "answers.log"
        bad_syntax = _serve(log, "--shards", "2", "--workers", "process",
                            "--kill-worker", "nope")
        assert bad_syntax.returncode == 2
        assert "SHARD@TICK" in bad_syntax.stderr

        out_of_range = _serve(log, "--shards", "2", "--workers", "process",
                              "--kill-worker", "7@3")
        assert out_of_range.returncode == 2
        assert "out of range" in out_of_range.stderr

        needs_process = _serve(log, "--shards", "2", "--kill-worker", "1@3")
        assert needs_process.returncode == 2
        assert "--workers process" in needs_process.stderr
