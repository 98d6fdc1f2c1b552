"""Durable sharded stores: per-shard WALs under one master tick commit.

``serve --data-dir D --shards K`` persists each shard's trees under
``D/shard-<i>/`` with one global answer stream and store config at the
top level; the master tick commits across every shard's WAL, so the
recovery cut is the minimum committed tick over all of them.  Contracts
under test: SIGKILL + resume is byte-identical at the same K; without
churn the answer stream is also identical *across* K (placement never
changes answers); ``fsck`` recurses into every shard; and snapshots of
sharded stores are refused rather than silently half-taken.

(With churn, cross-K identity on *disk-backed* trees is deliberately
not asserted: the page codec keeps one timestamp per node, so an insert
into a leaf conservatively restamps its co-resident entries and NPDQ
re-delivers them — a safe, deterministic, tree-shape-dependent
duplicate that differs between shardings.  See DESIGN.md.)
"""

import os
import signal
import subprocess
import sys
import time

BASE_ARGS = [
    "--scenario", "synthetic", "--scale", "tiny", "--seed", "5",
    "--clients", "3", "--ticks", "10", "--kind", "mixed",
    "--checkpoint-every", "4",
]


def _env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=_env(), capture_output=True, text=True, timeout=600, **kwargs,
    )


def _serve(data_dir, *extra):
    return _cli("serve", *BASE_ARGS, *extra, "--data-dir", str(data_dir))


def _answers(data_dir):
    with open(os.path.join(str(data_dir), "answers.log"), encoding="utf-8") as fh:
        return fh.read()


def _wait_for_tick(data_dir, tick, timeout=240.0):
    path = os.path.join(str(data_dir), "answers.log")
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for line in fh:
                    fields = line.split("\t", 1)
                    if fields and fields[0].isdigit() and int(fields[0]) >= tick:
                        return True
        except FileNotFoundError:
            pass
        # the ticks after the kill point take a few ms each: poll finer
        # than that, or the serve is over before the signal is sent
        time.sleep(0.002)
    return False


class TestDurableShards:
    def test_sharded_store_layout_and_fsck_recursion(self, tmp_path):
        data_dir = tmp_path / "store"
        proc = _serve(data_dir, "--shards", "2", "--churn", "2")
        assert proc.returncode == 0, proc.stderr

        for i in range(2):
            shard = data_dir / f"shard-{i}"
            assert (shard / "native.pages").exists(), "per-shard page file"
            assert (shard / "native.wal").exists(), "per-shard WAL"
            assert (shard / "dual.pages").exists(), "mixed kind needs dual"
        # One store config and one answer stream, at the top level only.
        assert (data_dir / "store.json").exists()
        assert (data_dir / "answers.log").exists()
        assert not (data_dir / "shard-0" / "answers.log").exists()

        check = _cli("fsck", "--data-dir", str(data_dir))
        assert check.returncode == 0, check.stdout + check.stderr
        assert "clean" in check.stdout
        for label in ("shard-0/native", "shard-0/dual",
                      "shard-1/native", "shard-1/dual"):
            assert label in check.stdout, check.stdout

    def test_cross_shard_identity_without_churn(self, tmp_path):
        logs = {}
        for k in (1, 2):
            data_dir = tmp_path / f"k{k}"
            proc = _serve(data_dir, "--shards", str(k))
            assert proc.returncode == 0, proc.stderr
            logs[k] = _answers(data_dir)
        assert logs[1] == logs[2]

    def test_sigkill_mid_run_resumes_to_identical_answers(self, tmp_path):
        shard_args = ("--shards", "2", "--churn", "2")
        baseline_dir = tmp_path / "baseline"
        baseline = _serve(baseline_dir, *shard_args)
        assert baseline.returncode == 0, baseline.stderr

        data_dir = tmp_path / "store"
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", *BASE_ARGS,
             *shard_args, "--data-dir", str(data_dir)],
            env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            assert _wait_for_tick(data_dir, 5), "serve never reached tick 5"
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=60)
        finally:
            if victim.poll() is None:
                victim.kill()
        assert victim.returncode != 0

        resumed = _serve(data_dir, *shard_args)
        assert resumed.returncode == 0, resumed.stderr
        assert "resuming" in resumed.stdout
        assert "2 shard(s)" in resumed.stdout
        assert _answers(data_dir) == _answers(baseline_dir)

        check = _cli("fsck", "--data-dir", str(data_dir))
        assert check.returncode == 0, check.stdout + check.stderr

    def test_sharded_store_guards(self, tmp_path):
        data_dir = tmp_path / "store"
        proc = _serve(data_dir, "--shards", "2")
        assert proc.returncode == 0, proc.stderr

        snap = _cli("snapshot", "--data-dir", str(data_dir), "--id", "s")
        assert snap.returncode == 2
        assert "sharded" in snap.stderr

        restore = _cli("restore", "--data-dir", str(data_dir), "--id", "s")
        assert restore.returncode == 2
        assert "sharded" in restore.stderr

        remote = _serve(data_dir, "--shards", "2", "--workers", "process")
        assert remote.returncode == 2
        assert "--workers process" in remote.stderr
