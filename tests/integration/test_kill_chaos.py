"""Kill-the-process chaos: SIGKILL a durable serve, resume, compare.

The contract under test is the tentpole of the durability work: a
``repro-dq serve --data-dir D`` can be killed with SIGKILL at an
arbitrary tick and re-running the *same command* recovers the store,
fast-forwards the recovered ticks, and appends exactly the answer lines
the uninterrupted run would have produced — the concatenated answer
stream is byte-identical.  ``fsck --data-dir`` must come back clean
afterwards, and the tick recorded by the WAL tail must cover any
snapshot taken before the kill.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

SERVE_ARGS = [
    "--scenario", "synthetic", "--scale", "tiny", "--seed", "5",
    "--clients", "3", "--ticks", "10", "--kind", "mixed",
    "--churn", "2", "--checkpoint-every", "4",
]
TICKS = 10


def _env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=_env(), capture_output=True, text=True, timeout=300, **kwargs,
    )


def _serve(data_dir):
    return _cli("serve", *SERVE_ARGS, "--data-dir", str(data_dir))


def _answers(data_dir):
    path = os.path.join(str(data_dir), "answers.log")
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _wait_for_tick(data_dir, tick, timeout=240.0):
    """Poll the answer log until a line for ``tick`` has been fsynced."""
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


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("baseline")
    proc = _serve(data_dir)
    assert proc.returncode == 0, proc.stderr
    return _answers(data_dir)


def _kill_at_tick(data_dir, tick):
    """Start a durable serve and SIGKILL it once ``tick`` is on disk."""
    victim = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", *SERVE_ARGS,
         "--data-dir", str(data_dir)],
        env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        assert _wait_for_tick(data_dir, tick), f"serve never reached tick {tick}"
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=60)
    finally:
        if victim.poll() is None:
            victim.kill()
    assert victim.returncode != 0


class TestKillChaos:
    def test_sigkill_mid_run_resumes_to_identical_answers(
        self, tmp_path, uninterrupted
    ):
        data_dir = tmp_path / "store"
        # Seeded mid-run kill point: tick 5 of 10.
        _kill_at_tick(data_dir, 5)

        resumed = _serve(data_dir)
        assert resumed.returncode == 0, resumed.stderr
        assert "resuming" in resumed.stdout
        assert _answers(data_dir) == uninterrupted

        check = _cli("fsck", "--data-dir", str(data_dir))
        assert check.returncode == 0, check.stdout + check.stderr
        assert "clean" in check.stdout

    def test_snapshot_restore_round_trip_replays_the_tail(
        self, tmp_path, uninterrupted
    ):
        data_dir = tmp_path / "store"
        full = _serve(data_dir)
        assert full.returncode == 0, full.stderr

        snap = _cli("snapshot", "--data-dir", str(data_dir), "--id", "mid")
        assert snap.returncode == 0, snap.stderr
        listed = _cli("snapshot", "--data-dir", str(data_dir), "--list")
        assert "mid" in listed.stdout and "ok" in listed.stdout

        restored = _cli("restore", "--data-dir", str(data_dir), "--id", "mid")
        assert restored.returncode == 0, restored.stderr
        # Restoring the final snapshot rewinds nothing to re-serve, but
        # the answer stream must still match the uninterrupted run after
        # a resume attempt (which finds the store already complete).
        resumed = _serve(data_dir)
        assert resumed.returncode == 0, resumed.stderr
        assert _answers(data_dir) == uninterrupted

        check = _cli("fsck", "--data-dir", str(data_dir))
        assert check.returncode == 0, check.stdout + check.stderr
        assert "covered by the WAL tail" in check.stdout

    def test_resume_ignores_a_retired_option(self, tmp_path, uninterrupted):
        """A store pinned by an earlier ``serve`` still names options
        that have since been retired (``accel``, either value;
        ``npdq_margin``, whose forecast only ever steered batching;
        ``route_refresh``, whose ghost frames never moved an answer).
        Resume must not trip over the key, and — nothing it once chose
        between could move an answer — must finish the stream an
        uninterrupted run writes today."""
        killed = tmp_path / "killed"
        _kill_at_tick(killed, 5)
        retired = [
            ("accel", "off"), ("accel", "numpy"), ("npdq_margin", 0.5),
            ("route_refresh", 3),
        ]
        for key, value in retired:
            data_dir = tmp_path / f"pinned-{key}-{value}"
            shutil.copytree(killed, data_dir)
            pinned = data_dir / "store.json"
            cfg = json.loads(pinned.read_text(encoding="utf-8"))
            assert key not in cfg
            cfg[key] = value
            pinned.write_text(json.dumps(cfg), encoding="utf-8")

            resumed = _serve(data_dir)
            assert resumed.returncode == 0, resumed.stderr
            assert "resuming" in resumed.stdout
            assert _answers(data_dir) == uninterrupted
