"""Tests for the ``repro-dq`` command-line interface."""

import json
import re

import pytest

from repro.cli import main


class TestFigures:
    def test_single_figure_tiny(self, capsys, tmp_path):
        out_file = tmp_path / "figs.txt"
        code = main(
            [
                "figures",
                "--scale",
                "tiny",
                "--figure",
                "fig06",
                "--output",
                str(out_file),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "fig06" in captured
        assert "naive" in captured and "pdq" in captured
        assert out_file.exists()
        assert "fig06" in out_file.read_text()

    def test_unknown_figure_rejected(self, capsys):
        code = main(["figures", "--scale", "tiny", "--figure", "fig99"])
        assert code == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_npdq_figure_tiny(self, capsys):
        code = main(["figures", "--scale", "tiny", "--figure", "fig10"])
        assert code == 0
        assert "npdq" in capsys.readouterr().out


class TestStats:
    def test_stats_tiny(self, capsys):
        code = main(["stats", "--scale", "tiny"])
        assert code == 0
        out = capsys.readouterr().out
        assert "native-space index" in out
        assert "dual-time index" in out
        assert "fanout 145/127" in out


class TestDemo:
    def test_demo_runs_and_switches_modes(self, capsys):
        code = main(["demo", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mode=snapshot" in out
        assert "mode switches" in out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_bad_scale(self):
        with pytest.raises(SystemExit):
            main(["stats", "--scale", "galactic"])


class TestFsck:
    def test_clean_index_exits_zero(self, capsys):
        code = main(["fsck", "--scale", "tiny", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_dual_index_also_checkable(self, capsys):
        code = main(["fsck", "--scale", "tiny", "--index", "dual"])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_deliberate_corruption_detected(self, capsys):
        code = main(["fsck", "--scale", "tiny", "--corrupt", "2"])
        assert code == 1
        out = capsys.readouterr().out
        assert "CORRUPT" in out
        assert "corrupt-page" in out

    def test_corrupting_unallocated_page_rejected(self, capsys):
        code = main(["fsck", "--scale", "tiny", "--corrupt", "999999"])
        assert code == 2
        assert "not allocated" in capsys.readouterr().err


class TestChaos:
    def test_mild_plan_absorbed_by_retries(self, capsys):
        code = main(
            ["chaos", "--scale", "tiny", "--plan", "seed=7;read=0.02"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "OK" in out

    def test_bad_plan_rejected(self, capsys):
        code = main(["chaos", "--scale", "tiny", "--plan", "flip@3"])
        assert code == 2
        assert "bad fault plan" in capsys.readouterr().err

    def test_invalid_retries_rejected(self, capsys):
        code = main(["chaos", "--scale", "tiny", "--retries", "0"])
        assert code == 2
        assert "--retries" in capsys.readouterr().err

    def test_negative_budget_rejected(self, capsys):
        code = main(["chaos", "--scale", "tiny", "--budget", "-1"])
        assert code == 2
        assert "--budget" in capsys.readouterr().err

    def test_heavy_plan_reports_degradation_or_subset(self, capsys):
        code = main(
            [
                "chaos",
                "--scale",
                "tiny",
                "--plan",
                "seed=3;read=0.3",
                "--retries",
                "1",
                "--budget",
                "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos answer" in out
        assert "FAIL" not in out


class TestServe:
    """``serve`` is one path: a flag means the same with and without
    ``--data-dir``, and what cannot be served is refused up front."""

    TINY = ["serve", "--scale", "tiny", "--ticks", "6"]

    #: The ``store.json`` keys ``_serve_cfg`` pins, plus the world's
    #: extent.
    PINNED_KEYS = {
        "scenario", "scale", "seed", "clients", "ticks", "kind", "mode",
        "shards", "period", "window", "queue_depth", "shared_scan",
        "promote_after", "churn", "checkpoint_every",
        "knn_k", "join_delta", "route_refresh", "space_side", "horizon",
    }

    @pytest.mark.parametrize(
        "flags, names",
        [
            ("--clients 0", "--clients"),
            ("--ticks 0", "--ticks"),
            ("--shards 0", "--shards"),
            ("--knn-k 0", "--knn-k"),
            ("--join-delta -1", "--join-delta"),
            ("--kill-worker 0@1", "--workers process"),
            ("--checkpoint-every 4", "--data-dir"),
            ("--clients 0 --data-dir D", "--clients"),
            ("--ticks 0 --data-dir D", "--ticks"),
            ("--shards 0 --data-dir D", "--shards"),
            ("--kill-worker 0@1 --data-dir D", "--workers process"),
            ("--queue-depth 0 --data-dir D", "--queue-depth"),
            ("--workers process --data-dir D", "--workers process"),
            ("--answer-log a.log --data-dir D", "--answer-log"),
        ],
    )
    def test_refused_before_anything_exists(
        self, tmp_path, capsys, monkeypatch, flags, names
    ):
        monkeypatch.chdir(tmp_path)
        assert main(self.TINY + flags.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert names in captured.err
        assert captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def _serve(self, capsys, *flags):
        assert main(self.TINY + list(flags)) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize(
        "fleet",
        [
            ["--clients", "2", "--kind", "pdq", "--churn", "2"],
            # mixed *with* churn is excluded on purpose: the file backend
            # may re-deliver NPDQ items (DESIGN.md §11.4).
            ["--clients", "3", "--kind", "mixed"],
        ],
    )
    def test_in_memory_stream_equals_the_durable_one(
        self, tmp_path, capsys, fleet
    ):
        log = tmp_path / "answers.log"
        in_memory = self._serve(capsys, *fleet, "--answer-log", str(log))
        store = tmp_path / "store"
        durable = self._serve(capsys, *fleet, "--data-dir", str(store))
        assert log.read_bytes() == (store / "answers.log").read_bytes()
        assert log.stat().st_size > 0
        updates = r"updates +: ([1-9]\d*) applied"
        if "--churn" in fleet:
            # --churn takes effect on both, and lands the same inserts.
            applied = re.search(updates, in_memory)
            assert applied and applied.group(0) in durable
        else:
            assert not re.search(updates, in_memory + durable)

    def test_pinned_keys_and_resume_of_an_older_store(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro import cli

        fleet = ["--clients", "3", "--kind", "mixed", "--churn", "2"]
        whole = tmp_path / "whole"
        self._serve(capsys, *fleet, "--data-dir", str(whole))
        pinned = json.loads((whole / "store.json").read_text())
        assert set(pinned) == self.PINNED_KEYS
        assert pinned["checkpoint_every"] == 8

        # The same run, dying in tick 3's answer flush: ticks 0-2 are
        # durable, tick 3 is not.
        class Crash(BaseException):
            pass

        flushes = []

        def dying_flush(stream):
            flushes.append(stream)
            if len(flushes) == 4:
                raise Crash

        store = tmp_path / "store"
        with monkeypatch.context() as patch:
            patch.setattr(cli._AnswerStream, "flush", dying_flush)
            with pytest.raises(Crash):
                main(self.TINY + fleet + ["--data-dir", str(store)])
        capsys.readouterr()
        # A store pinned before sharding (PR 7) and the zoo (PR 10) had
        # none of these keys; it must resume all the same.
        for key in ("shards", "knn_k", "join_delta", "route_refresh"):
            del pinned[key]
        (store / "store.json").write_text(json.dumps(pinned))
        resumed = self._serve(capsys, *fleet, "--data-dir", str(store))
        assert "recovered through tick 2" in resumed
        assert "1 shard(s)" in resumed
        assert (store / "answers.log").read_bytes() == (
            whole / "answers.log"
        ).read_bytes()


class TestAnswerLogTruncation:
    """Resume/restore must drop torn answer-log tails, not parse them."""

    GOOD = (
        "0\tpdq-0\tpdq\t0\t1:1\n"
        "1\tpdq-0\tpdq\t0\t1:1,2:1\n"
    )

    def _truncate(self, path, through):
        from repro.cli import _truncate_answer_log

        _truncate_answer_log(str(path), through)
        return path.read_text(encoding="utf-8")

    def test_whole_lines_kept_through_tick(self, tmp_path):
        path = tmp_path / "answers.log"
        path.write_text(self.GOOD + "2\tpdq-0\tpdq\t0\t1:1\n", encoding="utf-8")
        assert self._truncate(path, 1) == self.GOOD

    def test_torn_numeric_fragment_is_dropped(self, tmp_path):
        # A crash mid-append can leave a fragment whose numeric prefix
        # parses as a kept tick; it must be discarded, or the next
        # append would concatenate onto a newline-less line.
        path = tmp_path / "answers.log"
        path.write_text(self.GOOD + "1\tpdq-0\tpd", encoding="utf-8")
        assert self._truncate(path, 1) == self.GOOD

    def test_non_numeric_fragment_does_not_abort(self, tmp_path):
        path = tmp_path / "answers.log"
        path.write_text(self.GOOD + "\x00garbage", encoding="utf-8")
        assert self._truncate(path, 1) == self.GOOD

    def test_malformed_complete_line_is_dropped(self, tmp_path):
        path = tmp_path / "answers.log"
        path.write_text(self.GOOD + "1\tonly\tthree\n", encoding="utf-8")
        assert self._truncate(path, 1) == self.GOOD

    def test_missing_file_is_a_noop(self, tmp_path):
        from repro.cli import _truncate_answer_log

        _truncate_answer_log(str(tmp_path / "absent.log"), 3)
        assert not (tmp_path / "absent.log").exists()

    def test_through_minus_one_empties_the_stream(self, tmp_path):
        # A fresh (never-pinned) serve passes through=-1: any stale
        # answer log from an aborted store must be emptied, matching
        # the fresh page/WAL files.
        path = tmp_path / "answers.log"
        path.write_text(self.GOOD, encoding="utf-8")
        assert self._truncate(path, -1) == ""


class TestLintExitCodes:
    """The contract CI scripts build on: 0 clean, 1 violation/stale, 2 usage."""

    CLEAN = "def add(a, b):\n    return a + b\n"
    DIRTY = "def collect(items=[]):\n    return items\n"  # DQC02
    SUPPRESSED = (
        "def collect(items=[]):  # repro: disable=DQC02\n    return items\n"
    )

    def _write(self, tmp_path, source):
        target = tmp_path / "repro" / "core" / "mod.py"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
        return target

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        target = self._write(tmp_path, self.CLEAN)
        assert main(["lint", str(target), "--no-baseline"]) == 0

    def test_new_violation_exits_one(self, tmp_path, capsys):
        target = self._write(tmp_path, self.DIRTY)
        assert main(["lint", str(target), "--no-baseline"]) == 1
        assert "DQC02" in capsys.readouterr().out

    def test_suppressed_violation_exits_zero(self, tmp_path, capsys):
        target = self._write(tmp_path, self.SUPPRESSED)
        assert main(["lint", str(target), "--no-baseline"]) == 0
        assert "1 suppressed" in capsys.readouterr().out

    def test_stale_baseline_exits_one(self, tmp_path, capsys):
        target = self._write(tmp_path, self.DIRTY)
        baseline = tmp_path / "baseline.json"
        main(["lint", str(target), "--baseline", str(baseline),
              "--update-baseline"])
        assert main(["lint", str(target), "--baseline", str(baseline)]) == 0
        target.write_text(self.CLEAN)
        assert main(["lint", str(target), "--baseline", str(baseline)]) == 1
        assert "stale baseline entry" in capsys.readouterr().out

    def test_usage_error_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "missing"), "--no-baseline"]) == 2
