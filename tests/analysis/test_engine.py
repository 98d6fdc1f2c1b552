"""The lint engine: discovery, suppressions, the baseline ratchet, exits."""

import json

import pytest

from repro.analysis.engine import LintEngine
from repro.cli import main
from repro.errors import LintConfigError

CLEAN = "def add(a, b):\n    return a + b\n"
DIRTY = "def collect(items=[]):\n    return items\n"  # DQC02


def write(tmp_path, relpath, source):
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return target


class TestDiscovery:
    def test_walks_directories_recursively(self, tmp_path):
        write(tmp_path, "repro/core/a.py", CLEAN)
        write(tmp_path, "repro/core/sub/b.py", CLEAN)
        write(tmp_path, "repro/core/__pycache__/c.py", DIRTY)
        write(tmp_path, "repro/core/.hidden/d.py", DIRTY)
        report = LintEngine().run([str(tmp_path)])
        assert report.files_checked == 2
        assert report.ok

    def test_missing_path_is_a_config_error(self):
        with pytest.raises(LintConfigError):
            LintEngine().discover(["no/such/dir"])

    def test_cli_exit_2_on_missing_path(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope"), "--no-baseline"]) == 2

    def test_parse_error_fails_the_run(self, tmp_path, capsys):
        write(tmp_path, "repro/core/bad.py", "def broken(:\n")
        report = LintEngine().run([str(tmp_path)])
        assert not report.ok
        assert len(report.parse_errors) == 1


class TestSuppressions:
    def test_line_suppression(self, tmp_path):
        write(
            tmp_path,
            "repro/core/a.py",
            "def collect(items=[]):  # repro: disable=DQC02\n    return items\n",
        )
        report = LintEngine().run([str(tmp_path)])
        assert report.ok
        assert report.suppressed == 1

    def test_line_suppression_is_rule_specific(self, tmp_path):
        write(
            tmp_path,
            "repro/core/a.py",
            "def collect(items=[]):  # repro: disable=DQD01\n    return items\n",
        )
        report = LintEngine().run([str(tmp_path)])
        assert not report.ok  # wrong id: DQC02 still fires

    def test_file_suppression(self, tmp_path):
        write(
            tmp_path,
            "repro/core/a.py",
            "# repro: disable-file=DQC02\n" + DIRTY + DIRTY,
        )
        report = LintEngine().run([str(tmp_path)])
        assert report.ok
        assert report.suppressed == 2

    def test_disable_all(self, tmp_path):
        write(
            tmp_path,
            "repro/server/a.py",
            "class S:\n    queue = []  # repro: disable=all\n",
        )
        assert LintEngine().run([str(tmp_path)]).ok


class TestBaseline:
    def test_baselined_debt_is_tolerated(self, tmp_path):
        target = write(tmp_path, "repro/core/a.py", DIRTY)
        baseline = {f"{target}::DQC02": 1}
        report = LintEngine().run([str(target)], baseline)
        assert report.ok
        assert len(report.baselined) == 1

    def test_new_debt_beyond_the_allowance_fails(self, tmp_path):
        target = write(tmp_path, "repro/core/a.py", DIRTY + DIRTY)
        baseline = {f"{target}::DQC02": 1}
        report = LintEngine().run([str(target)], baseline)
        assert len(report.baselined) == 1
        assert len(report.violations) == 1  # the second one is new

    def test_update_baseline_ratchets(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        target = write(tmp_path, "repro/core/a.py", DIRTY)
        baseline_file = tmp_path / "baseline.json"
        assert (
            main(
                [
                    "lint",
                    str(target),
                    "--baseline",
                    str(baseline_file),
                    "--update-baseline",
                ]
            )
            == 0
        )
        counts = json.loads(baseline_file.read_text())["violations"]
        assert counts == {f"{target}::DQC02": 1}
        # With the baseline in place the same tree now passes ...
        assert (
            main(["lint", str(target), "--baseline", str(baseline_file)]) == 0
        )
        # ... and fixing the debt then updating ratchets it away.
        target.write_text(CLEAN)
        main(
            [
                "lint",
                str(target),
                "--baseline",
                str(baseline_file),
                "--update-baseline",
            ]
        )
        assert json.loads(baseline_file.read_text())["violations"] == {}

    def test_malformed_baseline_is_exit_2(self, tmp_path, capsys):
        target = write(tmp_path, "repro/core/a.py", CLEAN)
        bad = tmp_path / "baseline.json"
        bad.write_text('{"violations": {"x": -3}}')
        assert main(["lint", str(target), "--baseline", str(bad)]) == 2

    def test_missing_baseline_file_means_empty(self, tmp_path):
        assert LintEngine.load_baseline(str(tmp_path / "absent.json")) == {}


class TestStaleBaseline:
    def test_fixed_debt_makes_the_entry_stale_and_fails(self, tmp_path):
        target = write(tmp_path, "repro/core/a.py", CLEAN)
        baseline = {f"{target}::DQC02": 1}
        report = LintEngine().run([str(target)], baseline)
        assert report.stale == [f"{target}::DQC02"]
        assert not report.ok
        assert "stale baseline entry" in report.render()

    def test_partially_consumed_allowance_is_stale(self, tmp_path):
        # Two tolerated, one fixed: the ratchet must be tightened.
        target = write(tmp_path, "repro/core/a.py", DIRTY)
        baseline = {f"{target}::DQC02": 2}
        report = LintEngine().run([str(target)], baseline)
        assert report.stale == [f"{target}::DQC02"]
        assert not report.ok

    def test_entry_for_an_unchecked_file_is_not_stale(self, tmp_path):
        # Linting a subset must not declare other files' debt dead.
        target = write(tmp_path, "repro/core/a.py", CLEAN)
        baseline = {"somewhere/else.py::DQC02": 1}
        report = LintEngine().run([str(target)], baseline)
        assert report.stale == []
        assert report.ok

    def test_update_baseline_prunes_the_stale_entry(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        target = write(tmp_path, "repro/core/a.py", DIRTY)
        baseline_file = tmp_path / "baseline.json"
        main(["lint", str(target), "--baseline", str(baseline_file),
              "--update-baseline"])
        target.write_text(CLEAN)
        # Without --update-baseline the stale entry fails the run ...
        assert (
            main(["lint", str(target), "--baseline", str(baseline_file)]) == 1
        )
        assert "stale" in capsys.readouterr().out
        # ... and with it, the ratchet tightens to empty.
        main(["lint", str(target), "--baseline", str(baseline_file),
              "--update-baseline"])
        assert json.loads(baseline_file.read_text())["violations"] == {}
        assert (
            main(["lint", str(target), "--baseline", str(baseline_file)]) == 0
        )


class TestJsonFormat:
    def test_report_to_json_shape(self, tmp_path, capsys):
        target = write(tmp_path, "repro/core/a.py", DIRTY)
        assert (
            main(["lint", str(target), "--no-baseline", "--format", "json"])
            == 1
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["files_checked"] == 1
        (violation,) = payload["violations"]
        assert violation["rule"] == "DQC02"
        assert violation["path"] == str(target)
        assert violation["line"] == 1
        assert violation["witness"] == []

    def test_clean_tree_json_is_ok(self, tmp_path, capsys):
        target = write(tmp_path, "repro/core/a.py", CLEAN)
        assert (
            main(["lint", str(target), "--no-baseline", "--format", "json"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["violations"] == []


class TestRepoIsClean:
    def test_shipped_tree_passes_its_own_lint(self, capsys):
        # The dogfood guarantee: src/ + tests/ + benchmarks/ lint clean
        # against the committed baseline (which is empty).
        assert main(["lint"]) == 0

    def test_shipped_tree_passes_the_graph_pass(self, capsys):
        # The same run covers the whole-program rules (transitive
        # leaks, effect reachability, protocol drift) — CI uploads this
        # form — and the flag that used to select them is gone, not
        # aliased.
        assert main(["lint", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["suppressed"] == 0
        assert sorted(payload) == [
            "baselined", "files_checked", "ok", "parse_errors",
            "stale_baseline", "suppressed", "violations",
        ]
        with pytest.raises(SystemExit) as refused:
            main(["lint", "--graph"])
        assert refused.value.code == 2
