"""Tests for the experiment harness and figure drivers (tiny scale)."""

import pytest

from repro.experiments.figures import (
    ALL_FIGURES,
    fig06_pdq_io,
    fig08_pdq_io_by_size,
    fig10_npdq_io,
)
from repro.experiments.reporting import format_figure, format_tree_summary
from repro.experiments.runner import (
    ExperimentContext,
    run_npdq_point,
    run_pdq_point,
    split_first_subsequent,
)
from repro.index.dualtime import DualTimeIndex
from repro.index.nsi import NativeSpaceIndex
from repro.motion.segment import SegmentTable
from repro.workload.config import QueryWorkload, WorkloadConfig


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(
        WorkloadConfig.tiny(seed=3), QueryWorkload.tiny(seed=1)
    )


class TestContext:
    def test_builds_both_indexes(self, ctx):
        assert ctx.native is not None and ctx.dual is not None
        assert len(ctx.native) == len(ctx.segments)
        assert len(ctx.dual) == len(ctx.segments)

    def test_partial_builds(self):
        partial = ExperimentContext(
            WorkloadConfig.tiny(seed=3),
            QueryWorkload.tiny(seed=1),
            build_dual=False,
        )
        assert partial.native is not None and partial.dual is None

    def test_trajectories_deterministic(self, ctx):
        a = ctx.trajectories(50.0, 8.0)
        b = ctx.trajectories(50.0, 8.0)
        assert len(a) == len(b) == ctx.queries.trajectories
        assert a[0].time_span == b[0].time_span


def page_digests(index):
    """``(page id, level, columns digest)`` of every page, depth first."""
    tree, out, stack = index.tree, [], [index.tree.root_id]
    while stack:
        node = tree.load_node(stack.pop())
        rows = node.entries
        out.append((node.page_id, node.level, rows.fingerprint()))
        if not node.is_leaf:
            stack.extend(rows.child_id(k) for k in range(len(rows)))
    return out


class TestOneConversion:
    def test_both_flavours_load_one_table(self, monkeypatch):
        """The context converts its population once for both indexes, and
        each tree holds exactly the columns a load of the list gives."""
        made = []  # rows of every conversion (a new empty root makes one)
        of = SegmentTable.of.__func__

        def counting(cls, records):
            records = list(records)
            made.append(len(records))
            return of(cls, records)

        with monkeypatch.context() as patch:
            patch.setattr(SegmentTable, "of", classmethod(counting))
            ctx = ExperimentContext(
                WorkloadConfig.tiny(seed=3), QueryWorkload.tiny(seed=1)
            )
        assert sum(made) == len(ctx.segments)
        for flavour, index in ((NativeSpaceIndex, ctx.native), (DualTimeIndex, ctx.dual)):
            listed = flavour(dims=2)
            listed.bulk_load(list(ctx.segments))
            assert page_digests(index) == page_digests(listed)


class TestGridPoints:
    def test_pdq_point_has_both_algorithms(self, ctx):
        point = run_pdq_point(ctx, 50.0, 8.0)
        assert set(point.costs) == {"naive", "pdq"}
        assert point.costs["naive"].subsequent.total_reads > 0

    def test_pdq_beats_naive(self, ctx):
        point = run_pdq_point(ctx, 90.0, 8.0)
        assert (
            point.costs["pdq"].subsequent.total_reads
            < point.costs["naive"].subsequent.total_reads
        )

    def test_npdq_point_has_both_algorithms(self, ctx):
        point = run_npdq_point(ctx, 50.0, 8.0)
        assert set(point.costs) == {"naive", "npdq"}

    def test_npdq_never_worse(self, ctx):
        point = run_npdq_point(ctx, 90.0, 8.0)
        assert (
            point.costs["npdq"].subsequent.total_reads
            <= point.costs["naive"].subsequent.total_reads + 1e-9
        )

    def test_split_first_subsequent(self, ctx):
        from repro.core.naive import NaiveEvaluator

        trajectory = ctx.trajectories(50.0, 8.0)[0]
        frames = NaiveEvaluator(ctx.native).run(trajectory, 0.1)
        first, rest, n = split_first_subsequent(frames)
        assert n == len(frames) - 1
        assert first == frames[0].cost


class TestFigures:
    def test_all_figures_registered(self):
        assert set(ALL_FIGURES) == {
            "fig06", "fig07", "fig08", "fig09",
            "fig10", "fig11", "fig12", "fig13",
        }

    def test_overlap_figure_shape(self, ctx):
        result = fig06_pdq_io(ctx)
        assert len(result.points) == len(ctx.queries.overlap_levels)
        assert result.metric == "io"
        series = result.series("pdq", "subsequent")
        assert len(series) == len(result.points)

    def test_size_figure_shape(self, ctx):
        result = fig08_pdq_io_by_size(ctx)
        assert len(result.points) == len(ctx.queries.window_sides)
        sides = [p.window_side for p in result.points]
        assert sides == sorted(sides)

    def test_npdq_figure(self, ctx):
        result = fig10_npdq_io(ctx)
        naive = result.series("naive", "subsequent")
        npdq = result.series("npdq", "subsequent")
        assert all(b <= a + 1e-9 for a, b in zip(naive, npdq))

    def test_format_figure_renders(self, ctx):
        text = format_figure(fig06_pdq_io(ctx))
        assert "fig06" in text
        assert "naive" in text and "pdq" in text
        assert "leaf" in text

    def test_format_tree_summary(self, ctx):
        text = format_tree_summary(ctx.native.tree, "native")
        assert "height" in text and "fanout 145/127" in text


class TestCsvExport:
    def test_io_csv_columns(self, ctx):
        from repro.experiments.reporting import figure_to_csv

        result = fig06_pdq_io(ctx)
        csv = figure_to_csv(result)
        lines = csv.strip().splitlines()
        assert lines[0].split(",")[0] == "overlap_percent"
        assert "pdq_subsequent_leaf" in lines[0]
        assert len(lines) == 1 + len(result.points)
        # Every data row parses as floats.
        for line in lines[1:]:
            [float(v) for v in line.split(",")]

    def test_cpu_csv_has_no_leaf_columns(self, ctx):
        from repro.experiments.figures import fig07_pdq_cpu
        from repro.experiments.reporting import figure_to_csv

        csv = figure_to_csv(fig07_pdq_cpu(ctx))
        assert "_leaf" not in csv.splitlines()[0]

    def test_size_sweep_csv_x_column(self, ctx):
        from repro.experiments.reporting import figure_to_csv

        csv = figure_to_csv(fig08_pdq_io_by_size(ctx))
        assert csv.splitlines()[0].split(",")[0] == "window_side"

    def test_cli_csv_flag(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "figures", "--scale", "tiny", "--figure", "fig06",
                "--csv", str(tmp_path) + "/",
            ]
        )
        assert code == 0
        assert (tmp_path / "fig06.csv").exists()
