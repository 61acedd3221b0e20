"""Command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.errors import EngineError


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--engine", "spark"])

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--dataset", "livejournal"])

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.engine == "symple"
        assert args.dataset == "s27"
        assert args.machines == 16

    def test_metrics_subcommand_is_gone(self, capsys):
        """``repro run --metrics PATH --metrics-format json|prom`` is
        the one spelling."""
        with pytest.raises(SystemExit) as exc:
            main(["metrics", "--algorithm", "bfs"])
        assert exc.value.code == 2
        assert "invalid choice: 'metrics'" in capsys.readouterr().err

    def test_bucket_width_flag_is_gone(self, capsys):
        """An async run takes its graph's default bucket width."""
        with pytest.raises(SystemExit) as exc:
            main(["run", "--mode", "async", "--bucket-width", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bucket-width" in (
            capsys.readouterr().err
        )

    def test_pagerank_async_refused_before_the_run(self):
        with pytest.raises(EngineError, match="'pagerank' has no async"):
            main(["run", "--algorithm", "pagerank", "--mode", "async"])


class TestCommands:
    def test_datasets_lists_registry(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("tw", "fr", "s27", "s28", "s29", "cl", "gsh"):
            assert name in out
        assert "Twitter-2010" in out

    def test_analyze_prints_report(self, capsys):
        assert main(["analyze", "kcore"]) == 0
        out = capsys.readouterr().out
        assert "control dependency  : True" in out
        assert "cnt" in out

    def test_analyze_no_dependency_udf(self, capsys):
        assert main(["analyze", "pagerank"]) == 0
        out = capsys.readouterr().out
        assert "total" in out

    def test_run_prints_metrics(self, capsys):
        code = main(
            [
                "run",
                "--engine",
                "gemini",
                "--dataset",
                "s27",
                "--algorithm",
                "mis",
                "--machines",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "gemini" in out
        assert "mis_size" in out

    def test_run_with_option_flags(self, capsys):
        code = main(
            [
                "run",
                "--dataset",
                "s27",
                "--algorithm",
                "bfs",
                "--machines",
                "4",
                "--bfs-roots",
                "1",
                "--no-double-buffering",
                "--schedule",
                "circulant",
            ]
        )
        assert code == 0
        assert "bfs" in capsys.readouterr().out

    def test_compare_reports_speedup(self, capsys):
        code = main(
            [
                "compare",
                "--dataset",
                "s27",
                "--algorithm",
                "mis",
                "--machines",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out.lower()
        assert "symple" in out


class TestReportCommand:
    def test_report_with_explicit_dir(self, capsys, tmp_path):
        (tmp_path / "table4.txt").write_text("Table 4 body\n")
        code = main(["report", "--results-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 4 body" in out

    def test_report_writes_output(self, capsys, tmp_path):
        (tmp_path / "fig10.txt").write_text("curve\n")
        out_file = tmp_path / "report.txt"
        code = main(
            [
                "report",
                "--results-dir",
                str(tmp_path),
                "--output",
                str(out_file),
            ]
        )
        assert code == 0
        assert "curve" in out_file.read_text()
