"""``repro verify`` as the UDF checker: discovery, output formats, and
exit codes over lint-rule fixtures."""

import json

import pytest

from repro.cli import main

CLEAN = '''
"""Clean module."""


def first_signal(v, nbrs, s, emit):
    """Stop at the first flagged neighbor."""
    for u in nbrs:
        if s.flag[u]:
            emit(u)
            break
'''

DIRTY = '''
"""Module with a double-count hazard."""


def count_signal(v, nbrs, s, emit):
    """Emits the raw accumulator."""
    total = 0
    for u in nbrs:
        total += 1
        if total >= s.k:
            break
    emit(total)
'''

NOTE_ONLY = '''
"""Full fold: carried data, no break."""


def fold_signal(v, nbrs, s, emit):
    """Sum everything, delta-style."""
    total = 0.0
    start = total
    for u in nbrs:
        total += s.w[u]
    if total > start:
        emit(total - start)
'''

BROKEN = '''
"""Module the analyzer must reject."""


def nested_signal(v, nbrs, s, emit):
    """Two-hop scan: unsupported nested loop."""
    for u in nbrs:
        for w in s.two_hop[u]:
            emit(w)
'''

OVERWRITE = '''
"""A slot whose overwrite commutes only if the updates do."""


def label_slot(v, value, s):
    """Last writer wins."""
    s.label[v] = value
'''


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestExitCodes:
    def test_clean_exits_zero(self, tmp_path, capsys):
        assert main(["verify", write(tmp_path, "clean.py", CLEAN)]) == 0
        assert "0 warning(s)" in capsys.readouterr().out

    def test_notes_only_exit_zero(self, tmp_path, capsys):
        assert main(["verify", write(tmp_path, "note.py", NOTE_ONLY)]) == 0
        out = capsys.readouterr().out
        assert "missing-break" in out

    def test_warning_exits_one(self, tmp_path, capsys):
        assert main(["verify", write(tmp_path, "dirty.py", DIRTY)]) == 1
        out = capsys.readouterr().out
        assert "cumulative-emit" in out
        assert "dirty.py" in out

    def test_analysis_error_exits_two(self, tmp_path, capsys):
        assert main(["verify", write(tmp_path, "broken.py", BROKEN)]) == 2
        out = capsys.readouterr().out
        assert "analysis-error" in out
        assert "nested loop" in out

    def test_missing_target_exits_two(self, capsys):
        assert main(["verify", "no/such/file.py"]) == 2
        assert "load-error" in capsys.readouterr().out

    def test_missing_target_is_not_a_udf(self, capsys):
        assert main(["verify", "no/such/file.py"]) == 2
        assert "verified 0 UDF(s)" in capsys.readouterr().out

    def test_exit_during_import_is_a_load_error(self, tmp_path, capsys):
        """A module that calls sys.exit on import must not end the run
        (and with it the CI gate): it is a load error, and the other
        files are still checked."""
        target = tmp_path / "d"
        target.mkdir()
        write(target, "a_exits.py", "import sys\nsys.exit(0)\n")
        write(target, "b_dirty.py", DIRTY)
        assert main(["verify", str(target)]) == 2
        out = capsys.readouterr().out
        assert "load-error" in out and "a_exits.py" in out
        assert "cumulative-emit" in out and "b_dirty.py" in out
        assert "verified 1 UDF(s)" in out

    def test_keyboard_interrupt_still_stops_the_run(self, tmp_path):
        path = write(tmp_path, "stop.py", "raise KeyboardInterrupt\n")
        with pytest.raises(KeyboardInterrupt):
            main(["verify", path])

    def test_ignore_downgrades_exit(self, tmp_path, capsys):
        path = write(tmp_path, "dirty.py", DIRTY)
        assert main(["verify", path, "--ignore", "cumulative-emit"]) == 0

    def test_ignore_composes_with_strict(self, tmp_path, capsys):
        path = write(tmp_path, "slot.py", OVERWRITE)
        assert main(["verify", path]) == 0
        assert main(["verify", path, "--strict"]) == 1
        assert main(
            ["verify", path, "--strict", "--ignore", "non-commutative-slot"]
        ) == 0

    def test_lint_subcommand_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint", write(tmp_path, "clean.py", CLEAN)])
        assert exc.value.code == 2
        assert "invalid choice: 'lint'" in capsys.readouterr().err

    def test_builtin_signal_name(self, capsys):
        assert main(["verify", "kcore"]) == 0
        assert "1 UDF" in capsys.readouterr().out


class TestDiscovery:
    def test_directory_target(self, tmp_path, capsys):
        write(tmp_path, "clean.py", CLEAN)
        write(tmp_path, "dirty.py", DIRTY)
        assert main(["verify", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "verified 2 UDF(s)" in out

    def test_private_functions_skipped(self, tmp_path, capsys):
        write(
            tmp_path,
            "private.py",
            DIRTY.replace("count_signal", "_count_signal"),
        )
        assert main(["verify", str(tmp_path)]) == 0
        assert "verified 0 UDF(s)" in capsys.readouterr().out

    def test_algorithms_package_self_check(self, capsys):
        """The shipped corpus must stay warning-free (notes allowed) —
        the same invocation CI runs."""
        assert main(["verify", "src/repro/algorithms"]) == 0


class TestFormats:
    def test_json_format(self, tmp_path, capsys):
        assert main(["verify", write(tmp_path, "d.py", DIRTY), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["code"] == "cumulative-emit"
        assert payload[0]["level"] == "warning"
        assert payload[0]["line"] > 0
        assert payload[0]["path"].endswith("d.py")

    def test_sarif_format_valid_2_1_0(self, tmp_path, capsys):
        assert main(["verify", write(tmp_path, "d.py", DIRTY), "--format", "sarif"]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in log["$schema"]
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        result = run["results"][0]
        assert result["ruleId"] in rule_ids
        assert result["level"] == "warning"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("d.py")
        assert location["region"]["startLine"] > 0

    def test_analysis_error_is_located(self, tmp_path, capsys):
        path = write(tmp_path, "broken.py", BROKEN)
        assert main(["verify", path, "--format", "json"]) == 2
        (error,) = [
            m for m in json.loads(capsys.readouterr().out)
            if m["code"] == "analysis-error"
        ]
        assert error["path"].endswith("broken.py")
        assert error["line"] > 0
        assert main(["verify", path, "--format", "sarif"]) == 2
        results = json.loads(capsys.readouterr().out)["runs"][0]["results"]
        (result,) = [r for r in results if r["ruleId"] == "analysis-error"]
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("broken.py")
        assert location["region"]["startLine"] == error["line"]

    def test_sarif_rules_have_descriptions(self, tmp_path, capsys):
        main(["verify", write(tmp_path, "c.py", CLEAN), "--format", "sarif"])
        log = json.loads(capsys.readouterr().out)
        for spec in log["runs"][0]["tool"]["driver"]["rules"]:
            assert spec["shortDescription"]["text"]
            assert spec["defaultConfiguration"]["level"] in (
                "error",
                "warning",
                "note",
            )

    def test_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.sarif"
        code = main(
            [
                "verify",
                write(tmp_path, "d.py", DIRTY),
                "--format",
                "sarif",
                "--output",
                str(out_path),
            ]
        )
        assert code == 1
        log = json.loads(out_path.read_text())
        assert log["version"] == "2.1.0"
        assert capsys.readouterr().out == ""
