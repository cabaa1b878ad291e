"""Engine behaviour: suppression comments, reporters, errors."""

import json

import pytest

from repro.check.errors import InputError
from repro.lint import render_json, render_text, run_lint
from repro.lint.report import REPORT_VERSION, report_dict

VIOLATION = 'def f():\n    raise ValueError("boom")\n'
SUPPRESSED = (
    "def f():\n"
    '    raise ValueError("boom")  # repro: noqa[REP002]\n'
)
SUPPRESSED_ALL = (
    "def f():\n"
    '    raise ValueError("boom")  # repro: noqa\n'
)


def write_module(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.write_text(source)
    return path


class TestSuppression:
    def test_coded_noqa_suppresses_only_that_rule(self, tmp_path):
        write_module(tmp_path, SUPPRESSED)
        result = run_lint([str(tmp_path)], project_root=str(tmp_path))
        assert result.clean
        assert result.suppressed == 1

    def test_bare_noqa_suppresses_all_rules(self, tmp_path):
        write_module(tmp_path, SUPPRESSED_ALL)
        result = run_lint([str(tmp_path)], project_root=str(tmp_path))
        assert result.clean
        assert result.suppressed == 1

    def test_wrong_code_does_not_suppress(self, tmp_path):
        write_module(
            tmp_path,
            'def f():\n    raise ValueError("x")  # repro: noqa[REP001]\n',
        )
        result = run_lint([str(tmp_path)], project_root=str(tmp_path))
        assert [f.rule for f in result.findings] == ["REP002"]
        assert result.suppressed == 0

    def test_unsuppressed_finding_reports_location(self, tmp_path):
        write_module(tmp_path, VIOLATION)
        result = run_lint([str(tmp_path)], project_root=str(tmp_path))
        finding = result.findings[0]
        assert finding.path == "mod.py"
        assert finding.line == 2
        assert finding.diagnostic().startswith("mod.py: line 2: [REP002]")


class TestReporters:
    def test_json_schema(self, tmp_path):
        write_module(tmp_path, VIOLATION)
        result = run_lint([str(tmp_path)], project_root=str(tmp_path))
        payload = json.loads(render_json(result))
        assert payload == report_dict(result)
        assert payload["version"] == REPORT_VERSION == 3
        assert set(payload) == {
            "version",
            "tool",
            "clean",
            "files_scanned",
            "suppressed",
            "stale_noqa",
            "counts",
            "findings",
        }
        assert payload["tool"] == "repro-lint"
        assert payload["clean"] is False
        assert payload["files_scanned"] == 1
        assert payload["counts"] == {"REP002": 1}
        (finding,) = payload["findings"]
        assert set(finding) == {
            "rule",
            "path",
            "line",
            "col",
            "message",
            "snippet",
            "fingerprint",
        }
        assert finding["rule"] == "REP002"
        assert finding["snippet"] == 'raise ValueError("boom")'

    def test_text_report_lists_diagnostics_and_summary(self, tmp_path):
        write_module(tmp_path, VIOLATION)
        result = run_lint([str(tmp_path)], project_root=str(tmp_path))
        text = render_text(result)
        assert "mod.py: line 2: [REP002]" in text
        assert "1 file(s) scanned, 1 finding(s)" in text

    def test_clean_text_report(self, tmp_path):
        write_module(tmp_path, "def f():\n    return 1\n")
        result = run_lint([str(tmp_path)], project_root=str(tmp_path))
        assert render_text(result) == "1 file(s) scanned, 0 finding(s)"


class TestEngineErrors:
    def test_syntax_error_raises_located_input_error(self, tmp_path):
        write_module(tmp_path, "def f(:\n")
        with pytest.raises(InputError) as excinfo:
            run_lint([str(tmp_path)], project_root=str(tmp_path))
        assert "syntax error" in str(excinfo.value)
        assert excinfo.value.line == 1

    def test_missing_path_raises_input_error(self, tmp_path):
        with pytest.raises(InputError):
            run_lint([str(tmp_path / "nope")], project_root=str(tmp_path))

    def test_scan_order_is_deterministic(self, tmp_path):
        write_module(tmp_path, VIOLATION, name="b.py")
        write_module(tmp_path, VIOLATION, name="a.py")
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "c.py").write_text(VIOLATION)
        result = run_lint([str(tmp_path)], project_root=str(tmp_path))
        assert [f.path for f in result.findings] == ["a.py", "b.py", "sub/c.py"]
