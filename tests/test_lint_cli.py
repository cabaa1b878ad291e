"""The ``python -m repro.lint`` gate: exit codes, formats, flags."""

import json

from repro.lint.cli import main

VIOLATION = 'def f():\n    raise ValueError("boom")\n'


def make_project(tmp_path, source=VIOLATION):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(source)
    return tmp_path


class TestExitCodes:
    def test_clean_repo_exits_zero(self, tmp_path, capsys):
        root = make_project(tmp_path, "def f():\n    return 1\n")
        assert main(["--root", str(root)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        root = make_project(tmp_path)
        assert main(["--root", str(root)]) == 1
        assert "[REP002]" in capsys.readouterr().out

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        root = make_project(tmp_path, "def f(:\n")
        assert main(["--root", str(root)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-lint: ") and "syntax error" in err

    def test_missing_default_target_exits_two(self, tmp_path):
        assert main(["--root", str(tmp_path)]) == 2

    def test_explicit_paths_restrict_the_scan(self, tmp_path):
        root = make_project(tmp_path)
        clean = root / "src" / "repro" / "clean.py"
        clean.write_text("def g():\n    return 2\n")
        assert main(["--root", str(root), str(clean)]) == 0


class TestJsonFormat:
    def test_json_report_on_stdout(self, tmp_path, capsys):
        root = make_project(tmp_path)
        assert main(["--root", str(root), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "repro-lint"
        assert payload["counts"] == {"REP002": 1}
        assert payload["findings"][0]["path"] == "src/repro/mod.py"


class TestSelectFlag:
    def test_select_runs_only_named_rules(self, tmp_path, capsys):
        root = make_project(tmp_path)  # REP002 violation
        assert main(["--root", str(root), "--select", "REP002"]) == 1
        capsys.readouterr()
        # The finding exists, but the selected rule set does not see it.
        assert main(["--root", str(root), "--select", "REP001"]) == 0

    def test_unknown_code_exits_two(self, tmp_path, capsys):
        root = make_project(tmp_path, "def f():\n    return 1\n")
        assert main(["--root", str(root), "--select", "REP999"]) == 2
        assert "unknown rule code" in capsys.readouterr().err


class TestExplainFlag:
    def test_explain_prints_rule_documentation(self, capsys):
        assert main(["--explain", "REP005"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("REP005:")
        assert "rationale:" in out

    def test_explain_is_case_insensitive(self, capsys):
        assert main(["--explain", "rep003"]) == 0
        assert "REP003" in capsys.readouterr().out

    def test_explain_unknown_code_exits_two(self, capsys):
        assert main(["--explain", "REP999"]) == 2
        err = capsys.readouterr().err
        assert "unknown rule code" in err and "REP007" in err


class TestCheckNoqa:
    def test_stale_suppression_fails(self, tmp_path, capsys):
        root = make_project(
            tmp_path,
            "def f():\n    return 1  # repro: noqa[REP002]\n",
        )
        assert main(["--root", str(root), "--check-noqa"]) == 1
        out = capsys.readouterr().out
        assert "stale suppression [REP002] matched no finding" in out

    def test_live_suppression_passes(self, tmp_path, capsys):
        root = make_project(
            tmp_path,
            'def f():\n    raise ValueError("boom")  # repro: noqa[REP002]\n',
        )
        assert main(["--root", str(root), "--check-noqa"]) == 0
        assert "1 suppressed" in capsys.readouterr().out

    def test_docstring_mention_is_not_a_suppression(self, tmp_path):
        root = make_project(
            tmp_path,
            '"""Docs may say ``# repro: noqa[REP001]`` freely."""\n'
            "\n"
            "def f():\n"
            "    return 1\n",
        )
        assert main(["--root", str(root), "--check-noqa"]) == 0

    def test_incompatible_with_select(self, tmp_path, capsys):
        root = make_project(tmp_path, "def f():\n    return 1\n")
        code = main(
            ["--root", str(root), "--check-noqa", "--select", "REP002"]
        )
        assert code == 2
        assert "--check-noqa" in capsys.readouterr().err

    def test_shipped_tree_has_no_stale_noqa(self, capsys):
        assert main(["--check-noqa"]) == 0
        capsys.readouterr()


class TestRepoIsClean:
    def test_shipped_tree_lints_clean(self, capsys):
        """The gate the CI runs: the committed tree has zero findings."""
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

