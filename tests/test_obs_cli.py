"""CLI observability surface: --ledger, obs subcommands."""

import pytest

from repro.cli import main
from repro.obs import RunLedger, write_json
from repro.obs.sentinel import synthetic_record

ROUTE = ["route", "--scale", "0.06", "--candidate-limit", "8"]


def _route(tmp_path, *extra):
    return main(ROUTE + ["--ledger", str(tmp_path)] + list(extra))


class TestLedgerFlag:
    def test_route_records_a_run(self, tmp_path, capsys):
        assert _route(tmp_path) == 0
        out = capsys.readouterr().out
        assert "run record" in out
        (record,) = RunLedger(tmp_path).records()
        assert record.kind == "cli"
        assert record.label.startswith("route:")
        assert record.pins["wirelength"] > 0
        assert record.root_ns > 0
        assert record.counters()  # fresh per-invocation registry populated

    def test_identical_routes_collapse_and_diff_clean(self, tmp_path, capsys):
        assert _route(tmp_path) == 0
        assert _route(tmp_path) == 0
        ledger = RunLedger(tmp_path)
        if len(ledger.paths()) == 1:
            # Same content (timings too) -> content-addressed dedupe.
            refs = ["latest", "latest"]
        else:
            refs = ["latest~1", "latest"]
        capsys.readouterr()
        code = main(
            ["obs", "diff", *refs, "--dir", str(tmp_path),
             "--sections", "pins,counters"]
        )
        assert code == 0
        assert "clean" in capsys.readouterr().out



@pytest.fixture()
def synthetic_ledger(tmp_path):
    """A ledger holding a baseline and a planted 2x slowdown."""
    ledger_dir = tmp_path / "runs"
    ledger = RunLedger(ledger_dir)
    baseline = synthetic_record()
    slow = synthetic_record(time_factor=2.0)
    # Distinct created stamps so ``latest`` resolves to the slow run.
    object.__setattr__(slow, "created_unix", baseline.created_unix + 10)
    base_path = ledger.save(baseline)
    slow_path = ledger.save(slow)
    return ledger_dir, base_path, slow_path


class TestObsCommands:
    def test_diff_clean_exit_0(self, synthetic_ledger, capsys):
        ledger_dir, base_path, _ = synthetic_ledger
        code = main(
            ["obs", "diff", str(base_path), str(base_path), "--dir", str(ledger_dir)]
        )
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_diff_planted_regression_exit_1(self, synthetic_ledger, capsys):
        ledger_dir, base_path, slow_path = synthetic_ledger
        code = main(
            ["obs", "diff", str(base_path), str(slow_path), "--dir", str(ledger_dir)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "topology.gated" in out

    def test_check_against_baseline_file(self, synthetic_ledger, capsys):
        ledger_dir, base_path, slow_path = synthetic_ledger
        # The planted slowdown is the newest record -> latest fails...
        assert main(
            ["obs", "check", "--baseline", str(base_path), "--dir", str(ledger_dir)]
        ) == 1
        capsys.readouterr()
        # ...but restricting to pins/counters (the CI cross-machine
        # sections) passes: only time was planted.
        assert main(
            ["obs", "check", "--baseline", str(base_path), "--dir",
             str(ledger_dir), "--sections", "pins,counters"]
        ) == 0

    def test_selftest_exit_0(self, capsys):
        assert main(["obs", "selftest"]) == 0
        assert "sentinel self-test: ok" in capsys.readouterr().out

    @pytest.mark.parametrize("sections", [",", ""])
    def test_empty_sections_exit_2(self, synthetic_ledger, capsys, sections):
        ledger_dir, base_path, _ = synthetic_ledger
        code = main(
            ["obs", "check", "--baseline", str(base_path), "--dir",
             str(ledger_dir), "--sections", sections]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "InputError" in captured.err
        assert "no diff section" in captured.err

    def test_bad_reference_exit_2(self, tmp_path, capsys):
        code = main(["obs", "diff", "nope", "nope", "--dir", str(tmp_path)])
        assert code == 2
        assert "InputError" in capsys.readouterr().err

    def test_corrupt_record_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        write_json(bad, {"pins": {}, "kind": "x"})  # missing required keys
        code = main(["obs", "diff", str(bad), str(bad), "--dir", str(tmp_path)])
        assert code == 2

    def test_pin_flip_fails_check(self, tmp_path, capsys):
        ledger = RunLedger(tmp_path)
        base = ledger.save(synthetic_record())
        flipped = ledger.save(
            synthetic_record(pins={"wirelength": 1.0, "gate_count": 254})
        )
        code = main(
            ["obs", "diff", str(base), str(flipped), "--dir", str(tmp_path),
             "--sections", "pins"]
        )
        assert code == 1
        assert "PIN-MISMATCH" in capsys.readouterr().out
