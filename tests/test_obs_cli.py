"""CLI observability surface: the --record ledger flag, obs diff."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import RunRecord
from tests.obs_records import synthetic_record

ROUTE = ["route", "--scale", "0.06", "--candidate-limit", "8"]

BASELINE = Path(__file__).resolve().parent.parent / "baselines" / "obs_r1_route.json"


class TestLedgerFlag:
    def test_route_records_a_run(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        assert main(ROUTE + ["--record", str(path)]) == 0
        assert "run record written to %s" % path in capsys.readouterr().out
        record = RunRecord.load(path)
        assert record.kind == "cli"
        assert record.label.startswith("route:")
        assert record.pins["wirelength"] > 0
        assert record.root_ns > 0
        assert record.counters()  # fresh per-invocation registry populated

    def test_identical_routes_diff_clean(self, tmp_path, capsys):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(ROUTE + ["--record", str(first)]) == 0
        assert main(ROUTE + ["--record", str(second)]) == 0
        capsys.readouterr()
        code = main(
            ["obs", "diff", str(first), str(second), "--sections", "pins,counters"]
        )
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_external_workload_is_labelled_by_its_sinks_file(self, tmp_path, capsys):
        """A --sinks route describes its files, not the benchmark defaults."""
        assert main(["gen", "--sinks", "40", "--seed", "7", "--out-dir", str(tmp_path)]) == 0
        stem = str(tmp_path / "synth40_s7")
        path = tmp_path / "run.json"
        code = main(
            ["route", "--sinks", stem + ".sinks", "--isa", stem + ".isa.json",
             "--instr-trace", stem + ".trace", "--method", "gated",
             "--record", str(path)]
        )
        assert code == 0
        record = RunRecord.load(path)
        assert record.label == "route:synth40_s7:gated"
        assert record.config["sinks"] == stem + ".sinks"
        assert not {"benchmark", "scale", "activity"} & set(record.config)

    def test_committed_baseline_diffs_clean(self, tmp_path, capsys):
        """A fresh record at the baseline's config matches its pins and
        work counters (the cross-machine sections)."""
        path = tmp_path / "run.json"
        code = main(
            ["route", "--benchmark", "r1", "--scale", "0.2",
             "--candidate-limit", "16", "--record", str(path)]
        )
        assert code == 0
        capsys.readouterr()
        code = main(
            ["obs", "diff", str(BASELINE), str(path), "--sections", "pins,counters"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "clean" in out

    def test_unwritable_record_exit_2(self, tmp_path, capsys):
        code = main(ROUTE + ["--record", str(tmp_path / "missing" / "run.json")])
        assert code == 2
        captured = capsys.readouterr()
        assert "gated-cts: FileNotFoundError" in captured.err
        # Refused before the flow ran: no routed summary was printed.
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--trace", "--out", "--svg"])
    def test_unwritable_output_refused_before_routing(self, tmp_path, capsys, flag):
        code = main(ROUTE + [flag, str(tmp_path / "missing" / "file")])
        assert code == 2
        captured = capsys.readouterr()
        assert "gated-cts: FileNotFoundError" in captured.err
        assert captured.out == ""

    def test_unlike_runs_refused_exit_2(self, tmp_path, capsys):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(ROUTE + ["--record", str(r1)]) == 0
        assert main(ROUTE + ["--benchmark", "r2", "--record", str(r2)]) == 0
        capsys.readouterr()
        assert main(["obs", "diff", str(r1), str(r2)]) == 2
        err = capsys.readouterr().err
        assert "gated-cts: InputError" in err
        assert "route:r1:reduced" in err and "route:r2:reduced" in err

    def test_changed_config_still_diffs(self, tmp_path, capsys):
        k8, k16 = tmp_path / "k8.json", tmp_path / "k16.json"
        assert main(ROUTE + ["--record", str(k8)]) == 0
        assert main(ROUTE[:-1] + ["16", "--record", str(k16)]) == 0
        capsys.readouterr()
        code = main(["obs", "diff", str(k8), str(k16), "--sections", "pins,counters"])
        out = capsys.readouterr().out
        assert code in (0, 1), out
        assert "config differs: candidate_limit: 8 -> 16" in out
        assert "compared)" in out


@pytest.fixture()
def synthetic_records(tmp_path):
    """Record files of a baseline and a planted 2x slowdown."""
    base_path, slow_path = tmp_path / "base.json", tmp_path / "slow.json"
    synthetic_record().write(base_path)
    synthetic_record(time_factor=2.0).write(slow_path)
    return base_path, slow_path


class TestObsCommands:
    def test_diff_clean_exit_0(self, synthetic_records, capsys):
        base_path, _ = synthetic_records
        assert main(["obs", "diff", str(base_path), str(base_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_diff_planted_regression_exit_1(self, synthetic_records, capsys):
        base_path, slow_path = synthetic_records
        assert main(["obs", "diff", str(base_path), str(slow_path)]) == 1
        out = capsys.readouterr().out
        assert "obs diff: %s -> %s" % (base_path, slow_path) in out
        assert "REGRESSION" in out
        assert "topology.gated" in out
        # Restricting to pins/counters (the cross-machine sections)
        # passes: only time was planted.
        code = main(
            ["obs", "diff", str(base_path), str(slow_path),
             "--sections", "pins,counters"]
        )
        assert code == 0

    @pytest.mark.parametrize("sections", [",", ""])
    def test_empty_sections_exit_2(self, synthetic_records, capsys, sections):
        base_path, _ = synthetic_records
        code = main(
            ["obs", "diff", str(base_path), str(base_path), "--sections", sections]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "InputError" in captured.err
        assert "no diff section" in captured.err

    def test_bad_reference_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["obs", "diff", missing, missing]) == 2
        assert "nope.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            '{"pins": {}, "kind"',  # truncated JSON
            "[1, 2]",  # JSON, but not an object
            json.dumps({"pins": {}, "kind": "x"}),  # missing required keys
        ],
        ids=["not-json", "not-an-object", "missing-keys"],
    )
    def test_corrupt_record_exit_2(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code = main(["obs", "diff", str(bad), str(bad)])
        assert code == 2
        assert "gated-cts: InputError: %s" % bad in capsys.readouterr().err

    def test_pin_flip_fails_check(self, tmp_path, capsys):
        base, flipped = tmp_path / "base.json", tmp_path / "flipped.json"
        synthetic_record().write(base)
        synthetic_record(pins={"wirelength": 1.0, "gate_count": 254}).write(flipped)
        code = main(["obs", "diff", str(base), str(flipped), "--sections", "pins"])
        assert code == 1
        assert "PIN-MISMATCH" in capsys.readouterr().out
