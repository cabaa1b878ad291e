"""The regression sentinel: noise model and planted faults."""

import pytest

from repro.check.errors import InputError
from repro.obs import compare_runs
from tests.obs_records import synthetic_record


def _statuses(diff, section):
    return {f.name: f.status for f in diff.findings if f.section == section}


class TestCleanDiffs:
    def test_identical_runs_diff_clean(self):
        diff = compare_runs(synthetic_record(), synthetic_record())
        assert diff.ok
        assert diff.exit_code == 0
        assert not diff.notable()
        assert "clean" in diff.summary()

    def test_small_drift_within_thresholds_is_clean(self):
        diff = compare_runs(
            synthetic_record(),
            synthetic_record(time_factor=1.2, counter_factor=1.1),
        )
        assert diff.ok

    def test_improvement_is_clean_but_notable(self):
        diff = compare_runs(synthetic_record(), synthetic_record(time_factor=0.4))
        assert diff.ok
        assert any(f.status == "improved" for f in diff.findings)


class TestPlantedRegressions:
    def test_time_regression_caught(self):
        diff = compare_runs(synthetic_record(), synthetic_record(time_factor=2.0))
        assert diff.exit_code == 1
        assert _statuses(diff, "time")["topology.gated"] == "regression"

    def test_counter_blowup_caught_both_directions(self):
        up = compare_runs(synthetic_record(), synthetic_record(counter_factor=2.0))
        down = compare_runs(synthetic_record(), synthetic_record(counter_factor=0.5))
        for diff in (up, down):
            assert _statuses(diff, "counters")["dme.plans_computed"] == "regression"

    def test_pin_flip_is_a_mismatch_not_noise(self):
        tweaked = synthetic_record(
            pins={"wirelength": 123456.789013, "gate_count": 254}
        )
        diff = compare_runs(synthetic_record(), tweaked)
        assert _statuses(diff, "pins")["wirelength"] == "pin-mismatch"
        assert diff.exit_code == 1

    def test_missing_and_new_pins_reported(self):
        base = synthetic_record(pins={"a": 1, "b": 2})
        cur = synthetic_record(pins={"b": 2, "c": 3})
        diff = compare_runs(base, cur)
        assert _statuses(diff, "pins") == {"a": "missing", "b": "ok", "c": "new"}
        # A dropped pin fails the gate; a new one alone does not.
        assert diff.exit_code == 1
        assert [f.name for f in diff.regressions] == ["a"]
        grown = synthetic_record(pins={"a": 1, "b": 2, "c": 3})
        assert compare_runs(base, grown).exit_code == 0

    def test_missing_and_new_counters_reported(self):
        base = synthetic_record()
        dropped = synthetic_record()
        del dropped.metrics["dme.plans_computed"]
        diff = compare_runs(base, dropped, sections=("counters",))
        assert _statuses(diff, "counters") == {
            "dme.kernel_batches": "ok",
            "dme.plans_computed": "missing",
        }
        assert diff.exit_code == 1
        # The reverse direction: a counter the baseline lacks is new.
        diff = compare_runs(dropped, base, sections=("counters",))
        assert _statuses(diff, "counters")["dme.plans_computed"] == "new"
        assert diff.exit_code == 0


class TestNoiseModel:
    def test_time_floor_suppresses_tiny_phases(self):
        """A 2x blowup of a sub-floor phase is scheduler noise."""
        base = synthetic_record(time_factor=0.01)  # 20 ms phase
        blown = synthetic_record(time_factor=0.02)  # 40 ms, 2x
        assert compare_runs(base, blown, sections=("time",)).ok

    def test_counter_floor_suppresses_small_counts(self):
        base = synthetic_record(counter_factor=0.001)  # 5 plans
        cur = synthetic_record(counter_factor=0.004)  # 20 plans, 4x
        assert compare_runs(base, cur, sections=("counters",)).ok

    def test_time_threshold_is_one_and_a_half(self):
        base = synthetic_record()
        assert compare_runs(base, synthetic_record(time_factor=1.45)).ok
        assert not compare_runs(base, synthetic_record(time_factor=1.55)).ok


class TestSections:
    def test_sections_restrict_comparison(self):
        base = synthetic_record()
        slow = synthetic_record(time_factor=2.0)
        assert compare_runs(base, slow, sections=("pins", "counters")).ok
        assert not compare_runs(base, slow, sections=("time",)).ok

    def test_unknown_section_rejected(self):
        with pytest.raises(InputError):
            compare_runs(
                synthetic_record(), synthetic_record(), sections=("bogus",)
            )

    def test_empty_section_list_rejected(self):
        with pytest.raises(InputError, match="no diff section"):
            compare_runs(synthetic_record(), synthetic_record(), sections=())


class TestReporting:
    def test_finding_lines_are_one_line_diagnostics(self):
        diff = compare_runs(synthetic_record(), synthetic_record(time_factor=2.0))
        for finding in diff.notable():
            line = finding.line()
            assert line.startswith("obs.check: ")
            assert "\n" not in line
        report = diff.report()
        assert report.splitlines()[-1] == diff.summary()
        assert "REGRESSED" in diff.summary()

