"""Unit tests for the spec-driven study runner."""

import json

import pytest

from repro.analysis.study import MethodSpec, StudySpec, run_study
from repro.check.errors import InputError


@pytest.fixture(scope="module")
def small_spec():
    return StudySpec(
        benchmarks=("r1",),
        methods=(
            MethodSpec(name="buffered", kind="buffered"),
            MethodSpec(name="gate-red", kind="reduced", knob=0.5),
        ),
        scale=0.08,
    )


class TestSpecValidation:
    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError):
            StudySpec(benchmarks=("r9",))

    def test_duplicate_method_names_rejected(self):
        with pytest.raises(ValueError):
            StudySpec(
                methods=(
                    MethodSpec(name="x", kind="buffered"),
                    MethodSpec(name="x", kind="gated"),
                )
            )

    def test_bad_method_kind_rejected(self):
        with pytest.raises(ValueError):
            MethodSpec(name="x", kind="bogus")

    def test_bad_knob_rejected(self):
        with pytest.raises(ValueError):
            MethodSpec(name="x", knob=1.5)

    def test_unknown_method_key_rejected(self):
        data = {"methods": [{"name": "x", "kind": "reduced", "skew_bound": 50.0}]}
        with pytest.raises(InputError, match="skew_bound") as info:
            StudySpec.from_dict(data)
        assert info.value.field == "skew_bound"

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(InputError, match="methodz") as info:
            StudySpec.from_dict({"methodz": []})
        assert info.value.field == "methodz"

    def test_default_spec_is_fig3(self):
        spec = StudySpec()
        assert [m.name for m in spec.methods] == ["buffered", "gated", "gate-red"]


class TestSerialization:
    def test_roundtrip(self, small_spec, tmp_path):
        path = tmp_path / "spec.json"
        small_spec.save(path)
        loaded = StudySpec.load(path)
        assert loaded == small_spec

    def test_template_is_valid_json(self, tmp_path):
        path = tmp_path / "t.json"
        StudySpec().save(path)
        data = json.loads(path.read_text())
        assert "methods" in data and "benchmarks" in data


class TestRun:
    def test_one_row_per_bench_method(self, small_spec):
        result = run_study(small_spec)
        assert len(result.rows) == 2
        assert {r.comparison.method for r in result.rows} == {"buffered", "gate-red"}

    def test_method_names_override_flow_labels(self, small_spec):
        spec = StudySpec(
            benchmarks=("r1",),
            methods=(MethodSpec(name="my-config", kind="reduced"),),
            scale=0.08,
        )
        result = run_study(spec)
        assert result.rows[0].comparison.method == "my-config"

    def test_quality_metric_attached(self, small_spec):
        result = run_study(small_spec)
        for row in result.rows:
            assert row.wirelength_quality >= 1.0

    def test_report_contains_all_methods(self, small_spec):
        result = run_study(small_spec)
        text = result.report()
        assert "buffered" in text and "gate-red" in text

    def test_results_serialize(self, small_spec, tmp_path):
        result = run_study(small_spec)
        path = tmp_path / "out.json"
        result.save(path)
        data = json.loads(path.read_text())
        assert len(data["rows"]) == 2
        assert data["spec"]["scale"] == 0.08

    def test_deterministic(self, small_spec):
        a = run_study(small_spec)
        b = run_study(small_spec)
        assert [r.comparison.switched_cap for r in a.rows] == [
            r.comparison.switched_cap for r in b.rows
        ]

    def test_extension_knobs_run(self):
        spec = StudySpec(
            benchmarks=("r1",),
            methods=(
                MethodSpec(name="sized", kind="reduced", gate_sizing=True),
                MethodSpec(name="spread", kind="gated", num_controllers=4),
            ),
            scale=0.06,
        )
        result = run_study(spec)
        assert len(result.rows) == 2


class TestCli:
    def test_study_template_and_run(self, tmp_path, capsys):
        from repro.cli import main

        template = tmp_path / "spec.json"
        assert main(["study", "--template", str(template)]) == 0
        # Shrink the template for test speed.
        data = json.loads(template.read_text())
        data["scale"] = 0.06
        template.write_text(json.dumps(data))
        out = tmp_path / "results.json"
        assert main(["study", "--spec", str(template), "--out", str(out)]) == 0
        assert out.exists()
        assert "Study: r1" in capsys.readouterr().out

    def test_unknown_spec_key_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"methods": [{"name": "x", "bogus": 1}]}))
        assert main(["study", "--spec", str(spec)]) == 2
        err = capsys.readouterr().err
        assert "InputError" in err and "bogus" in err
