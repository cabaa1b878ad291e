"""Tests of the benchmark itself, on tiny versions of its workloads.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
REPO = BENCH_DIR.parent


def _load_bench():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH_DIR / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


bench = _load_bench()

#: Each workload shrunk to well under a second per route.
TINY = {
    "r4-gated": dict(scale=0.05),
    "r3-gatered-refine": dict(scale=0.1, refine_moves=20),
    "synth2k-sharded": dict(synthetic_sinks=120),
    "synth1k-sharded-inline": dict(synthetic_sinks=120),
}


def tiny(name):
    return replace(bench.WORKLOADS[name], pinned_w_pf=None, **TINY[name])


def test_metric_tables_match_benchmark_json():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_reports_every_metric(name, trace):
    result = bench.run_workload(tiny(name), seed=1, seconds=0.5, trace=trace)["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 if trace else 1)
    units = bench.PER_LAYER if trace else bench.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert values["obs.layer_coverage"] >= 0.95
    else:
        assert all(v > 0 for v in values.values())


def test_host_clock_rescales_by_the_mean_probe_time_near_an_interval():
    clock = bench.HostClock()
    ref = bench.PROBE_REF_S
    clock.samples = [(0.2, 2 * ref), (0.8, 4 * ref), (10.0, ref)]
    assert clock.normalize(0.0, 1.0) == pytest.approx(1.0 / 3.0)
    # A short interval is judged by the samples in the second around it...
    assert clock.normalize(9.9, 0.01) == pytest.approx(0.01)
    # ...or by the nearest sample when that second holds none.
    assert clock.normalize(3.0, 0.1) == pytest.approx(0.1 / 4.0)


def test_host_clock_samples_and_restores_the_alarm_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with bench.HostClock() as clock:
        end = time.perf_counter() + 3 * bench.SAMPLE_PERIOD_S
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.samples) >= 3  # on entry, at least one alarm, on exit
    assert all(d > 0 for _, d in clock.samples)


def test_planted_audit_finding_counts_as_failed_route(monkeypatch):
    from repro.check import auditor

    real = auditor.audit_network

    def planted(tree, **kwargs):
        report = real(tree, **kwargs)
        report.findings.append(auditor.AuditFinding("skew", "planted", node=tree.root_id))
        return report

    monkeypatch.setattr(auditor, "audit_network", planted)
    monkeypatch.setattr(bench, "audit_network", planted)
    report = bench.run_workload(tiny("r4-gated"), seed=0, seconds=0.5, trace=True)
    result = report["result"]
    assert result["attempted"] == 2 and result["failed"] == 2
    assert not result["correct"]
    assert all("planted" in p for p in report["config"]["problems"])


def test_seed_zero_reproduces_the_default_stream():
    from repro.bench.suite import load_benchmark
    from repro.bench.synthetic import generate_synthetic_case

    r4 = tiny("r4-gated")
    default = load_benchmark("r4", scale=r4.scale).stream.ids
    assert (bench.make_case(r4, 0).stream.ids == default).all()
    assert (bench.make_case(r4, 1).stream.ids != default).any()
    synth = tiny("synth2k-sharded")
    default = generate_synthetic_case(
        synth.synthetic_sinks, seed=synth.synthetic_seed
    ).stream.ids
    assert (bench.make_case(synth, 0).stream.ids == default).all()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(
        BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__")
    )
    argv = [sys.executable, "%s/run.py" % BENCH_DIR.name, "--workload", "r4-gated"]
    argv += ["--seed", "0", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
