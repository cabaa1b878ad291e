"""End-to-end observability: traced routes, published metrics, CLI."""

import json
import time

import pytest

from repro.analysis.report import format_phase_times
from repro.bench.cpu_model import CpuModel, CpuModelConfig
from repro.bench.sinks import SinkGenerator
from repro.cli import main
from repro.core.flow import route_buffered, route_gated
from repro.cts import BottomUpMerger
from repro.cts.dme import MergerStats
from repro.obs import (
    MetricsRegistry,
    RunRecord,
    Tracer,
    get_tracer,
    phase_profile,
    publish_merger_stats,
    publish_oracle_cache,
    set_registry,
    set_tracer,
)
from repro.tech.presets import date98_technology


@pytest.fixture()
def case():
    generator = SinkGenerator(num_sinks=24, seed=3)
    cpu = CpuModel(CpuModelConfig(num_modules=24, num_instructions=8, seed=3))
    return generator.generate(), cpu.oracle(1500), generator.die()


@pytest.fixture()
def tech():
    return date98_technology()


@pytest.fixture()
def tracer():
    """A recording tracer installed globally for one test."""
    mine = Tracer(enabled=True)
    previous = set_tracer(mine)
    yield mine
    set_tracer(previous)


@pytest.fixture()
def registry():
    """A fresh metrics registry installed globally for one test."""
    mine = MetricsRegistry()
    previous = set_registry(mine)
    yield mine
    set_registry(previous)


class TestTracedFlow:
    def test_gated_route_span_tree_covers_95_percent(self, case, tech, tracer):
        sinks, oracle, die = case
        route_gated(sinks, tech, oracle, die=die, candidate_limit=8)
        profile = phase_profile(tracer.spans, root_name="flow.route_gated")
        assert profile.root_ns > 0
        assert profile.coverage >= 0.95
        names = {r.name for r in profile.rows}
        assert {"topology.gated", "controller.star", "flow.measure"} <= names

    def test_buffered_route_is_traced(self, case, tech, tracer):
        sinks, _, _ = case
        route_buffered(sinks, tech)
        profile = phase_profile(tracer.spans, root_name="flow.route_buffered")
        assert profile.coverage >= 0.95
        assert {r.name for r in profile.rows} >= {
            "topology.buffered",
            "flow.measure",
        }

    def test_dme_subphases_nest_under_topology(self, case, tech, tracer):
        sinks, oracle, die = case
        route_gated(sinks, tech, oracle, die=die)
        by_name = {s.name: s for s in tracer.spans}
        topology = by_name["topology.gated"]
        merge = by_name["dme.merge"]
        assert merge.parent_id == topology.span_id
        assert by_name["dme.merge_loop"].parent_id == merge.span_id
        assert by_name["dme.embed"].parent_id == merge.span_id
        assert merge.attrs["n"] == len(sinks)

    def test_reduction_post_pass_span(self, case, tech, tracer, registry):
        from repro.core.gate_reduction import GateReductionPolicy

        sinks, oracle, die = case
        route_gated(
            sinks,
            tech,
            oracle,
            die=die,
            reduction=GateReductionPolicy.from_knob(0.5, tech),
            reduction_mode="demote",
        )
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["gating.reduce"].attrs["mode"] == "demote"
        # The pruned count is published once, as a counter.
        assert "pruned" not in by_name["gating.reduce"].attrs
        assert registry.counter("gating.gates_pruned").value > 0

    def test_phase_table_renders(self, case, tech, tracer):
        sinks, oracle, die = case
        route_gated(sinks, tech, oracle, die=die)
        table = format_phase_times(
            phase_profile(tracer.spans, root_name="flow.route_gated")
        )
        assert "topology.gated" in table
        assert "covered" in table

    def test_tracing_disabled_adds_under_5_percent(self, case, tech):
        """End-to-end acceptance: disabled tracing costs < 5% of a route.

        Racing two wall-clock runs against each other is hopelessly
        flaky on a loaded CI box, so the bound is *computed*: the
        per-call cost of a disabled span times the number of span call
        sites a route actually exercises must sit far below 5% of the
        route's own wall-clock.
        """
        sinks, oracle, die = case

        def route():
            return route_gated(sinks, tech, oracle, die=die, candidate_limit=8)

        assert not get_tracer().enabled
        route()  # warm caches
        disabled = min(_timed(route) for _ in range(3))
        spans = Tracer(enabled=True)
        previous = set_tracer(spans)
        try:
            route()  # count the span call sites one traced run opens
        finally:
            set_tracer(previous)
        per_span = _noop_span_cost()
        overhead = per_span * len(spans.spans)
        assert overhead < 0.05 * disabled, (
            "no-op tracing costs %.2e s of a %.2e s route" % (overhead, disabled)
        )


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _noop_span_cost(n=20_000):
    tracer = Tracer(enabled=False)
    start = time.perf_counter()
    for _ in range(n):
        with tracer.span("x"):
            pass
    return (time.perf_counter() - start) / n


class TestPublishedMetrics:
    def test_merger_publishes_dme_counters(self, case, tech, registry):
        sinks, oracle, die = case
        route_gated(sinks, tech, oracle, die=die, candidate_limit=8)
        exported = registry.as_dict()
        assert exported["dme.plans_computed"]["value"] > 0
        assert exported["dme.index_queries"]["value"] > 0
        assert exported["controller.star_edge_length"]["count"] > 0

    def test_oracle_cache_gauges(self, case, registry):
        _, oracle, _ = case
        oracle.statistics(3)
        oracle.statistics(3)
        publish_oracle_cache(oracle)
        exported = registry.as_dict()
        assert exported["oracle.signal.hits"]["value"] >= 1
        assert exported["oracle.signal.misses"]["value"] >= 1
        assert exported["oracle.transition.hits"]["value"] >= 1
        # One hits/misses/currsize triple per memo.
        assert sorted(n for n in exported if n.startswith("oracle.")) == sorted(
            "oracle.%s.%s" % (memo, field)
            for memo in ("activation_signature", "signal", "transition")
            for field in ("hits", "misses", "currsize")
        )

    def test_publish_merger_stats_uses_snapshot_keys(self, registry):
        stats = MergerStats(plans_computed=4, heap_pops=6)
        publish_merger_stats(stats)
        exported = registry.as_dict()
        assert exported["dme.plans_computed"]["value"] == 4
        assert exported["dme.heap_pops"]["value"] == 6
        assert sorted(n for n in exported if n.startswith("dme.")) == sorted(
            "dme." + key for key in stats.snapshot()
        )

    def test_merger_stats_survive_direct_runs(self, case, tech, registry):
        sinks, oracle, die = case
        merger = BottomUpMerger(sinks, tech, oracle=oracle)
        merger.run()
        assert registry.counter("dme.plans_computed").value == (
            merger.stats.plans_computed
        )


class TestCliObservability:
    def test_route_trace_and_ledger_flags(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        record_path = tmp_path / "run.json"
        code = main(
            [
                "route",
                "--benchmark",
                "r1",
                "--scale",
                "0.05",
                "--trace",
                str(trace_path),
                "--record",
                str(record_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Phase wall-clock profile" in out
        trace = json.loads(trace_path.read_text())
        names = {e["name"] for e in trace["traceEvents"]}
        assert "flow.route_gated" in names and "dme.merge" in names
        # The RunRecord holds the span rows and the registry snapshot.
        record = RunRecord.load(record_path)
        assert len(record.spans) == len(trace["traceEvents"])
        assert "dme.plans_computed" in record.metrics
        # The CLI turned the global tracer back off.
        assert not get_tracer().enabled

    def test_compare_supports_trace_flag(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        code = main(
            [
                "compare",
                "--benchmark",
                "r1",
                "--scale",
                "0.05",
                "--trace",
                str(trace_path),
            ]
        )
        assert code == 0
        trace = json.loads(trace_path.read_text())
        roots = [
            e["name"]
            for e in trace["traceEvents"]
            if e["name"].startswith("flow.route_")
        ]
        assert len(roots) == 3  # buffered + gated + reduced

    def test_log_level_flag_configures_repro_logger(self, capsys):
        import logging

        code = main(
            ["characteristics", "--benchmark", "r1", "--scale", "0.05",
             "--log-level", "debug"]
        )
        assert code == 0
        assert logging.getLogger("repro").level == logging.DEBUG
        logging.getLogger("repro").setLevel(logging.WARNING)

    def test_log_level_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["route", "--benchmark", "r1", "--log-level", "verbose"])


class TestSpanOwnership:
    """Builders own their ``topology.*`` spans; flows do not duplicate."""

    def test_library_call_opens_exactly_one_gated_span(self, case, tech, tracer):
        from repro.core.gated_routing import build_gated_tree

        sinks, oracle, die = case
        build_gated_tree(sinks, tech, oracle, controller_point=die.center)
        names = [s.name for s in tracer.spans]
        assert names.count("topology.gated") == 1

    def test_flow_call_opens_exactly_one_gated_span(self, case, tech, tracer):
        sinks, oracle, die = case
        route_gated(sinks, tech, oracle, die=die)
        names = [s.name for s in tracer.spans]
        assert names.count("topology.gated") == 1
        # Still nested under the flow span, not a second root.
        by_name = {s.name: s for s in tracer.spans}
        gated = by_name["topology.gated"]
        assert gated.parent_id == by_name["flow.route_gated"].span_id

    def test_flow_call_opens_exactly_one_buffered_span(self, case, tech, tracer):
        sinks, _, _ = case
        route_buffered(sinks, tech)
        names = [s.name for s in tracer.spans]
        assert names.count("topology.buffered") == 1


class TestInitBestMetric:
    def test_init_scan_runs_published(self, case, tech, registry):
        # The scan's duration lives on its span (next test), not in a
        # gauge that would repeat it.
        sinks, oracle, _ = case
        merger = BottomUpMerger(sinks, tech, oracle=oracle)
        merger.run()
        exported = registry.as_dict()
        assert exported["dme.init_best.runs"]["value"] == 1
        assert "dme.init_best.seconds" not in exported

    def test_init_scan_timing_in_phase_table(self, case, tech, tracer):
        from repro.obs import DME_DETAIL_SPANS

        sinks, oracle, die = case
        route_gated(sinks, tech, oracle, die=die)
        profile = phase_profile(tracer.spans, detail_names=DME_DETAIL_SPANS)
        detail_names = [r.name for r in profile.detail_rows]
        assert "dme.init_best" in detail_names
        table = format_phase_times(profile)
        assert "  dme.init_best" in table
