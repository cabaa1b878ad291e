"""End-to-end integration tests across all subsystems.

These run the complete pipeline -- workload synthesis, table-driven
activity statistics, zero-skew gated routing, enable star routing,
accounting -- and cross-check every router-maintained quantity against
independent recomputation.
"""

import pytest

from repro.bench.suite import load_benchmark
from repro.check.auditor import audit_network
from repro.core.controller import ControllerLayout, route_enables
from repro.core.flow import route_buffered, route_gated
from repro.core.gate_reduction import GateReductionPolicy
from repro.core.switched_cap import clock_tree_switched_cap
from repro.activity.probability import scan_stream_probabilities
from repro.tech import date98_technology


@pytest.fixture(scope="module")
def case():
    return load_benchmark("r2", scale=0.12)


@pytest.fixture(scope="module")
def tech():
    return date98_technology()


@pytest.fixture(scope="module")
def all_results(case, tech):
    return {
        "buffered": route_buffered(case.sinks, tech),
        "gated": route_gated(case.sinks, tech, case.oracle, die=case.die),
        "reduced": route_gated(
            case.sinks,
            tech,
            case.oracle,
            die=case.die,
            reduction=GateReductionPolicy.from_knob(0.5, tech),
        ),
    }


class TestCrossChecks:
    def test_all_trees_audit_clean(self, all_results):
        for name, result in all_results.items():
            report = audit_network(result.tree)
            assert report.ok, (name, report.problems)

    def test_every_sink_present_once(self, case, all_results):
        for result in all_results.values():
            leaves = result.tree.sinks()
            assert len(leaves) == case.num_sinks
            assert {n.sink.module for n in leaves} == set(range(case.num_sinks))

    def test_node_probabilities_match_stream_scan(self, case, all_results):
        # Tree-node enable statistics = brute-force trace statistics
        # (section 3.3's exactness claim applied to a real tree).
        tree = all_results["gated"].tree
        nodes = list(tree.internal_nodes())[:: max(1, len(tree.internal_nodes()) // 8)]
        for node in nodes:
            p_scan, ptr_scan = scan_stream_probabilities(
                case.cpu.isa, case.stream, node.module_mask
            )
            assert node.enable_probability == pytest.approx(p_scan, abs=1e-9)
            assert node.enable_transition_probability == pytest.approx(
                ptr_scan, abs=1e-9
            )

    def test_switched_cap_recomputable_from_saved_tree(self, all_results, tech):
        from repro.io.treejson import tree_from_dict, tree_to_dict

        for result in all_results.values():
            clone = tree_from_dict(tree_to_dict(result.tree))
            assert clock_tree_switched_cap(clone, tech) == pytest.approx(
                result.switched_cap.clock_tree
            )

    def test_controller_rerouting_is_deterministic(self, case, all_results, tech):
        result = all_results["gated"]
        layout = ControllerLayout.centralized(case.die)
        again = route_enables(result.tree, layout, tech)
        assert again.switched_cap == pytest.approx(
            result.switched_cap.controller_tree
        )
        assert again.wirelength == pytest.approx(result.area.controller_wire)

    def test_gated_routers_mask_something(self, all_results):
        gated = all_results["gated"]
        buffered = all_results["buffered"]
        # The gated clock tree switches strictly less than its own
        # ungated capacitance; the buffered tree does not mask at all.
        from repro.core.switched_cap import masking_efficiency

        assert masking_efficiency(gated.tree, gated.tree.tech) < 1.0
        assert masking_efficiency(buffered.tree, buffered.tree.tech) == 1.0


class TestReductionModesAgree:
    def test_modes_reach_similar_gate_counts(self, case, tech):
        policy = GateReductionPolicy.from_knob(0.5, tech)
        counts = {}
        for mode in ("merge", "demote"):
            result = route_gated(
                case.sinks,
                tech,
                case.oracle,
                die=case.die,
                reduction=policy,
                reduction_mode=mode,
            )
            counts[mode] = result.gate_count
            assert result.skew <= 1e-6 * max(result.phase_delay, 1.0)
        full = 2 * case.num_sinks - 2
        assert all(0 < c < full for c in counts.values())

    def test_demote_never_touches_wirelength(self, case, tech):
        full = route_gated(case.sinks, tech, case.oracle, die=case.die)
        demoted = route_gated(
            case.sinks,
            tech,
            case.oracle,
            die=case.die,
            reduction=GateReductionPolicy.from_knob(0.5, tech),
            reduction_mode="demote",
        )
        assert demoted.wirelength == pytest.approx(full.wirelength)
        assert demoted.phase_delay == pytest.approx(full.phase_delay)


class TestScaling:
    @pytest.mark.parametrize("name,scale", [("r1", 0.08), ("r3", 0.05)])
    def test_other_benchmarks_route_cleanly(self, name, scale, tech):
        bench = load_benchmark(name, scale=scale)
        result = route_gated(
            bench.sinks,
            tech,
            bench.oracle,
            die=bench.die,
            reduction=GateReductionPolicy.from_knob(0.5, tech),
        )
        assert audit_network(result.tree).ok

    def test_exact_greedy_matches_limited_on_tiny_case(self, tech):
        bench = load_benchmark("r1", scale=0.03)
        exact = route_gated(bench.sinks, tech, bench.oracle, die=bench.die)
        limited = route_gated(
            bench.sinks, tech, bench.oracle, die=bench.die, candidate_limit=len(bench.sinks),
        )
        # A candidate limit >= n-1 is the exact greedy.
        assert limited.switched_cap.total == pytest.approx(exact.switched_cap.total)
