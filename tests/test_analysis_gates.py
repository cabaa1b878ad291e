"""Unit tests for the per-gate efficacy ledger."""

import pytest

from repro.analysis.gates import efficacy_summary, gate_efficacy
from repro.bench.suite import load_benchmark
from repro.core.flow import route_gated
from repro.core.gate_reduction import GateReductionPolicy
from repro.core.switched_cap import (
    clock_tree_switched_cap,
    ungated_clock_tree_switched_cap,
)
from repro.cts.topology import star_term
from repro.tech import date98_technology


@pytest.fixture(scope="module")
def tech():
    return date98_technology()


@pytest.fixture(scope="module")
def gated(tech):
    case = load_benchmark("r1", scale=0.12)
    return route_gated(case.sinks, tech, case.oracle, die=case.die)


@pytest.fixture(scope="module")
def reduced(tech):
    case = load_benchmark("r1", scale=0.12)
    return route_gated(
        case.sinks,
        tech,
        case.oracle,
        die=case.die,
        reduction=GateReductionPolicy.from_knob(0.5, tech),
    )


class TestLedger:
    def test_one_entry_per_gate(self, gated, tech):
        ledger = gate_efficacy(gated.tree, tech, gated.routing)
        assert len(ledger) == gated.gate_count

    def test_sorted_by_net_benefit(self, gated, tech):
        ledger = gate_efficacy(gated.tree, tech, gated.routing)
        benefits = [g.net_benefit for g in ledger]
        assert benefits == sorted(benefits, reverse=True)

    def test_savings_nonnegative(self, gated, tech):
        # An ancestor's enable probability is always >= the node's, so
        # a gate can never switch *more* than its masking parent.
        for entry in gate_efficacy(gated.tree, tech, gated.routing):
            assert entry.saving >= -1e-12
            assert entry.mask_probability_above >= entry.enable_probability - 1e-12

    def test_saving_is_the_marginal_cost_of_dropping_the_gate(self, gated, tech):
        # The ledger's "saving" is marginal: tying off exactly that
        # gate (everything else fixed) must raise the clock tree's
        # switched capacitance by exactly that amount.
        from repro.io.treejson import tree_from_dict, tree_to_dict

        ledger = gate_efficacy(gated.tree, tech, gated.routing)
        baseline = clock_tree_switched_cap(gated.tree, tech)
        for entry in ledger[:3] + ledger[-3:]:
            clone = tree_from_dict(tree_to_dict(gated.tree))
            node = clone.node(entry.node_id)
            node.edge_maskable = False  # tie-high: cell stays
            increased = clock_tree_switched_cap(clone, tech)
            assert increased - baseline == pytest.approx(entry.saving, abs=1e-9)

    def test_savings_bounded_by_total_masking(self, gated, tech):
        # No single gate can save more than the whole tree's masking.
        ledger = gate_efficacy(gated.tree, tech, gated.routing)
        delta = ungated_clock_tree_switched_cap(
            gated.tree, tech
        ) - clock_tree_switched_cap(gated.tree, tech)
        assert max(g.saving for g in ledger) <= delta + 1e-9

    def test_star_costs_match_routing(self, gated, tech):
        ledger = gate_efficacy(gated.tree, tech, gated.routing)
        routes = {route.node_id: route for route in gated.routing.routes}
        for entry in ledger:
            route = routes[entry.node_id]
            assert entry.star_cost == star_term(
                tech, route.length, route.transition_probability
            )
        assert sum(g.star_cost for g in ledger) == pytest.approx(
            gated.switched_cap.controller_tree
        )

    def test_without_routing_star_costs_zero(self, gated, tech):
        ledger = gate_efficacy(gated.tree, tech)
        assert all(g.star_cost == 0.0 for g in ledger)

    def test_reduction_keeps_mostly_worthwhile_gates(self, gated, reduced, tech):
        # The section-4.3 rules should raise the fraction of gates
        # whose saving beats their star cost.
        full = gate_efficacy(gated.tree, tech, gated.routing)
        kept = gate_efficacy(reduced.tree, tech, reduced.routing)
        frac_full = sum(1 for g in full if g.worthwhile) / len(full)
        frac_kept = sum(1 for g in kept if g.worthwhile) / len(kept)
        assert frac_kept > frac_full


class TestSummary:
    def test_summary_consistency(self, gated, tech):
        ledger = gate_efficacy(gated.tree, tech, gated.routing)
        summary = efficacy_summary(ledger)
        assert summary["gates"] == len(ledger)
        assert summary["net_benefit"] == pytest.approx(
            summary["total_saving"] - summary["total_star_cost"]
        )
        assert 0 <= summary["worthwhile_gates"] <= summary["gates"]
