"""The annealing refinement pass: no-op, determinism, zero skew."""

import json

import pytest

from repro.bench.suite import load_benchmark
from repro.check.auditor import audit_network
from repro.check.errors import InputError
from repro.core.flow import route_gated
from repro.cts import RefineConfig, refine_tree
from repro.io.treejson import tree_to_dict
from repro.tech import date98_technology


@pytest.fixture(scope="module")
def tech():
    return date98_technology()


@pytest.fixture(scope="module")
def case():
    return load_benchmark("r1", scale=0.12)


@pytest.fixture(scope="module")
def case2():
    return load_benchmark("r2", scale=0.1)


@pytest.fixture(scope="module")
def greedy(case, tech):
    return route_gated(case.sinks, tech, case.oracle, die=case.die)


@pytest.fixture(scope="module")
def refined(case, tech):
    return route_gated(
        case.sinks,
        tech,
        case.oracle,
        die=case.die,
        refine=RefineConfig(moves=150, seed=1),
    )


class TestConfigValidation:
    def test_negative_moves(self):
        with pytest.raises(InputError):
            RefineConfig(moves=-1)

    def test_negative_seed(self):
        with pytest.raises(InputError) as info:
            RefineConfig(seed=-1)
        assert info.value.field == "seed"


class TestZeroMoveNoOp:
    def test_zero_budget_returns_the_input_object(self, greedy, case, tech):
        from repro.core.controller import ControllerLayout, Die

        tree = greedy.tree
        layout = ControllerLayout.centralized(
            case.die or Die.bounding([s.location for s in case.sinks])
        )
        best, assignment, result = refine_tree(
            tree, tech, case.oracle, layout, RefineConfig(moves=0)
        )
        assert best is tree  # identity, not just equality
        assert assignment is None
        assert result.moves_proposed == 0
        assert result.improvement == 0.0

    def test_zero_budget_flow_is_byte_identical(self, greedy, case, tech):
        with_refine = route_gated(
            case.sinks,
            tech,
            case.oracle,
            die=case.die,
            refine=RefineConfig(moves=0),
        )
        assert json.dumps(tree_to_dict(with_refine.tree)) == json.dumps(
            tree_to_dict(greedy.tree)
        )
        assert with_refine.pins() == greedy.pins()
        assert with_refine.routing.explicit_assignment is False


class TestDeterminism:
    def test_same_seed_refines_byte_identically(self, refined, case, tech):
        again = route_gated(
            case.sinks,
            tech,
            case.oracle,
            die=case.die,
            refine=RefineConfig(moves=150, seed=1),
        )
        assert json.dumps(tree_to_dict(again.tree)) == json.dumps(
            tree_to_dict(refined.tree)
        )
        assert again.pins() == refined.pins()


class TestNeverRegresses:
    def test_refined_cost_at_most_greedy(self, greedy, refined):
        assert refined.switched_cap.total <= greedy.switched_cap.total

    def test_r1_strictly_improves(self, case, tech):
        # The acceptance-level claim at a realistic budget: the greedy
        # merge leaves switched capacitance on the table that 200
        # annealing moves recover.
        greedy = route_gated(case.sinks, tech, case.oracle, die=case.die)
        refined = route_gated(
            case.sinks,
            tech,
            case.oracle,
            die=case.die,
            refine=RefineConfig(moves=200, seed=1),
        )
        assert refined.switched_cap.total < greedy.switched_cap.total

    def test_hostile_seeds_never_regress(self, case, tech):
        greedy = route_gated(case.sinks, tech, case.oracle, die=case.die)
        for seed in (0, 7):
            refined = route_gated(
                case.sinks,
                tech,
                case.oracle,
                die=case.die,
                refine=RefineConfig(moves=40, seed=seed),
            )
            assert refined.switched_cap.total <= greedy.switched_cap.total


class TestRefinedTreeIsSound:
    def test_exact_zero_skew(self, refined):
        assert refined.skew <= 1e-9 * max(refined.phase_delay, 1.0)

    def test_audit_clean(self, refined):
        report = audit_network(refined.tree, routing=refined.routing)
        assert report.ok, report.summary()

    def test_module_universe_preserved(self, greedy, refined):
        assert refined.tree.root.module_mask == greedy.tree.root.module_mask
        assert sorted(s.sink.name for s in refined.tree.sinks()) == sorted(
            s.sink.name for s in greedy.tree.sinks()
        )

    def test_r2_audit_clean_and_zero_skew(self, case2, tech):
        refined = route_gated(
            case2.sinks,
            tech,
            case2.oracle,
            die=case2.die,
            refine=RefineConfig(moves=120, seed=3),
        )
        assert refined.skew <= 1e-9 * max(refined.phase_delay, 1.0)
        report = audit_network(refined.tree, routing=refined.routing)
        assert report.ok, report.summary()


class TestResultAccounting:
    def test_counters_partition_the_budget(self, case, tech):
        from repro.core.controller import ControllerLayout, Die

        greedy = route_gated(case.sinks, tech, case.oracle, die=case.die)
        layout = ControllerLayout.centralized(
            case.die or Die.bounding([s.location for s in case.sinks])
        )
        _, _, result = refine_tree(
            greedy.tree.clone(),
            tech,
            case.oracle,
            layout,
            RefineConfig(moves=80, seed=2),
        )
        assert result.moves_proposed == 80
        assert (
            result.moves_accepted + result.moves_rejected + result.moves_infeasible
            == result.moves_proposed
        )
        assert (
            result.nni_accepted + result.gate_accepted + result.reassign_accepted
            == result.moves_accepted
        )
        assert result.best_cost <= result.initial_cost
        assert result.improvement >= 0.0
        assert "refine:" in result.summary()

    def test_counters_published_once(self, case, tech):
        from repro.core.controller import ControllerLayout, Die
        from repro.obs import MetricsRegistry, Tracer, set_registry, set_tracer

        greedy = route_gated(case.sinks, tech, case.oracle, die=case.die)
        layout = ControllerLayout.centralized(
            case.die or Die.bounding([s.location for s in case.sinks])
        )
        registry, tracer = MetricsRegistry(), Tracer(enabled=True)
        previous_registry, previous_tracer = set_registry(registry), set_tracer(tracer)
        try:
            _, _, result = refine_tree(
                greedy.tree.clone(),
                tech,
                case.oracle,
                layout,
                RefineConfig(moves=80, seed=2),
            )
        finally:
            set_registry(previous_registry)
            set_tracer(previous_tracer)
        for name in ("proposed", "accepted", "rejected", "infeasible"):
            assert registry.counter("refine.moves_" + name).value == getattr(
                result, "moves_" + name
            )
        assert registry.counter("refine.reembeds").value == result.reembeds
        assert registry.gauge("refine.improvement").value == result.improvement
        (span,) = [s for s in tracer.spans if s.name == "refine.anneal"]
        assert set(span.attrs) == {"n", "moves", "seed"}
