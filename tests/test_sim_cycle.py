"""Tests for the cycle-accurate simulator.

The headline property: replaying the exact trace the activity tables
were built from reproduces the analytic ``W(T)`` / ``W(S)`` *exactly*
-- both are plug-in statistics of the same empirical distribution.
"""

import numpy as np
import pytest

from repro.bench.suite import load_benchmark
from repro.core.flow import route_buffered, route_gated, route_sharded
from repro.core.gate_reduction import GateReductionPolicy
from repro.cts.refine import RefineConfig
from repro.sim import ClockNetworkSimulator
from repro.tech import date98_technology


@pytest.fixture(scope="module")
def setup():
    case = load_benchmark("r1", scale=0.12)
    tech = date98_technology()
    return case, tech


class TestExactAgreement:
    def test_buffered_tree_constant_power(self, setup):
        case, tech = setup
        result = route_buffered(case.sinks, tech)
        sim = ClockNetworkSimulator(result.tree, tech, case.cpu.isa)
        replay = sim.run(case.stream)
        # Nothing is masked: every cycle switches the whole tree.
        assert replay.clock_per_cycle.min() == pytest.approx(
            replay.clock_per_cycle.max()
        )
        assert replay.mean_clock == pytest.approx(result.switched_cap.clock_tree)
        assert replay.mean_controller == 0.0

    def test_gated_tree_matches_analytic_exactly(self, setup):
        case, tech = setup
        result = route_gated(case.sinks, tech, case.oracle, die=case.die)
        sim = ClockNetworkSimulator(
            result.tree, tech, case.cpu.isa, routing=result.routing
        )
        replay = sim.run(case.stream)
        assert replay.mean_clock == pytest.approx(
            result.switched_cap.clock_tree, rel=1e-9
        )
        assert replay.mean_controller == pytest.approx(
            result.switched_cap.controller_tree, rel=1e-9
        )

    def test_reduced_tree_matches_analytic_exactly(self, setup):
        case, tech = setup
        result = route_gated(
            case.sinks,
            tech,
            case.oracle,
            die=case.die,
            reduction=GateReductionPolicy.from_knob(0.5, tech),
        )
        sim = ClockNetworkSimulator(
            result.tree, tech, case.cpu.isa, routing=result.routing
        )
        replay = sim.run(case.stream)
        assert replay.mean_total == pytest.approx(
            result.switched_cap.total, rel=1e-9
        )

    @pytest.mark.parametrize(
        "flow",
        [
            "refined-4ctrl",
            "sharded-k4-merge-reduced",
            "distributed-4ctrl",
        ],
    )
    def test_flow_variant_matches_analytic_exactly(self, setup, flow):
        case, tech = setup
        common = dict(
            die=case.die, reduction=GateReductionPolicy.from_knob(0.5, tech)
        )
        if flow == "refined-4ctrl":
            result = route_gated(
                case.sinks, tech, case.oracle, num_controllers=4,
                refine=RefineConfig(moves=200, seed=1), **common
            )
        elif flow == "sharded-k4-merge-reduced":
            result = route_sharded(
                case.sinks, tech, case.oracle, num_shards=4, **common
            )
        else:
            result = route_gated(
                case.sinks, tech, case.oracle, num_controllers=4, **common
            )
        sim = ClockNetworkSimulator(
            result.tree, tech, case.cpu.isa, routing=result.routing
        )
        replay = sim.run(case.stream)
        assert replay.mean_clock == pytest.approx(
            result.switched_cap.clock_tree, rel=1e-9
        )
        assert replay.mean_controller == pytest.approx(
            result.switched_cap.controller_tree, rel=1e-9
        )

    def test_gating_visible_cycle_by_cycle(self, setup):
        case, tech = setup
        result = route_gated(case.sinks, tech, case.oracle, die=case.die)
        sim = ClockNetworkSimulator(result.tree, tech, case.cpu.isa)
        replay = sim.run(case.stream)
        # A gated tree's power varies with the executed instruction.
        assert replay.clock_per_cycle.std() > 0
        assert replay.peak_total >= replay.mean_total


class TestGeneralization:
    def test_fresh_trace_close_but_not_exact(self, setup):
        # The analytic W was fitted on one trace; replaying an unseen
        # trace from the same CPU should land close (the model
        # generalizes) but not bit-exact.
        case, tech = setup
        result = route_gated(case.sinks, tech, case.oracle, die=case.die)
        sim = ClockNetworkSimulator(
            result.tree, tech, case.cpu.isa, routing=result.routing
        )
        fresh = case.cpu.stream(10000, seed=999)
        replay = sim.run(fresh)
        assert replay.mean_total == pytest.approx(
            result.switched_cap.total, rel=0.1
        )
        assert replay.mean_total != pytest.approx(
            result.switched_cap.total, rel=1e-12
        )


class TestValidation:
    def test_rejects_foreign_stream(self, setup):
        case, tech = setup
        result = route_buffered(case.sinks, tech)
        sim = ClockNetworkSimulator(result.tree, tech, case.cpu.isa)
        from repro.activity import InstructionStream

        bad = InstructionStream(ids=np.array([0, len(case.cpu.isa) + 5]))
        with pytest.raises(ValueError):
            sim.run(bad)

    def test_single_cycle_trace(self, setup):
        case, tech = setup
        result = route_gated(case.sinks, tech, case.oracle, die=case.die)
        sim = ClockNetworkSimulator(
            result.tree, tech, case.cpu.isa, routing=result.routing
        )
        from repro.activity import InstructionStream

        replay = sim.run(InstructionStream(ids=np.array([0])))
        assert replay.cycles == 1
        assert replay.mean_controller == 0.0
