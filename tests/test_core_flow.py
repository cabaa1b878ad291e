"""Unit tests for the one-call routing flows."""

import pytest

from repro.bench.suite import load_benchmark
from repro.core.flow import route_buffered, route_gated
from repro.core.gate_reduction import GateReductionPolicy
from repro.core.switched_cap import masking_efficiency
from repro.tech import date98_technology


@pytest.fixture(scope="module")
def case():
    return load_benchmark("r1", scale=0.12)


@pytest.fixture(scope="module")
def tech():
    return date98_technology()


class TestRouteBuffered(object):
    def test_result_fields(self, case, tech):
        result = route_buffered(case.sinks, tech)
        assert result.method == "buffered"
        assert result.gate_count == 0
        assert result.cell_count == 2 * case.num_sinks - 2
        assert result.switched_cap.controller_tree == 0.0
        assert result.routing is None
        assert result.num_sinks == case.num_sinks

    def test_zero_skew(self, case, tech):
        result = route_buffered(case.sinks, tech)
        assert result.skew <= 1e-9 * max(result.phase_delay, 1.0)

    def test_area_breakdown_sums(self, case, tech):
        result = route_buffered(case.sinks, tech)
        area = result.area
        assert area.total == pytest.approx(
            area.clock_wire + area.controller_wire + area.cells
        )
        assert area.controller_wire == 0.0
        assert area.routing == pytest.approx(area.clock_wire)


class TestRouteGated:
    def test_fully_gated(self, case, tech):
        result = route_gated(case.sinks, tech, case.oracle, die=case.die)
        assert result.method == "gated"
        assert result.gate_count == 2 * case.num_sinks - 2
        assert result.gate_reduction == 0.0
        assert result.switched_cap.controller_tree > 0.0
        assert result.routing is not None

    def test_reduced(self, case, tech):
        result = route_gated(
            case.sinks,
            tech,
            case.oracle,
            die=case.die,
            reduction=GateReductionPolicy.from_knob(0.5, tech),
        )
        assert result.method == "gate-red"
        assert 0 < result.gate_count < 2 * case.num_sinks - 2
        assert 0 < result.gate_reduction < 1

    def test_reduction_modes_all_run(self, case, tech):
        policy = GateReductionPolicy.from_knob(0.5, tech)
        for mode in ("merge", "demote"):
            result = route_gated(
                case.sinks,
                tech,
                case.oracle,
                die=case.die,
                reduction=policy,
                reduction_mode=mode,
            )
            assert result.skew <= 1e-6 * max(result.phase_delay, 1.0)
            assert result.gate_count < 2 * case.num_sinks - 2

    def test_invalid_mode(self, case, tech):
        for mode in ("bogus", "remove"):
            with pytest.raises(ValueError):
                route_gated(
                    case.sinks,
                    tech,
                    case.oracle,
                    reduction=GateReductionPolicy.from_knob(0.5, tech),
                    reduction_mode=mode,
                )

    def test_distributed_controllers_cut_star_wire(self, case, tech):
        central = route_gated(case.sinks, tech, case.oracle, die=case.die)
        spread = route_gated(
            case.sinks, tech, case.oracle, die=case.die, num_controllers=4
        )
        assert spread.area.controller_wire < central.area.controller_wire
        assert (
            spread.switched_cap.controller_tree
            < central.switched_cap.controller_tree
        )

    def test_masking_floor(self, case, tech):
        result = route_gated(case.sinks, tech, case.oracle, die=case.die)
        floor = masking_efficiency(result.tree, tech)
        assert 0.0 < floor < 1.0

    def test_summary_mentions_method(self, case, tech):
        result = route_gated(case.sinks, tech, case.oracle, die=case.die)
        assert "gated" in result.summary()
        assert "pF" in result.summary()
