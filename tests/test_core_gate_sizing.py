"""Unit tests for skew balancing by gate sizing."""

import pytest

from repro.bench.suite import load_benchmark
from repro.core.flow import route_gated
from repro.core.gate_reduction import GateReductionPolicy
from repro.core.gate_sizing import GateSizingPolicy
from repro.cts.dme import CellDecision
from repro.cts.merge import Tap, zero_skew_split
from repro.tech import date98_technology, unit_technology


class TestPolicyValidation:
    def test_rejects_empty_sizes(self):
        with pytest.raises(ValueError):
            GateSizingPolicy(sizes=())

    def test_rejects_negative_sizes(self):
        with pytest.raises(ValueError):
            GateSizingPolicy(sizes=(1.0, -2.0))

    def test_requires_unit_size(self):
        with pytest.raises(ValueError):
            GateSizingPolicy(sizes=(0.5, 2.0))


class TestResolve:
    def _snaking_case(self, tech):
        """A merge where the gated side is slow and the split snakes."""
        gate = tech.masking_gate
        slow = Tap(cap=5.0, delay=0.0, cell=gate)
        fast = Tap(cap=0.2, delay=0.0)
        distance = 1.0
        split = zero_skew_split(distance, slow, fast, tech)
        assert split.snaked is not None  # precondition for the test
        return distance, slow, fast, split

    def test_exact_split_left_alone(self):
        tech = unit_technology()
        tap = Tap(cap=1.0, delay=0.0, cell=tech.masking_gate)
        split = zero_skew_split(10.0, tap, tap, tech)
        policy = GateSizingPolicy()
        da = CellDecision(cell=tech.masking_gate, maskable=True)
        a, b, resolved = policy.resolve(
            10.0, 1.0, 0.0, da, 1.0, 0.0, da, tech, split
        )
        assert resolved is split
        assert a is da and b is da

    def test_sizing_reduces_snaking_wire(self):
        tech = unit_technology()
        distance, slow, fast, base = self._snaking_case(tech)
        policy = GateSizingPolicy()
        decision_a = CellDecision(cell=slow.cell, maskable=True)
        decision_b = CellDecision(cell=None)
        a, b, resolved = policy.resolve(
            distance,
            slow.cap,
            slow.delay,
            decision_a,
            fast.cap,
            fast.delay,
            decision_b,
            tech,
            base,
        )
        assert resolved.total_length <= base.total_length
        # The chosen sizing still balances exactly.
        da = Tap(cap=slow.cap, delay=slow.delay, cell=a.cell).edge_delay(
            resolved.length_a, tech
        )
        db = Tap(cap=fast.cap, delay=fast.delay, cell=b.cell).edge_delay(
            resolved.length_b, tech
        )
        assert da == pytest.approx(db, rel=1e-9)

    def test_maskable_flag_preserved(self):
        tech = unit_technology()
        distance, slow, fast, base = self._snaking_case(tech)
        policy = GateSizingPolicy()
        a, b, _ = policy.resolve(
            distance,
            slow.cap,
            slow.delay,
            CellDecision(cell=slow.cell, maskable=True),
            fast.cap,
            fast.delay,
            CellDecision(cell=None),
            tech,
            base,
        )
        assert a.maskable
        assert b.cell is None


class TestEndToEnd:
    def test_sizing_never_lengthens_the_tree(self):
        tech = date98_technology()
        case = load_benchmark("r1", scale=0.15)
        reduction = GateReductionPolicy.from_knob(0.5, tech)
        plain = route_gated(
            case.sinks, tech, case.oracle, die=case.die, reduction=reduction
        )
        sized = route_gated(
            case.sinks,
            tech,
            case.oracle,
            die=case.die,
            reduction=reduction,
            gate_sizing=GateSizingPolicy(),
        )
        assert sized.wirelength <= plain.wirelength + 1e-6
        assert sized.skew <= 1e-6 * max(sized.phase_delay, 1.0)

    def test_sized_tree_audits_clean(self):
        from repro.check.auditor import audit_network

        tech = date98_technology()
        case = load_benchmark("r1", scale=0.1)
        result = route_gated(
            case.sinks,
            tech,
            case.oracle,
            die=case.die,
            reduction=GateReductionPolicy.from_knob(0.6, tech),
            gate_sizing=GateSizingPolicy(),
        )
        report = audit_network(result.tree)
        assert report.ok, report.problems

    def test_sizing_creates_non_unit_cells_when_useful(self):
        tech = date98_technology()
        case = load_benchmark("r1", scale=0.15)
        result = route_gated(
            case.sinks,
            tech,
            case.oracle,
            die=case.die,
            reduction=GateReductionPolicy.from_knob(0.5, tech),
            gate_sizing=GateSizingPolicy(),
        )
        unit_cap = tech.masking_gate.input_cap
        sizes = {
            round(n.edge_cell.input_cap / unit_cap, 3)
            for n in result.tree.edges()
            if n.edge_cell is not None
        }
        assert len(sizes) > 1  # some cells were resized
