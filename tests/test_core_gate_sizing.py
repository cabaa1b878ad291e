"""Unit tests for skew balancing by gate sizing."""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.bench.suite import load_benchmark
from repro.core.flow import route_gated
from repro.core.gate_reduction import GateReductionPolicy
from repro.core.gate_sizing import GateSizingPolicy
from repro.cts.dme import CellDecision, EdgeCells
from repro.cts.merge import SkewBalanceError, Tap, zero_skew_split
from repro.tech import date98_technology, unit_technology
from repro.tech.parameters import GateModel, Technology


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


lanes_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=2000.0),  # distance
        st.floats(min_value=0.0, max_value=400.0),  # cap_a
        st.floats(min_value=0.0, max_value=5000.0),  # delay_a
        st.integers(min_value=0, max_value=2),  # decision_a
        st.floats(min_value=0.0, max_value=400.0),  # cap_b
        st.floats(min_value=0.0, max_value=5000.0),  # delay_b
        st.integers(min_value=0, max_value=2),  # decision_b
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(lanes=lanes_strategy)
def test_resolve_lanes_matches_scalar_resolve(lanes):
    # One batch over many snaked lanes picks, lane by lane, the sizing
    # and edge lengths the scalar resolve picks.
    tech = date98_technology()
    policy = GateSizingPolicy()
    decisions = (
        CellDecision(cell=None),
        CellDecision(cell=tech.buffer),
        CellDecision(cell=tech.masking_gate, maskable=True),
    )
    expected, snaked = [], []
    for distance, cap_a, delay_a, da, cap_b, delay_b, db in lanes:
        try:
            base = zero_skew_split(
                distance,
                Tap(cap=cap_a, delay=delay_a, cell=decisions[da].cell),
                Tap(cap=cap_b, delay=delay_b, cell=decisions[db].cell),
                tech,
            )
        except SkewBalanceError:
            continue  # the merger raises on these before sizing
        if base.snaked is None:
            continue
        a, b, split = policy.resolve(
            distance, cap_a, delay_a, decisions[da], cap_b, delay_b, decisions[db],
            tech, base,
        )
        expected.append((a, b, split.length_a, split.length_b))
        snaked.append((distance, cap_a, delay_a, da, cap_b, delay_b, db))
    event("%d snaked lanes" % min(len(snaked), 2))
    if not snaked:
        return
    distance, cap_a, delay_a, da, cap_b, delay_b, db = (np.array(v) for v in zip(*snaked))
    sized = policy.sized(decisions)
    codes_a, codes_b, length_a, length_b = policy.resolve_lanes(
        EdgeCells(sized),
        policy.unit_codes(da),
        policy.unit_codes(db),
        (distance, cap_a, delay_a, cap_b, delay_b),
        tech,
    )
    assert [
        (sized[ca], sized[cb], la, lb)
        for ca, cb, la, lb in zip(codes_a, codes_b, length_a.tolist(), length_b.tolist())
    ] == expected


def test_resolve_lanes_skips_unbalanced_options():
    # With almost no wire capacitance, the unit split snakes on the
    # gate's drive alone, and sizing both gates up leaves too little
    # drive to balance: resolve skips those options, and so must the
    # batch, whose unbalanced lanes carry zero lengths.
    gate = GateModel(input_cap=1.0, drive_resistance=150.0, intrinsic_delay=1.0, area=10.0)
    tech = Technology(
        unit_wire_resistance=1.0,
        unit_wire_capacitance=1e-14,
        masking_gate=gate,
        buffer=gate.scaled(0.5),
    )
    policy = GateSizingPolicy()
    decision = CellDecision(cell=gate, maskable=True)
    base = zero_skew_split(0.0, Tap(0.0, 0.0, gate), Tap(0.0, 1.0, gate), tech)
    with pytest.raises(SkewBalanceError):
        zero_skew_split(0.0, Tap(0.0, 0.0, gate.scaled(4.0)), Tap(0.0, 1.0, gate), tech)
    a, b, split = policy.resolve(0.0, 0.0, 0.0, decision, 0.0, 1.0, decision, tech, base)
    sized = policy.sized((decision,))
    codes = policy.unit_codes(np.array([0]))
    lane = tuple(np.array([v]) for v in (0.0, 0.0, 0.0, 0.0, 1.0))
    code_a, code_b, length_a, length_b = policy.resolve_lanes(
        EdgeCells(sized), codes, codes, lane, tech
    )
    assert (sized[code_a[0]], sized[code_b[0]]) == (a, b)
    assert (length_a[0], length_b[0]) == (split.length_a, split.length_b)
    assert split.length_a < base.length_a


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
