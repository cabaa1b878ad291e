"""Unit tests for technology models."""

import pytest

from repro.tech import GateModel, date98_technology, unit_technology
from repro.tech.presets import BUFFER_TO_GATE_SIZE_RATIO


class TestGateModel:
    def test_scaling_halves_resistance_doubles_cap(self):
        gate = GateModel(input_cap=1.0, drive_resistance=100.0, intrinsic_delay=2.0, area=10.0)
        big = gate.scaled(2.0)
        assert big.input_cap == 2.0
        assert big.drive_resistance == 50.0
        assert big.intrinsic_delay == 2.0
        assert big.area == 20.0

    def test_scaling_rejects_nonpositive(self):
        gate = unit_technology().masking_gate
        with pytest.raises(ValueError):
            gate.scaled(0.0)

    def test_scaling_composes(self):
        gate = unit_technology().masking_gate
        assert gate.scaled(2.0).scaled(0.5) == gate


class TestTechnology:
    def test_wire_helpers(self):
        tech = unit_technology()
        assert tech.wire_cap(3.0) == 3.0
        assert tech.wire_area(3.0) == 3.0

    def test_wire_helpers_scale_with_constants(self):
        tech = date98_technology()
        assert tech.wire_cap(1000.0) == pytest.approx(1000 * tech.unit_wire_capacitance)


class TestPresets:
    def test_buffer_is_half_the_gate(self):
        # Paper section 5.1: buffer = half the size of the AND gate.
        for tech in (date98_technology(), unit_technology()):
            gate, buf = tech.masking_gate, tech.buffer
            assert buf.input_cap == pytest.approx(
                gate.input_cap * BUFFER_TO_GATE_SIZE_RATIO
            )
            assert buf.area == pytest.approx(gate.area * BUFFER_TO_GATE_SIZE_RATIO)
            assert buf.drive_resistance == pytest.approx(
                gate.drive_resistance / BUFFER_TO_GATE_SIZE_RATIO
            )

    def test_clock_activity_factor_is_two(self):
        # One rising and one falling edge per cycle (paper section 2.1).
        assert date98_technology().clock_transitions_per_cycle == 2.0

    def test_presets_are_physical(self):
        for tech in (date98_technology(), unit_technology()):
            assert tech.unit_wire_resistance > 0
            assert tech.unit_wire_capacitance > 0
            assert tech.masking_gate.input_cap > 0
            assert tech.masking_gate.drive_resistance > 0
