"""Unit tests for instruction sets and the paper's worked example."""

import pytest

from repro.activity.isa import (
    Instruction,
    InstructionSet,
    mask_to_modules,
    modules_to_mask,
    paper_example_isa,
    paper_example_stream,
    usage_table,
)


class TestMasks:
    def test_roundtrip(self):
        modules = [0, 3, 17, 100]
        assert mask_to_modules(modules_to_mask(modules)) == modules

    def test_empty(self):
        assert modules_to_mask([]) == 0
        assert mask_to_modules(0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            modules_to_mask([-1])


class TestInstructionSet:
    def test_instruction_mask(self):
        instr = Instruction(name="I1", modules=frozenset({0, 2}))
        assert instr.mask == 0b101

    def test_rejects_out_of_range_module(self):
        with pytest.raises(ValueError):
            InstructionSet.from_usage_lists([{5}], num_modules=3)

    def test_rejects_empty_set(self):
        with pytest.raises(ValueError):
            InstructionSet(instructions=(), num_modules=1)

    def test_average_usage_uniform(self):
        # Paper ISA: usage counts 4, 2, 3, 2 over 6 modules.
        isa = paper_example_isa()
        assert isa.average_usage_fraction() == pytest.approx((4 + 2 + 3 + 2) / 4 / 6)

    def test_average_usage_weighted(self):
        isa = paper_example_isa()
        weights = [1.0, 0.0, 0.0, 0.0]  # only I1 executes
        assert isa.average_usage_fraction(weights) == pytest.approx(4 / 6)

    def test_average_usage_rejects_bad_weights(self):
        isa = paper_example_isa()
        with pytest.raises(ValueError):
            isa.average_usage_fraction([1.0])
        with pytest.raises(ValueError):
            isa.average_usage_fraction([0.0] * 4)


class TestPaperExample:
    """Section 3's worked example, as reconstructed from its statistics."""

    def test_table1_usage(self):
        table = usage_table(paper_example_isa())
        assert table["I1"] == ["M1", "M2", "M3", "M5"]
        assert table["I2"] == ["M1", "M4"]
        assert table["I3"] == ["M2", "M5", "M6"]
        assert table["I4"] == ["M3", "M4"]

    def test_stream_length_20(self):
        assert len(paper_example_stream()) == 20

    def test_stream_m1_probability(self):
        # P(M1) = 0.75: I1 and I2 occur 15 times in 20 cycles.
        isa = paper_example_isa()
        stream = paper_example_stream()
        m1 = 1 << 0
        active = sum(1 for i in stream if isa.masks[i] & m1)
        assert active / len(stream) == pytest.approx(0.75)

    def test_stream_m5_or_m6_probability(self):
        # P(M5 v M6) = 0.55: I1 and I3 occur 11 times.
        isa = paper_example_isa()
        stream = paper_example_stream()
        mask = (1 << 4) | (1 << 5)
        active = sum(1 for i in stream if isa.masks[i] & mask)
        assert active / len(stream) == pytest.approx(0.55)

    def test_stream_m5_or_m6_transitions(self):
        # The enable of {M5, M6} makes exactly 9 transitions.
        isa = paper_example_isa()
        stream = paper_example_stream()
        mask = (1 << 4) | (1 << 5)
        bits = [bool(isa.masks[i] & mask) for i in stream]
        toggles = sum(1 for a, b in zip(bits, bits[1:]) if a != b)
        assert toggles == 9
