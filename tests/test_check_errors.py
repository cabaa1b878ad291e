"""Unit tests for the typed error taxonomy and the validators."""

import math

import pytest

from repro.check import (
    AuditError,
    CapAuditError,
    ControllerAuditError,
    EmbeddingAuditError,
    EnableAuditError,
    GeometryError,
    InputError,
    ReproError,
    SkewAuditError,
    SkewBalanceError,
    TechnologyError,
    validate_gate_model,
    validate_sinks,
    validate_technology,
)
from repro.cts import Sink
from repro.geometry import Point
from repro.tech import unit_technology
from repro.tech.parameters import GateModel, Technology


class TestHierarchy:
    def test_everything_is_a_repro_error(self):
        for cls in (
            InputError,
            TechnologyError,
            GeometryError,
            SkewBalanceError,
            AuditError,
            SkewAuditError,
            CapAuditError,
            EnableAuditError,
            EmbeddingAuditError,
            ControllerAuditError,
        ):
            assert issubclass(cls, ReproError)

    def test_input_branches_stay_value_errors(self):
        # Backward compatibility: code written against the old bare
        # ValueError contract keeps catching these.
        for cls in (InputError, TechnologyError, GeometryError, SkewBalanceError):
            assert issubclass(cls, ValueError)

    def test_embedding_audit_error_is_value_error(self):
        # validate_embedding historically raised ValueError.
        assert issubclass(EmbeddingAuditError, ValueError)

    def test_skew_balance_is_geometry(self):
        assert issubclass(SkewBalanceError, GeometryError)


class TestDiagnostic:
    def test_full_location(self):
        exc = InputError("bad value", source="a.txt", line=7, field="x")
        assert exc.diagnostic() == "a.txt: line 7: field 'x': bad value"
        assert str(exc) == exc.diagnostic()

    def test_node_location(self):
        exc = CapAuditError("cap drift", node=12)
        assert "node 12" in str(exc)
        assert exc.node == 12

    def test_bare_message(self):
        exc = ReproError("plain")
        assert str(exc) == "plain"


def sink(name, x, y, cap=1.0, module=0):
    return Sink(name=name, location=Point(x, y), load_cap=cap, module=module)


class TestValidateSinks:
    def test_clean_list_passes(self):
        validate_sinks([sink("a", 0, 0), sink("b", 5, 5, module=1)])

    def test_empty_rejected(self):
        with pytest.raises(InputError, match="no sinks"):
            validate_sinks([])

    def test_nan_coordinate_rejected(self):
        bad = [sink("a", 0, 0), object.__new__(Sink)]
        # Sink's own __post_init__ rejects NaN, so smuggle one past it
        # to prove the validator catches it independently.
        object.__setattr__(bad[1], "name", "b")
        object.__setattr__(bad[1], "location", Point(math.nan, 0.0))
        object.__setattr__(bad[1], "load_cap", 1.0)
        object.__setattr__(bad[1], "module", 1)
        with pytest.raises(InputError, match="finite"):
            validate_sinks(bad)

    def test_duplicate_names_rejected(self):
        with pytest.raises(InputError, match="duplicate sink name 'a'"):
            validate_sinks([sink("a", 0, 0), sink("a", 5, 5, module=1)])

    def test_module_out_of_range(self):
        with pytest.raises(InputError, match="out of range"):
            validate_sinks([sink("a", 0, 0, module=7)], num_modules=4)

    def test_module_in_range_passes(self):
        validate_sinks([sink("a", 0, 0, module=3)], num_modules=4)


class TestValidateTechnology:
    def test_preset_passes_strict(self):
        validate_technology(unit_technology(), strict=True)

    def test_zero_rc_passes_non_strict_only(self):
        cell = GateModel(
            input_cap=0.0, drive_resistance=0.0, intrinsic_delay=0.0, area=0.0
        )
        tech = Technology(
            unit_wire_resistance=0.0,
            unit_wire_capacitance=0.0,
            masking_gate=cell,
            buffer=cell,
        )
        validate_technology(tech, strict=False)
        with pytest.raises(TechnologyError, match="positive"):
            validate_technology(tech, strict=True)

    def test_negative_gate_rejected_at_construction(self):
        with pytest.raises(TechnologyError):
            GateModel(
                input_cap=-1.0, drive_resistance=1.0, intrinsic_delay=0.0, area=1.0
            )

    def test_nan_wire_resistance_rejected_at_construction(self):
        cell = GateModel(
            input_cap=1.0, drive_resistance=1.0, intrinsic_delay=0.0, area=1.0
        )
        with pytest.raises(TechnologyError):
            Technology(
                unit_wire_resistance=math.nan,
                unit_wire_capacitance=1.0,
                masking_gate=cell,
                buffer=cell,
            )

    def test_gate_model_validator(self):
        with pytest.raises(TechnologyError, match="drive_resistance"):
            validate_gate_model(_BadCell())

    def test_scaled_rejects_non_positive_size(self):
        cell = GateModel(
            input_cap=1.0, drive_resistance=1.0, intrinsic_delay=0.0, area=1.0
        )
        with pytest.raises(TechnologyError):
            cell.scaled(0.0)


class _BadCell:
    # Duck-typed stand-in: GateModel itself now rejects inf at
    # construction, so the validator is probed with a plain object.
    input_cap = 1.0
    drive_resistance = math.inf
    intrinsic_delay = 0.0
    area = 1.0
