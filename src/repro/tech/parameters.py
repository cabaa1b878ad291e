"""Technology parameter records.

Units are deliberately simple and consistent rather than tied to a
specific foundry deck:

* length  -- lambda (layout units)
* resistance -- ohm (wire: ohm per lambda)
* capacitance -- pF (wire: pF per lambda)
* delay -- ohm * pF = ns-scale units (Elmore products)
* area -- lambda^2

The paper reports switched capacitance in pF and area in 1e6 lambda^2;
the presets in :mod:`repro.tech.presets` are chosen to land in those
ranges for the r1-r5 style benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.check.errors import TechnologyError
from repro.quantity import (
    AreaUm2,
    CapacitanceFF,
    CapPerLength,
    DelayPs,
    Dimensionless,
    LengthUm,
    ResistanceOhm,
    ResPerLength,
)


@dataclass(frozen=True)
class GateModel:
    """Electrical and physical model of a clock-path cell.

    Used for both the masking AND gate and the plain buffer.  The cell
    is modeled, as in classical buffered-clock-tree work, by an input
    capacitance, an output drive resistance, an intrinsic delay, and a
    layout area.
    """

    input_cap: CapacitanceFF
    """Input (gate) capacitance seen by the upstream net, pF."""

    drive_resistance: ResistanceOhm
    """Equivalent output resistance driving the downstream net, ohm."""

    intrinsic_delay: DelayPs
    """Input-to-output delay at zero load, ohm*pF units."""

    area: AreaUm2
    """Cell area, lambda^2."""

    def __post_init__(self) -> None:
        from repro.check.validate import validate_gate_model

        validate_gate_model(self)

    def scaled(self, size: float) -> "GateModel":
        """The same cell scaled by drive ``size``.

        Doubling the size doubles input cap and area and halves the
        drive resistance; intrinsic delay is size-independent to first
        order.
        """
        if size <= 0:
            raise TechnologyError("size must be positive", field="size")
        return GateModel(
            input_cap=self.input_cap * size,
            drive_resistance=self.drive_resistance / size,
            intrinsic_delay=self.intrinsic_delay,
            area=self.area * size,
        )


@dataclass(frozen=True)
class Technology:
    """Process + methodology constants shared by all routers."""

    unit_wire_resistance: ResPerLength
    """Wire resistance per unit length, ohm / lambda."""

    unit_wire_capacitance: CapPerLength
    """Wire capacitance per unit length, pF / lambda."""

    masking_gate: GateModel
    """The AND gate inserted on gated clock-tree edges."""

    buffer: GateModel
    """The buffer used by the baseline buffered clock tree.

    The paper assumes the buffer is half the size of the AND gate; the
    presets honor that.
    """

    clock_transitions_per_cycle: Dimensionless = 2.0
    """Activity factor of the clock net (one rising + one falling edge).

    The controller (enable) nets use measured transition probabilities
    instead, which already count transitions per cycle.
    """

    wire_width: LengthUm = 1.0
    """Routing wire width, lambda -- converts wirelength to wire area."""

    def __post_init__(self) -> None:
        # Non-strict: zero R/C technologies are legal to *construct*
        # (unit tests exercise degenerate cases); the flow entry points
        # re-validate with strict=True.
        from repro.check.validate import validate_technology

        validate_technology(self, strict=False)

    def wire_area(self, length: LengthUm) -> AreaUm2:
        """Layout area of ``length`` units of routed wire, lambda^2."""
        return length * self.wire_width

    def wire_cap(self, length: LengthUm) -> CapacitanceFF:
        """Total capacitance of a wire of the given length, pF."""
        return self.unit_wire_capacitance * length
