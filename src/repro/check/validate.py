"""Strict input validators for the flow entry points.

Each validator either returns silently or raises a typed error from
:mod:`repro.check.errors` naming the offending object and field.  They
are deliberately duck-typed (attribute access only, no repro imports
beyond the error types), so the low-level packages can call them
without import cycles.

``read_sinks`` / ``read_trace`` validate at parse time with line
numbers; these functions re-validate at the flow entry points so
programmatically-built inputs (benchmark generators, user scripts) get
the same protection.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.check.errors import InputError, TechnologyError


def _finite(value: float) -> bool:
    try:
        return math.isfinite(value)
    except TypeError:
        return False


def validate_sinks(
    sinks: Sequence,
    *,
    num_modules: Optional[int] = None,
    source: Optional[str] = None,
) -> None:
    """Validate a sink list: finite coordinates, sane caps, unique names.

    ``num_modules``, when known (e.g. from the workload's ISA), bounds
    the module ids; without it only non-negativity is enforced.
    """
    if not sinks:
        raise InputError("sink list contains no sinks", source=source)
    seen = {}
    for position, sink in enumerate(sinks):
        where = "sink %r (index %d)" % (sink.name, position)
        for field, value in (("x", sink.location.x), ("y", sink.location.y)):
            if not _finite(value):
                raise InputError(
                    "%s: coordinate %s is %r; coordinates must be finite"
                    % (where, field, value),
                    source=source,
                    field=field,
                )
        if not _finite(sink.load_cap) or sink.load_cap < 0:
            raise InputError(
                "%s: load_cap is %r; load capacitance must be finite and "
                "non-negative" % (where, sink.load_cap),
                source=source,
                field="load_cap",
            )
        if not _finite(sink.module) or sink.module < 0 or int(sink.module) != sink.module:
            raise InputError(
                "%s: module is %r; module id must be a non-negative integer"
                % (where, sink.module),
                source=source,
                field="module",
            )
        if num_modules is not None and sink.module >= num_modules:
            raise InputError(
                "%s: module %d out of range (workload has %d modules)"
                % (where, sink.module, num_modules),
                source=source,
                field="module",
            )
        if sink.name in seen:
            raise InputError(
                "duplicate sink name %r (indices %d and %d); sink names "
                "must be unique" % (sink.name, seen[sink.name], position),
                source=source,
                field="name",
            )
        seen[sink.name] = position


def validate_technology(tech, *, strict: bool = True) -> None:
    """Validate a :class:`~repro.tech.parameters.Technology`.

    ``strict`` (the flow-entry default) requires *positive* unit wire
    R and C -- a zero-RC technology cannot balance skew by wire and
    makes every switched-capacitance figure vacuous.  Non-strict mode
    (used by constructors) only rejects non-finite or negative values,
    so unit tests may still build deliberately degenerate technologies.
    """
    for field in ("unit_wire_resistance", "unit_wire_capacitance"):
        value = getattr(tech, field)
        if not _finite(value) or value < 0:
            raise TechnologyError(
                "%s is %r; must be a finite non-negative number" % (field, value),
                field=field,
            )
        if strict and value <= 0:
            raise TechnologyError(
                "%s is %r; the flow requires positive unit wire R and C"
                % (field, value),
                field=field,
            )
    for field in ("clock_transitions_per_cycle", "wire_width"):
        value = getattr(tech, field)
        if not _finite(value) or value < 0:
            raise TechnologyError(
                "%s is %r; must be a finite non-negative number" % (field, value),
                field=field,
            )
    for cell_name in ("masking_gate", "buffer"):
        cell = getattr(tech, cell_name)
        validate_gate_model(cell, source=cell_name)


def validate_gate_model(cell, *, source: Optional[str] = None) -> None:
    """Validate one :class:`~repro.tech.parameters.GateModel`."""
    for field in ("input_cap", "drive_resistance", "intrinsic_delay", "area"):
        value = getattr(cell, field)
        if not _finite(value) or value < 0:
            raise TechnologyError(
                "%s is %r; must be a finite non-negative number" % (field, value),
                source=source,
                field=field,
            )
