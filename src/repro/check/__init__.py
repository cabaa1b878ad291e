"""Typed errors, strict input validation, invariant auditing, faults.

This package is imported from the lowest layers of the library
(``tech.parameters``, ``io.sinkfile``), so its ``__init__`` must stay
import-light: only :mod:`repro.check.errors` and
:mod:`repro.check.validate` (which import nothing above themselves)
load eagerly.  The auditor and the fault harness import the whole flow
and are exposed lazily via module ``__getattr__``.
"""

from __future__ import annotations

from typing import Any

from repro.check.errors import (
    AuditError,
    CapAuditError,
    ContractError,
    ContractTypeError,
    ControllerAuditError,
    EmbeddingAuditError,
    EnableAuditError,
    GeometryError,
    InputError,
    InternalInvariantError,
    ReproError,
    SkewAuditError,
    SkewBalanceError,
    TechnologyError,
)
from repro.check.tolerance import relatively_close
from repro.check.validate import (
    validate_gate_model,
    validate_sinks,
    validate_technology,
)

_LAZY = {
    "AuditFinding": "repro.check.auditor",
    "NetworkAuditReport": "repro.check.auditor",
    "audit_network": "repro.check.auditor",
    "FAULTS": "repro.check.faults",
    "Fault": "repro.check.faults",
    "FaultOutcome": "repro.check.faults",
    "run_fault": "repro.check.faults",
}

__all__ = [
    "ReproError",
    "InputError",
    "TechnologyError",
    "GeometryError",
    "SkewBalanceError",
    "ContractError",
    "ContractTypeError",
    "InternalInvariantError",
    "relatively_close",
    "AuditError",
    "SkewAuditError",
    "CapAuditError",
    "EnableAuditError",
    "EmbeddingAuditError",
    "ControllerAuditError",
    "validate_sinks",
    "validate_technology",
    "validate_gate_model",
    *sorted(_LAZY),
]


def __getattr__(name: str) -> Any:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    import importlib

    return getattr(importlib.import_module(module_name), name)
