"""Run records: durable, comparable records of runs.

Every flow/bench/CLI invocation can persist a :class:`RunRecord` --
one JSON document holding the run's configuration, an environment
fingerprint (git revision, Python, platform, seeds), the full span
tree and per-phase profile, the metrics-registry snapshot, and the
*result pins* (wirelength, switched capacitance, gate count, ...) that
must stay byte-identical across refactors.

A record is one file that its writer names (``route --record
OUT.json``).  The regression sentinel (:mod:`repro.obs.sentinel`)
consumes pairs of them; ``gated-cts obs diff A.json B.json`` is the
front end.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional

from repro.check.errors import InputError
from repro.obs.export import DME_DETAIL_SPANS, phase_profile
from repro.obs.jsonio import SCHEMA_KEY, SCHEMA_VERSION, load_json, write_json
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.tracer import Tracer

#: Environment variables worth fingerprinting (they change results or
#: scale): kept small and explicit so records stay comparable.
_FINGERPRINT_ENV = ("REPRO_BENCH_SCALE",)


def _git_revision() -> Optional[str]:
    """Current git commit hash, or ``None`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def environment_fingerprint() -> Dict[str, Any]:
    """Everything about the host/toolchain a comparison should know."""
    import numpy

    return {
        "git_revision": _git_revision(),
        "python": "%d.%d.%d" % sys.version_info[:3],
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "env": {name: os.environ.get(name) for name in _FINGERPRINT_ENV},
    }


def _jsonable(value: Any) -> Any:
    """Coerce one config/pin value into a JSON-stable shape."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return repr(value)


@dataclass(frozen=True)
class RunRecord:
    """One durable, comparable record of a routed/benchmarked run."""

    kind: str
    """``flow`` | ``bench`` | ``cli`` -- what produced the record."""
    label: str
    """Human-readable run label, e.g. ``route:r1:reduced``."""
    config: Dict[str, Any]
    """The knobs that shaped the run (benchmark, scale, seed, flags)."""
    fingerprint: Dict[str, Any]
    """Host/toolchain fingerprint (:func:`environment_fingerprint`)."""
    phases: Dict[str, Any]
    """The per-phase profile tree (``PhaseProfile.as_dict`` shape)."""
    spans: List[Dict[str, Any]]
    """Raw span rows (``SpanRecord.as_dict`` shape), completion order."""
    metrics: Dict[str, Any]
    """Metrics-registry snapshot (``MetricsRegistry.as_dict`` shape)."""
    pins: Dict[str, Any]
    """Exact result pins; byte-identical across runs is the contract."""

    # -- serialization --------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {SCHEMA_KEY: SCHEMA_VERSION}
        out.update((f.name, getattr(self, f.name)) for f in fields(self))
        return out

    def write(self, path) -> None:
        write_json(path, self.as_dict())

    @staticmethod
    def load(path) -> "RunRecord":
        """Read a record file; keys outside the schema (the digest and
        timestamp older records carry) are ignored."""
        try:
            payload = load_json(path)
        except ValueError as exc:
            raise InputError(
                "not a JSON run record: %s" % exc, source=path
            ) from exc
        if not isinstance(payload, dict):
            raise InputError(
                "run record must be a JSON object, got %s" % type(payload).__name__,
                source=path,
            )
        try:
            return RunRecord(**{f.name: payload[f.name] for f in fields(RunRecord)})
        except KeyError as exc:
            raise InputError(
                "run record is missing required key %s" % exc, source=path
            ) from exc

    # -- views the sentinel reads --------------------------------------
    def phase_rows(self) -> Dict[str, Dict[str, Any]]:
        """Depth-1 phase rows plus detail rows, keyed by phase name."""
        rows = {row["name"]: row for row in self.phases.get("phases", [])}
        for row in self.phases.get("detail", []):
            rows.setdefault(row["name"], row)
        return rows

    def counters(self) -> Dict[str, int]:
        """All counter-typed metrics, keyed by name."""
        return {
            name: m["value"]
            for name, m in self.metrics.items()
            if m.get("type") == "counter"
        }

    @property
    def root_ns(self) -> int:
        return self.phases.get("root_ns", 0)


def record_from_trace(
    kind: str,
    label: str,
    config: Dict[str, Any],
    tracer: Tracer,
    pins: Dict[str, Any],
    registry: Optional[MetricsRegistry] = None,
    root_name: Optional[str] = None,
) -> RunRecord:
    """Assemble a :class:`RunRecord` from a finished traced run.

    Call *after* the root span has closed (the assembly itself must
    not pollute the timings it records).  ``root_name`` scopes the
    phase profile when the trace holds several flows.
    """
    profile = phase_profile(
        tracer.spans, root_name=root_name, detail_names=DME_DETAIL_SPANS
    )
    registry = registry or get_registry()
    return RunRecord(
        kind=kind,
        label=label,
        config=_jsonable(config),
        fingerprint=environment_fingerprint(),
        phases=profile.as_dict(),
        spans=[s.as_dict() for s in tracer.spans],
        metrics=registry.as_dict(),
        pins=_jsonable(pins),
    )

