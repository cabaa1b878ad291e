"""Content-addressed run ledger: durable, comparable records of runs.

Every flow/bench/CLI invocation can persist a :class:`RunRecord` --
one JSON document holding the run's configuration, an environment
fingerprint (git revision, Python, platform, seeds), the full span
tree and per-phase profile, the metrics-registry snapshot, and the
*result pins* (wirelength, switched capacitance, gate count, ...) that
must stay byte-identical across refactors.

Records live in a ledger directory (``.repro-runs/`` by default) under
``<run_id>.json`` where ``run_id`` is the SHA-256 of the record's
canonical content (everything except the ``created_unix`` stamp).  Two
runs that measured exactly the same thing collapse onto one file;
references accept full ids, unique prefixes, file paths, or the
``latest`` / ``latest~N`` shorthand.

The regression sentinel (:mod:`repro.obs.sentinel`) consumes pairs of
these records; ``gated-cts obs diff/check`` is the front end.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.check.errors import InputError
from repro.obs.export import DME_DETAIL_SPANS, phase_profile
from repro.obs.jsonio import (
    SCHEMA_KEY,
    SCHEMA_VERSION,
    content_digest,
    load_json,
    unix_now,
    write_json,
)
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.tracer import SpanRecord, Tracer

#: Default ledger directory, relative to the invoking process's cwd.
DEFAULT_LEDGER_DIR = ".repro-runs"

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
    created_unix: int = field(default_factory=unix_now)

    # -- serialization --------------------------------------------------
    def content(self) -> Dict[str, Any]:
        """The addressable content (everything but the timestamp)."""
        return {
            SCHEMA_KEY: SCHEMA_VERSION,
            "kind": self.kind,
            "label": self.label,
            "config": self.config,
            "fingerprint": self.fingerprint,
            "phases": self.phases,
            "spans": self.spans,
            "metrics": self.metrics,
            "pins": self.pins,
        }

    @property
    def run_id(self) -> str:
        """SHA-256 of the canonical content; the ledger file stem."""
        return content_digest(self.content())

    def payload(self) -> Dict[str, Any]:
        out = self.content()
        out["run_id"] = self.run_id
        out["created_unix"] = self.created_unix
        return out

    @staticmethod
    def from_payload(payload: Dict[str, Any]) -> "RunRecord":
        try:
            return RunRecord(
                kind=payload["kind"],
                label=payload["label"],
                config=payload["config"],
                fingerprint=payload["fingerprint"],
                phases=payload["phases"],
                spans=payload["spans"],
                metrics=payload["metrics"],
                pins=payload["pins"],
                created_unix=payload.get("created_unix", 0),
            )
        except KeyError as exc:
            raise InputError(
                "run record is missing required key %s" % exc, field="payload"
            ) from exc

    @staticmethod
    def load(path) -> "RunRecord":
        return RunRecord.from_payload(load_json(path))

    def save(self, directory=DEFAULT_LEDGER_DIR) -> Path:
        """Write into ``directory`` under the content address."""
        return RunLedger(directory).save(self)

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
    spans: Optional[Sequence[SpanRecord]] = None,
) -> RunRecord:
    """Assemble a :class:`RunRecord` from a finished traced run.

    Call *after* the root span has closed (the assembly itself must
    not pollute the timings it records).  ``root_name`` scopes the
    phase profile when the trace holds several flows.
    """
    span_rows = [s.as_dict() for s in (tracer.spans if spans is None else spans)]
    profile = phase_profile(
        tracer.spans if spans is None else spans,
        root_name=root_name,
        detail_names=DME_DETAIL_SPANS,
    )
    registry = registry or get_registry()
    return RunRecord(
        kind=kind,
        label=label,
        config=_jsonable(config),
        fingerprint=environment_fingerprint(),
        phases=profile.as_dict(),
        spans=span_rows,
        metrics=registry.as_dict(),
        pins=_jsonable(pins),
    )


class RunLedger:
    """A directory of content-addressed :class:`RunRecord` files."""

    def __init__(self, directory=DEFAULT_LEDGER_DIR):
        self.directory = Path(directory)

    # -- writing --------------------------------------------------------
    def save(self, record: RunRecord) -> Path:
        """Persist ``record``; idempotent for identical content."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / ("%s.json" % record.run_id)
        if not path.exists():
            write_json(path, record.payload())
        get_registry().counter("ledger.runs_recorded").inc()
        return path

    # -- reading --------------------------------------------------------
    def paths(self) -> List[Path]:
        """Record files, oldest first (created stamp, then id)."""
        if not self.directory.is_dir():
            return []
        entries = []
        for path in sorted(self.directory.glob("*.json")):
            try:
                payload = load_json(path)
            except (OSError, ValueError):
                continue
            if isinstance(payload, dict) and "pins" in payload:
                entries.append((payload.get("created_unix", 0), path.stem, path))
        entries.sort()
        return [path for _, _, path in entries]

    def records(self) -> List[RunRecord]:
        return [RunRecord.load(path) for path in self.paths()]

    def resolve(self, ref: str) -> Path:
        """A reference -> record path.

        Accepts a file path, a full run id, a unique id prefix, or
        ``latest`` / ``latest~N`` (N runs before the newest).
        """
        direct = Path(ref)
        if direct.is_file():
            return direct
        paths = self.paths()
        if ref == "latest" or ref.startswith("latest~"):
            back = 0
            if ref.startswith("latest~"):
                try:
                    back = int(ref.split("~", 1)[1])
                except ValueError:
                    raise InputError(
                        "bad ledger reference %r; use latest~<int>" % ref,
                        field="ref",
                    ) from None
            if back >= len(paths):
                raise InputError(
                    "ledger %s holds %d record(s); %r is out of range"
                    % (self.directory, len(paths), ref),
                    field="ref",
                )
            return paths[-1 - back]
        matches = [p for p in paths if p.stem.startswith(ref)]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise InputError(
                "no run record matches %r in %s" % (ref, self.directory),
                field="ref",
            )
        raise InputError(
            "ambiguous run reference %r (%d matches) in %s"
            % (ref, len(matches), self.directory),
            field="ref",
        )

    def load(self, ref: str) -> RunRecord:
        return RunRecord.load(self.resolve(ref))
