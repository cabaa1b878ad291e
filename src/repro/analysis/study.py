"""Spec-driven experiment campaigns.

A *study* is a JSON-serializable spec -- benchmarks x routing
configurations plus workload knobs -- that runs end to end and yields
one comparison row per (benchmark, configuration).  The CLI's
``gated-cts study`` subcommand drives it, so a full paper-style
evaluation is reproducible from a single committed file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.analysis.report import ComparisonRow, format_comparison
from repro.analysis.wirelength import wirelength_quality
from repro.bench.suite import benchmark_names, load_benchmark
from repro.check.errors import InputError
from repro.core.flow import ClockRoutingResult, route_buffered, route_gated
from repro.core.gate_reduction import GateReductionPolicy
from repro.core.gate_sizing import GateSizingPolicy
from repro.tech.parameters import Technology
from repro.tech.presets import date98_technology

_METHOD_KINDS = ("buffered", "gated", "reduced")


@dataclass(frozen=True)
class MethodSpec:
    """One routing configuration of a study."""

    name: str
    kind: str = "reduced"
    knob: float = 0.5
    num_controllers: int = 1
    candidate_limit: Optional[int] = 16
    skew_bound: float = 0.0
    gate_sizing: bool = False

    def __post_init__(self):
        if self.kind not in _METHOD_KINDS:
            raise InputError("kind must be one of %s" % (_METHOD_KINDS,))
        if not 0.0 <= self.knob <= 1.0:
            raise InputError("knob must lie in [0, 1]")

    def run(self, case, tech: Technology) -> ClockRoutingResult:
        if self.kind == "buffered":
            return route_buffered(
                case.sinks,
                tech,
                candidate_limit=self.candidate_limit,
                skew_bound=self.skew_bound,
            )
        reduction = (
            GateReductionPolicy.from_knob(self.knob, tech)
            if self.kind == "reduced"
            else None
        )
        return route_gated(
            case.sinks,
            tech,
            case.oracle,
            die=case.die,
            reduction=reduction,
            num_controllers=self.num_controllers,
            candidate_limit=self.candidate_limit,
            gate_sizing=GateSizingPolicy() if self.gate_sizing else None,
            skew_bound=self.skew_bound,
        )


@dataclass(frozen=True)
class StudySpec:
    """A whole campaign: benchmarks x methods plus workload knobs."""

    benchmarks: Sequence[str] = ("r1",)
    methods: Sequence[MethodSpec] = field(
        default_factory=lambda: (
            MethodSpec(name="buffered", kind="buffered"),
            MethodSpec(name="gated", kind="gated"),
            MethodSpec(name="gate-red", kind="reduced"),
        )
    )
    scale: float = 0.25
    target_activity: float = 0.4
    locality: float = 0.55
    stream_length: int = 10000
    seed: Optional[int] = None

    def __post_init__(self):
        # Normalize sequences so loaded and constructed specs compare
        # equal.
        object.__setattr__(self, "benchmarks", tuple(self.benchmarks))
        object.__setattr__(self, "methods", tuple(self.methods))
        known = set(benchmark_names())
        for name in self.benchmarks:
            if name not in known:
                raise InputError("unknown benchmark %r" % name)
        if not self.methods:
            raise InputError("a study needs at least one method")
        names = [m.name for m in self.methods]
        if len(set(names)) != len(names):
            raise InputError("method names must be unique")

    # ------------------------------------------------------------------
    # (de)serialization
    # ------------------------------------------------------------------
    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "StudySpec":
        methods = tuple(
            MethodSpec(**m) for m in data.get("methods", [])
        ) or StudySpec().methods
        kwargs = {k: v for k, v in data.items() if k != "methods"}
        return StudySpec(methods=methods, **kwargs)

    @staticmethod
    def load(path: Union[str, Path]) -> "StudySpec":
        with open(path, "r", encoding="utf-8") as handle:
            return StudySpec.from_dict(json.load(handle))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "benchmarks": list(self.benchmarks),
            "methods": [
                {
                    "name": m.name,
                    "kind": m.kind,
                    "knob": m.knob,
                    "num_controllers": m.num_controllers,
                    "candidate_limit": m.candidate_limit,
                    "skew_bound": m.skew_bound,
                    "gate_sizing": m.gate_sizing,
                }
                for m in self.methods
            ],
            "scale": self.scale,
            "target_activity": self.target_activity,
            "locality": self.locality,
            "stream_length": self.stream_length,
            "seed": self.seed,
        }

    def save(self, path: Union[str, Path]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=1)


@dataclass(frozen=True)
class StudyRow:
    """One (benchmark, method) outcome."""

    comparison: ComparisonRow
    wirelength_quality: float

    def to_dict(self) -> Dict[str, Any]:
        data = dict(self.comparison.__dict__)
        data["wirelength_quality"] = self.wirelength_quality
        return data


@dataclass(frozen=True)
class StudyResult:
    spec: StudySpec
    rows: List[StudyRow]

    def report(self) -> str:
        """Text report, one Fig. 3-style block per benchmark."""
        blocks = []
        for bench in self.spec.benchmarks:
            rows = [
                r.comparison for r in self.rows if r.comparison.benchmark == bench
            ]
            blocks.append(
                format_comparison(rows, title="Study: %s (scale=%.2f)" % (bench, self.spec.scale))
            )
        return "\n\n".join(blocks)

    def save(self, path: Union[str, Path]) -> None:
        data = {
            "spec": self.spec.to_dict(),
            "rows": [r.to_dict() for r in self.rows],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=1)


def run_study(spec: StudySpec, tech: Optional[Technology] = None) -> StudyResult:
    """Execute a campaign; deterministic for a given spec."""
    tech = tech or date98_technology()
    rows: List[StudyRow] = []
    for bench in spec.benchmarks:
        case = load_benchmark(
            bench,
            scale=spec.scale,
            stream_length=spec.stream_length,
            target_activity=spec.target_activity,
            locality=spec.locality,
            seed=spec.seed,
        )
        for method in spec.methods:
            result = method.run(case, tech)
            comparison = ComparisonRow.from_result(bench, result)
            comparison = ComparisonRow(
                **{**comparison.__dict__, "method": method.name}
            )
            rows.append(
                StudyRow(
                    comparison=comparison,
                    wirelength_quality=wirelength_quality(result.tree),
                )
            )
    return StudyResult(spec=spec, rows=rows)
