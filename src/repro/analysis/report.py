"""Paper-style text reporting.

The benchmark harness regenerates each table/figure of the paper as a
text table; the builders here are shared between the pytest benches,
the examples, and the CLI so every surface prints identical rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

from repro.core.flow import ClockRoutingResult
from repro.obs import PhaseProfile


@dataclass(frozen=True)
class ComparisonRow:
    """One bar group of Fig. 3: a benchmark under one routing method."""

    benchmark: str
    method: str
    switched_cap: float
    clock_cap: float
    controller_cap: float
    area_total: float
    area_clock_wire: float
    area_controller_wire: float
    gate_count: int
    gate_reduction: float
    skew: float
    phase_delay: float
    wirelength: float

    @staticmethod
    def from_result(benchmark: str, result: ClockRoutingResult) -> "ComparisonRow":
        return ComparisonRow(
            benchmark=benchmark,
            method=result.method,
            switched_cap=result.switched_cap.total,
            clock_cap=result.switched_cap.clock_tree,
            controller_cap=result.switched_cap.controller_tree,
            area_total=result.area.total,
            area_clock_wire=result.area.clock_wire,
            area_controller_wire=result.area.controller_wire,
            gate_count=result.gate_count,
            gate_reduction=result.gate_reduction,
            skew=result.skew,
            phase_delay=result.phase_delay,
            wirelength=result.wirelength,
        )


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Fixed-width text table (floats rendered with 4 significant digits)."""

    def fmt(value: object) -> str:
        if isinstance(value, float):
            return "%.4g" % value
        return str(value)

    cells = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_comparison(rows: Sequence[ComparisonRow], title: str) -> str:
    """Fig. 3-style table: switched cap and area per method."""
    headers = [
        "bench",
        "method",
        "W total (pF)",
        "W clock",
        "W ctrl",
        "area (1e6 l^2)",
        "gates",
        "reduction",
        "skew",
    ]
    data = [
        [
            r.benchmark,
            r.method,
            r.switched_cap,
            r.clock_cap,
            r.controller_cap,
            r.area_total / 1e6,
            r.gate_count,
            r.gate_reduction,
            r.skew,
        ]
        for r in rows
    ]
    return format_table(headers, data, title=title)


def format_phase_times(
    profile: PhaseProfile,
    title: str = "Phase wall-clock profile",
    layer_ns: Optional[Mapping[str, float]] = None,
) -> str:
    """Per-phase wall-clock table from a span-trace profile.

    ``profile`` comes from :func:`repro.obs.phase_profile` over a
    tracer's spans; the CLI prints this table whenever ``--trace`` is
    given, and the phase-profile bench persists the same rows to
    ``BENCH_phase_profile.json``.  ``layer_ns`` maps the merge loop's
    ``dme.layer.*`` gauges to nanoseconds; they are listed under the
    ``dme.merge_loop`` row.
    """
    headers = ["phase", "spans", "seconds", "share"]

    def share(ns: float) -> str:
        return "%.1f%%" % (100 * ns / profile.root_ns) if profile.root_ns else "0.0%"

    data = [
        [row.name, row.count, row.total_ns / 1e9, "%.1f%%" % (100 * row.fraction)]
        for row in profile.rows
    ]
    # Detail rows are nested inside phases already listed (they sit
    # deeper than depth 1), so they render indented and do not join
    # the coverage sum; the merge-loop layers nest one level further.
    for row in profile.detail_rows:
        data.append(
            ["  " + row.name, row.count, row.total_ns / 1e9, "%.1f%%" % (100 * row.fraction)]
        )
        if row.name == "dme.merge_loop" and layer_ns:
            data.extend(
                ["    " + name, "", ns / 1e9, share(ns)] for name, ns in layer_ns.items()
            )
    data.append(
        [
            "(total traced)",
            sum(r.count for r in profile.rows),
            profile.root_ns / 1e9,
            "%.1f%% covered" % (100 * profile.coverage),
        ]
    )
    return format_table(headers, data, title=title)


def format_characteristics(rows: Dict[str, Dict[str, float]]) -> str:
    """Table 4: benchmark characteristics."""
    headers = [
        "bench",
        "sinks",
        "instructions",
        "stream cycles",
        "Ave(M(I))",
        "avg activity",
    ]
    data = [
        [
            name,
            int(c["sinks"]),
            int(c["instructions"]),
            int(c["stream_cycles"]),
            c["ave_modules_per_instruction"],
            c["average_module_activity"],
        ]
        for name, c in rows.items()
    ]
    return format_table(headers, data, title="Table 4: benchmark characteristics")
