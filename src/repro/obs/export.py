"""Span exporters.

Two targets, both fed from the flat :class:`~repro.obs.tracer.SpanRecord`
list a :class:`~repro.obs.tracer.Tracer` collects (the raw span rows
and the metrics snapshot themselves live in the
:class:`~repro.obs.ledger.RunRecord`):

* **Chrome ``trace_event`` JSON** -- complete ("X") events loadable in
  ``chrome://tracing`` or Perfetto, span attributes in ``args``;
* **phase profile** -- per-phase wall-clock totals aggregated from the
  direct children of each root span, the data behind
  ``analysis.report.format_phase_times`` and the
  ``BENCH_phase_profile.json`` bench artifact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.tracer import SpanRecord


# ----------------------------------------------------------------------
# Chrome trace_event
# ----------------------------------------------------------------------
def chrome_trace_events(spans: Sequence[SpanRecord]) -> List[Dict[str, Any]]:
    """Spans as Chrome complete ("X") events, start-time ordered.

    Timestamps are microseconds (the format's unit); nesting is
    reconstructed by the viewer from containment on one pid/tid, which
    holds exactly because spans come from one context-manager stack.
    """
    events = []
    for span in sorted(spans, key=lambda s: (s.start_ns, s.span_id)):
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": span.start_ns / 1000.0,
                "dur": span.duration_ns / 1000.0,
                "pid": 1,
                "tid": 1,
                "args": {k: _jsonable(v) for k, v in span.attrs.items()},
            }
        )
    return events


def chrome_trace(spans: Sequence[SpanRecord]) -> Dict[str, Any]:
    """The full Chrome trace object (``traceEvents`` container)."""
    return {
        "traceEvents": chrome_trace_events(spans),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs"},
    }


def write_chrome_trace(spans: Sequence[SpanRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(spans), fh, indent=1)
        fh.write("\n")


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


# ----------------------------------------------------------------------
# phase profile
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PhaseRow:
    """Aggregated wall-clock of one phase (spans of one name, depth 1)."""

    name: str
    count: int
    total_ns: int
    fraction: float
    """Share of the root span(s) total; 0 when there is no root."""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "count": self.count,
            "total_ns": self.total_ns,
            "total_s": self.total_ns / 1e9,
            "fraction": self.fraction,
        }


@dataclass(frozen=True)
class PhaseProfile:
    """Per-phase totals under the trace's root span(s)."""

    rows: List[PhaseRow]
    root_ns: int
    covered_ns: int
    detail_rows: List[PhaseRow] = field(default_factory=list)
    """Totals of explicitly requested sub-phase names found at *any*
    depth under the roots (see ``phase_profile``'s ``detail_names``);
    nested inside ``rows`` entries, so excluded from ``covered_ns``."""

    @property
    def coverage(self) -> float:
        """Fraction of root wall-clock covered by depth-1 spans."""
        return self.covered_ns / self.root_ns if self.root_ns else 0.0

    def as_dict(self) -> Dict[str, Any]:
        out = {
            "root_ns": self.root_ns,
            "root_s": self.root_ns / 1e9,
            "covered_ns": self.covered_ns,
            "coverage": self.coverage,
            "phases": [r.as_dict() for r in self.rows],
        }
        if self.detail_rows:
            out["detail"] = [r.as_dict() for r in self.detail_rows]
        return out


#: The merger sub-phases worth a detail row in flow-level profiles:
#: these sit two or more levels below the flow root (inside
#: ``topology.*`` -> ``dme.merge``), so the depth-1 aggregation alone
#: cannot regress them independently.
DME_DETAIL_SPANS = ("dme.init_best", "dme.merge_loop", "dme.embed")


class _PhaseAgg:
    """Accumulator behind one :class:`PhaseRow`."""

    __slots__ = ("count", "total_ns")

    def __init__(self):
        self.count = 0
        self.total_ns = 0

    def add(self, span: SpanRecord) -> None:
        self.count += 1
        self.total_ns += span.duration_ns

    def row(self, name: str, root_ns: int) -> PhaseRow:
        return PhaseRow(
            name=name,
            count=self.count,
            total_ns=self.total_ns,
            fraction=(self.total_ns / root_ns) if root_ns else 0.0,
        )


def phase_profile(
    spans: Sequence[SpanRecord],
    root_name: Optional[str] = None,
    detail_names: Sequence[str] = (),
) -> PhaseProfile:
    """Aggregate the direct children of root spans into phase totals.

    ``root_name`` restricts the roots considered (e.g. only
    ``flow.route_gated`` runs when a trace holds several flows); by
    default every parentless span is a root.  Phases are the distinct
    names among the roots' direct children, ordered by first start.

    ``detail_names`` additionally aggregates spans of the given names
    found at *any* depth under the roots (e.g. ``DME_DETAIL_SPANS``)
    into :attr:`PhaseProfile.detail_rows` -- they are nested inside
    phases already counted, so they join the report as indented detail
    rather than the coverage sum.
    """
    roots = [
        s
        for s in spans
        if s.parent_id is None and (root_name is None or s.name == root_name)
    ]
    root_ids = {s.span_id for s in roots}
    root_ns = sum(s.duration_ns for s in roots)
    totals: Dict[str, _PhaseAgg] = {}
    order: Dict[str, int] = {}
    for span in spans:
        if span.parent_id not in root_ids:
            continue
        totals.setdefault(span.name, _PhaseAgg()).add(span)
        order.setdefault(span.name, span.start_ns)
    covered = sum(agg.total_ns for agg in totals.values())
    rows = [
        totals[name].row(name, root_ns)
        for name in sorted(totals, key=lambda n: order[n])
    ]
    detail_rows: List[PhaseRow] = []
    if detail_names:
        wanted = set(detail_names)
        by_id = {s.span_id: s for s in spans}
        d_totals: Dict[str, _PhaseAgg] = {}
        d_order: Dict[str, int] = {}
        for span in spans:
            if span.name not in wanted:
                continue
            parent = span.parent_id
            while parent is not None and parent not in root_ids:
                parent = by_id[parent].parent_id if parent in by_id else None
            if parent not in root_ids:
                continue
            d_totals.setdefault(span.name, _PhaseAgg()).add(span)
            d_order.setdefault(span.name, span.start_ns)
        detail_rows = [
            d_totals[name].row(name, root_ns)
            for name in sorted(d_totals, key=lambda n: d_order[n])
        ]
    return PhaseProfile(
        rows=rows,
        root_ns=root_ns,
        covered_ns=covered,
        detail_rows=detail_rows,
    )

