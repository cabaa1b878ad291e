"""Paper-style reporting and result analysis.

(Independent consistency checks over a routed network live in
:mod:`repro.check.auditor`.)

* :mod:`repro.analysis.report` -- the text tables the benchmark
  harness prints: Table 4, the Fig. 3 comparison, the Fig. 4/5 sweeps
  and the Fig. 6 distributed-controller study;
* :mod:`repro.analysis.gates` -- per-gate efficacy ledger (marginal
  saving vs enable star cost);
* :mod:`repro.analysis.wirelength` -- rectilinear-MST reference and
  wirelength quality ratios;
* :mod:`repro.analysis.study` -- spec-driven experiment campaigns;
* :mod:`repro.analysis.ascii` -- terminal bar/line charts.
"""

from repro.analysis.ascii import bar_chart, line_chart
from repro.analysis.gates import GateEfficacy, efficacy_summary, gate_efficacy
from repro.analysis.report import (
    ComparisonRow,
    format_comparison,
    format_table,
    method_comparison_rows,
)
from repro.analysis.study import MethodSpec, StudyResult, StudySpec, run_study
from repro.analysis.wirelength import (
    rectilinear_mst_length,
    wirelength_quality,
)

__all__ = [
    "bar_chart",
    "line_chart",
    "GateEfficacy",
    "efficacy_summary",
    "gate_efficacy",
    "ComparisonRow",
    "format_comparison",
    "format_table",
    "method_comparison_rows",
    "MethodSpec",
    "StudyResult",
    "StudySpec",
    "run_study",
    "rectilinear_mst_length",
    "wirelength_quality",
]
