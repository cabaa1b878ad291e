"""Paper-style reporting and result analysis.

(Independent consistency checks over a routed network live in
:mod:`repro.check.auditor`.)

* :mod:`repro.analysis.report` -- the text tables the benchmark
  harness prints: Table 4, the Fig. 3 comparison, the Fig. 4/5 sweeps
  and the Fig. 6 distributed-controller study;
* :mod:`repro.analysis.gates` -- per-gate efficacy ledger (marginal
  saving vs enable star cost);
* :mod:`repro.analysis.ascii` -- terminal bar/line charts.
"""

from repro.analysis.ascii import bar_chart, line_chart
from repro.analysis.gates import GateEfficacy, efficacy_summary, gate_efficacy
from repro.analysis.report import ComparisonRow, format_comparison, format_table

__all__ = [
    "bar_chart",
    "line_chart",
    "GateEfficacy",
    "efficacy_summary",
    "gate_efficacy",
    "ComparisonRow",
    "format_comparison",
    "format_table",
]
