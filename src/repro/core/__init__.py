"""The paper's contribution: gated zero-skew clock routing.

Built on the substrates (:mod:`repro.geometry`, :mod:`repro.rc`,
:mod:`repro.activity`, :mod:`repro.cts`), this package provides:

* :mod:`repro.core.cost` -- the minimum-switched-capacitance pair cost
  (paper Eq. 3) that drives the greedy merge order;
* :mod:`repro.core.gate_reduction` -- the three gate-removal rules of
  section 4.3 plus the forced-insertion override, with a scalar knob
  for the Fig. 5 sweep;
* :mod:`repro.core.controller` -- star routing of the enable signals
  from a centralized controller (or the distributed controllers of
  section 6);
* :mod:`repro.core.switched_cap` -- the final W(T) accounting over a
  finished tree, including enable inheritance across ungated edges
  (each node's term is :meth:`repro.cts.topology.ClockTree.clock_term`;
  W(S) folds :func:`repro.cts.topology.star_term` in
  :mod:`repro.core.controller`);
* :mod:`repro.core.gated_routing` -- ``build_gated_tree``: the
  GatedClockRouting procedure of section 4.2;
* :mod:`repro.core.flow` -- one-call flows producing comparable result
  records for the buffered baseline and the gated routers.
"""

from repro.core.cost import switched_capacitance_cost
from repro.core.gate_reduction import GateReductionPolicy
from repro.core.controller import ControllerLayout, EnableRouting, route_enables
from repro.core.switched_cap import (
    SwitchedCapBreakdown,
    clock_tree_switched_cap,
    effective_enable_probabilities,
)
from repro.core.gated_routing import build_gated_tree
from repro.core.flow import AreaBreakdown, ClockRoutingResult, route_buffered, route_gated

__all__ = [
    "switched_capacitance_cost",
    "GateReductionPolicy",
    "ControllerLayout",
    "EnableRouting",
    "route_enables",
    "SwitchedCapBreakdown",
    "clock_tree_switched_cap",
    "effective_enable_probabilities",
    "build_gated_tree",
    "AreaBreakdown",
    "ClockRoutingResult",
    "route_buffered",
    "route_gated",
]
