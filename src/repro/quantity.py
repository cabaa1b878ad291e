"""Quantity vocabulary: unit-labelled aliases for physical kinds.

Every scalar the routing flow computes is a *quantity* of one physical
kind -- a wirelength, a capacitance, an enable probability, a switched
capacitance per cycle.  The aliases below name that kind (and its
unit) in signatures and dataclass fields.  They are plain ``float`` /
``int`` aliases: nothing checks them, they document.  The tests that
pin routed trees and switched capacitance (golden values, merge-trace
and tree digests) are what catch a unit mix-up.

Unit conventions follow :mod:`repro.tech.parameters`: lengths are in
layout units (lambda), capacitances in pF, resistances in ohm and
delays in ohm*pF Elmore products.
"""

__all__ = [
    "AreaUm2",
    "CapPerLength",
    "CapacitanceFF",
    "Count",
    "DelayPs",
    "Dimensionless",
    "LengthUm",
    "NodeId",
    "Probability",
    "ResPerLength",
    "ResistanceOhm",
    "SwitchedCap",
]


#: Manhattan wirelength / coordinate, layout units (lambda).
LengthUm = float

#: Layout area, lambda^2.
AreaUm2 = float

#: Lumped capacitance, pF.
CapacitanceFF = float

#: Wire capacitance per unit length, pF / lambda.
CapPerLength = float

#: Lumped resistance, ohm.
ResistanceOhm = float

#: Wire resistance per unit length, ohm / lambda.
ResPerLength = float

#: Elmore delay, ohm * pF products.
DelayPs = float

#: A probability in [0, 1] (signal / transition / enable activity).
Probability = float

#: Switched capacitance per clock cycle: probability-weighted pF.
SwitchedCap = float

#: Index of a node in a :class:`~repro.cts.topology.ClockTree`.
NodeId = int

#: A cardinality (numbers of sinks, gates, iterations, ...).
Count = int

#: A declared pure number (ratios, activity factors, weights).
Dimensionless = float
