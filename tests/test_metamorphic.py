"""Metamorphic checks: rigid transforms of the sink placement.

Switched capacitance depends only on Manhattan lengths, loads and
enable probabilities, so mirroring the placement about x = y or moving
it by a translation must not change W.  Mirroring and translation by
powers of two are exact in floating point, so W must be bit-identical;
a translation by arbitrary decimals rounds every coordinate and may
only perturb W within the shared tolerance policy.
"""

import dataclasses

import pytest

from repro.bench.suite import load_benchmark
from repro.check.tolerance import relatively_close
from repro.core.controller import Die
from repro.core.flow import route_gated
from repro.core.gate_reduction import GateReductionPolicy
from repro.geometry.point import Point
from repro.tech import date98_technology

TECH = date98_technology()
FLOWS = {
    "gate_every": None,
    "knob_0_5": GateReductionPolicy.from_knob(0.5, TECH),
}


@pytest.fixture(scope="module")
def case():
    return load_benchmark("r1", scale=0.2)


def switched_cap(case, flow, move=lambda p: p):
    sinks = [dataclasses.replace(s, location=move(s.location)) for s in case.sinks]
    result = route_gated(
        sinks,
        TECH,
        case.oracle,
        die=Die.bounding([s.location for s in sinks]),
        reduction=FLOWS[flow],
        candidate_limit=16,
    )
    return result.switched_cap


@pytest.mark.parametrize("flow", sorted(FLOWS))
def test_rigid_transforms_keep_switched_cap(case, flow):
    base = switched_cap(case, flow)
    assert switched_cap(case, flow, lambda p: Point(p.y, p.x)) == base
    assert switched_cap(case, flow, lambda p: Point(p.x + 1024, p.y + 2048)) == base
    shifted = switched_cap(case, flow, lambda p: Point(p.x + 1234.567, p.y + 89.01))
    assert relatively_close(shifted.total, base.total)
