"""The refiner's incremental screen equals the exact whole-network cost.

For every NNI swap and gate toggle the annealer proposes, the screen's
delta (Eq. 3 terms over the affected node set, after the root-path
zero-skew repair) must equal ``_exact_cost()`` after the move minus
before it, on the same not-yet-re-placed tree.  The root-path repair
must leave every node's bottom-up state exactly as a full bottom-up
pass would, and ``_undo`` must then restore the exact cost bit for
bit.  Trees evolve between checks: every fourth feasible move is kept
through the accept path, ``ClockTree.place()``, and every node's
bottom-up state and placement must then equal those of a whole-tree
``reembed`` of a copy, so placing the repaired tree is all an
accepted move needs.
"""

import pytest

from repro.bench.suite import load_benchmark
from repro.check.tolerance import relatively_close
from repro.core.controller import ControllerLayout
from repro.core.flow import route_gated
from repro.core.gate_reduction import GateReductionPolicy
from repro.cts import RefineConfig
from repro.cts.refine import AnnealingRefiner
from repro.cts.reembed import reembed
from repro.tech import date98_technology

MOVES = 240
SEEDS = (0, 1, 2)


def _bottom_up_state(tree):
    return [
        (
            n.edge_length,
            n.snaked,
            n.merging_segment,
            n.subtree_cap,
            n.sink_delay,
            n.sink_delay_min,
        )
        for n in tree.nodes()
    ]


def _embedded_state(tree):
    """The bottom-up state plus every node's placement."""
    return list(zip(_bottom_up_state(tree), (n.location for n in tree.nodes())))


def _reembedded(tree):
    """A copy of ``tree`` after a whole-tree re-embed."""
    copy = tree.clone()
    reembed(copy)
    return copy


@pytest.fixture(scope="module")
def tech():
    return date98_technology()


@pytest.fixture(scope="module")
def case():
    return load_benchmark("r1", scale=0.2)


@pytest.fixture(scope="module")
def trees(case, tech):
    reduction = GateReductionPolicy.from_knob(0.5, tech)
    return {
        "gated": route_gated(
            case.sinks, tech, case.oracle, die=case.die, candidate_limit=16
        ).tree,
        "merge-reduced": route_gated(
            case.sinks,
            tech,
            case.oracle,
            die=case.die,
            candidate_limit=16,
            reduction=reduction,
        ).tree,
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("controllers", (1, 4))
@pytest.mark.parametrize("kind", ("gated", "merge-reduced"))
def test_screen_delta_equals_exact_cost_change(trees, case, tech, kind, controllers, seed):
    layout = (
        ControllerLayout.centralized(case.die)
        if controllers == 1
        else ControllerLayout.distributed(case.die, controllers)
    )
    refiner = AnnealingRefiner(
        trees[kind], tech, case.oracle, layout, RefineConfig(moves=MOVES, seed=seed)
    )
    proposers = (refiner._propose_nni, refiner._propose_gate_toggle)
    checked = 0
    for k in range(MOVES):
        before = refiner._exact_cost()
        proposal = proposers[int(refiner.rng.integers(2))]()
        if proposal is None:
            continue
        delta, snapshot, assignment_undo, _kind = proposal
        exact = refiner._exact_cost() - before
        assert relatively_close(delta, exact), (k, delta, exact)
        full_pass = _reembedded(refiner.tree)
        assert _bottom_up_state(refiner.tree) == _bottom_up_state(full_pass), k
        checked += 1
        if k % 4 == 3:
            refiner.tree.place()
            assert _embedded_state(refiner.tree) == _embedded_state(full_pass), k
            continue
        refiner._undo(snapshot, assignment_undo)
        assert refiner._exact_cost() == before, k
    assert checked > MOVES // 2
