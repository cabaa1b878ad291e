"""The refiner's incremental screen and accept path equal exact ones.

For every NNI swap and gate toggle the annealer proposes, the screen's
delta (Eq. 3 terms over the affected node set, after the root-path
zero-skew repair) must equal the exact whole-network cost after the
move minus before it, on the same not-yet-re-placed tree.  The
root-path repair must leave every node's bottom-up state exactly as a
full bottom-up pass would, and ``_undo`` must then restore the exact
cost bit for bit.  Trees evolve between checks: every fourth feasible
move is kept through the accept path (``_commit``: a
``ClockTree.place(changed=...)`` of what the move changed, then a
refresh of the cached Eq. 3 terms), and every node's bottom-up state
and placement must then equal those of a whole-tree ``reembed`` of a
copy, and the cached cost the exact cost, bit for bit.

A ``run()``-level check does the same for every move the annealer
accepts -- reassignments included -- against a full ``place()`` of a
clone, on distributed-controller, demote-mode and sharded trees.
"""

import pytest

from repro.bench.suite import load_benchmark
from repro.check.tolerance import relatively_close
from repro.core.controller import ControllerLayout
from repro.core.flow import route_gated, route_sharded
from repro.core.gate_reduction import GateReductionPolicy
from repro.core.switched_cap import clock_tree_switched_cap
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
        )
        for n in tree.nodes()
    ]


def _embedded_state(tree):
    """The bottom-up state plus every node's placement."""
    return list(zip(_bottom_up_state(tree), (n.location for n in tree.nodes())))


def _exact_cost(refiner):
    """Whole-network ``W(T) + W(S)`` of the refiner's current state."""
    return clock_tree_switched_cap(refiner.tree, refiner.tech) + refiner._star_cost()


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
    assert refiner._cost() == _exact_cost(refiner)
    for k in range(MOVES):
        before = _exact_cost(refiner)
        move = proposers[int(refiner.rng.integers(2))]()
        if move is None:
            continue
        exact = _exact_cost(refiner) - before
        assert relatively_close(move.delta, exact), (k, move.delta, exact)
        full_pass = _reembedded(refiner.tree)
        assert _bottom_up_state(refiner.tree) == _bottom_up_state(full_pass), k
        checked += 1
        if k % 4 == 3:
            refiner._commit(move)
            assert _embedded_state(refiner.tree) == _embedded_state(full_pass), k
            assert refiner._cost() == _exact_cost(refiner), k
            continue
        refiner._undo(move.snapshot, move.assignment_undo)
        assert _exact_cost(refiner) == before, k
    assert checked > MOVES // 2


class _CheckedRefiner(AnnealingRefiner):
    """Checks every accepted move's commit against exact recomputation."""

    def __init__(self, *args):
        super().__init__(*args)
        self.commits = {"nni": 0, "gate": 0, "reassign": 0}

    def _commit(self, move):
        super()._commit(move)
        full = self.tree.clone()
        full.place()
        assert _embedded_state(self.tree) == _embedded_state(full), move.kind
        assert self._cost() == _exact_cost(self), move.kind
        self.commits[move.kind] += 1


@pytest.mark.parametrize(
    "flow,controllers",
    (("merge-reduced", 4), ("demote", 1), ("sharded", 1), ("sharded-demote", 4)),
)
def test_every_accepted_move_commits_exactly(case, tech, flow, controllers):
    reduction = GateReductionPolicy.from_knob(0.5, tech)
    mode = "demote" if flow.endswith("demote") else "merge"
    route = route_sharded if flow.startswith("sharded") else route_gated
    tree = route(
        case.sinks,
        tech,
        case.oracle,
        die=case.die,
        candidate_limit=16,
        reduction=reduction,
        reduction_mode=mode,
    ).tree
    layout = (
        ControllerLayout.centralized(case.die)
        if controllers == 1
        else ControllerLayout.distributed(case.die, controllers)
    )
    refiner = _CheckedRefiner(
        tree, tech, case.oracle, layout, RefineConfig(moves=300, seed=0)
    )
    _best, _assignment, result = refiner.run()
    assert refiner.commits["nni"] + refiner.commits["gate"] == result.reembeds > 0
    assert refiner.commits["reassign"] == result.reassign_accepted
    if controllers > 1:
        assert result.reassign_accepted > 0
