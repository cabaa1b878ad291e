"""Simulated-annealing refinement of a finished gated clock tree.

The paper's section-4.2 router is greedy and one-shot: every merge and
every gating decision is final the moment it is taken.  This module
adds a post-pass that perturbs the finished tree with three move
classes and keeps what lowers the total switched capacitance
``W(T) + W(S)`` (Eq. 3 evaluated over the whole network):

* **NNI subtree swap** -- a nearest-neighbour-interchange on the
  topology: swap one child of an internal node with its sibling's
  subtree.  Only the module set of the rotated node changes; every
  ancestor keeps its sink set, so the zero-skew repair is confined to
  the root path.
* **Gate insertion / removal** -- toggle the masking gate on one edge.
  Electrically the edge's cell changes (input-pin decoupling, intrinsic
  delay); probabilistically the edge either starts masking its region
  with its own ``P(EN)`` or falls back to inheriting the net above.
* **Controller reassignment** -- move one gate's enable route to a
  different controller.  Pure star-cost arithmetic; mainly repairs
  partition-ownership drift after re-placement moves gate pins.

Scoring is two-tier, cheapest first (the escalation pattern of the
routing surveys): a *screen* recomputes Eq. 3 terms only over the
affected node set -- the root path whose zero-skew splits the move
invalidates (repaired in place by :func:`~repro.cts.reembed.rebalance`,
the node step :func:`~repro.cts.reembed.reembed` loops over), plus the
unmasked regions whose effective enable probability the move flips.
The repair already leaves every node's bottom-up state exact, so an
*accepted* tree move only re-places what it changed --
:meth:`~repro.cts.topology.ClockTree.place` walks down the repaired
root path and into the subtrees whose placements moved, checking each
node it re-places -- and re-measures the cached per-node Eq. 3 terms
of the affected set plus the re-placed nodes.  Folding the cached
terms in the whole-network accounting's order gives the exact cost bit
for bit.  A keep-best snapshot
(``ClockTree.clone``) makes the pass monotone from the caller's
perspective: the returned tree is the best exactly-measured state ever
visited, never worse than the input.

Determinism: all randomness flows from one ``numpy`` generator seeded
by :attr:`RefineConfig.seed`; the cooling schedule is geometric in the
move index (never wall clock), so a fixed ``(tree, config)`` pair
refines byte-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.activity.probability import ActivityOracle
from repro.check.errors import InputError, ReproError
from repro.cts.dme import annotate_enable
from repro.cts.reembed import rebalance
from repro.cts.topology import ClockNode, ClockTree
from repro.obs import get_registry, get_tracer
from repro.tech.parameters import Technology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.controller import ControllerLayout

__all__ = ["RefineConfig", "RefineResult", "AnnealingRefiner", "refine_tree"]

#: Node fields a move (or its root-path repair) may touch; the
#: snapshot/restore cycle copies exactly these.  No proposal moves a
#: placement: only an accepted move re-places the tree.
_SNAPSHOT_FIELDS = (
    "children",
    "parent",
    "edge_length",
    "edge_cell",
    "edge_maskable",
    "snaked",
    "merging_segment",
    "module_mask",
    "enable_probability",
    "enable_transition_probability",
    "subtree_cap",
    "sink_delay",
)

#: Sentinel distinguishing "gate had no explicit assignment" from
#: "assigned to controller 0" in the per-move undo records.
_NO_ASSIGNMENT = -1

#: Starting temperature as a fraction of the input tree's cost.
_INITIAL_TEMPERATURE = 0.02

#: Final over initial temperature of the geometric schedule.
_COOLING_RATIO = 1e-3

#: Proposal mix (NNI swap, gate toggle, controller reassignment).
_WEIGHTS = (0.45, 0.35, 0.20)


class _Move(NamedTuple):
    """A proposed move, applied to the tree and scored by the screen."""

    delta: float
    """Screen cost change (exact for reassignments)."""
    kind: str
    """``"nni"``, ``"gate"`` or ``"reassign"``."""
    snapshot: Optional[Dict[int, tuple]]
    """Pre-move fields of the affected set; ``None`` for reassignments."""
    assignment_undo: Optional[Tuple[int, int]]
    """``(gate id, previous controller)`` when the assignment changed."""
    path: Tuple[int, ...] = ()
    """Root path the zero-skew repair re-merged (tree moves)."""


@dataclass(frozen=True)
class RefineConfig:
    """Annealing knobs; the defaults match the CLI's ``--refine``."""

    moves: int = 200
    """Move proposals to evaluate (the fixed budget)."""

    seed: int = 0
    """Seed of the ``numpy`` generator driving every random choice."""

    def __post_init__(self):
        if self.moves < 0:
            raise InputError("move budget must be non-negative", field="moves")
        if self.seed < 0:
            raise InputError("seed must be non-negative", field="seed")


@dataclass
class RefineResult:
    """What the annealer did and what it bought."""

    moves_proposed: int = 0
    moves_accepted: int = 0
    moves_rejected: int = 0
    moves_infeasible: int = 0
    nni_accepted: int = 0
    gate_accepted: int = 0
    reassign_accepted: int = 0
    reembeds: int = 0
    """Accepted tree moves, each re-placed and re-measured exactly."""
    initial_cost: float = 0.0
    final_cost: float = 0.0
    best_cost: float = 0.0

    @property
    def improvement(self) -> float:
        """Switched capacitance shaved off the greedy tree (>= 0)."""
        return self.initial_cost - self.best_cost

    @property
    def improvement_fraction(self) -> float:
        if self.initial_cost <= 0:
            return 0.0
        return self.improvement / self.initial_cost

    def summary(self) -> str:
        return (
            "refine: %d/%d moves accepted (%d nni, %d gate, %d reassign), "
            "W %.6g -> %.6g (-%.3g%%)"
            % (
                self.moves_accepted,
                self.moves_proposed,
                self.nni_accepted,
                self.gate_accepted,
                self.reassign_accepted,
                self.initial_cost,
                self.best_cost,
                100.0 * self.improvement_fraction,
            )
        )


class AnnealingRefiner:
    """One refinement run over one tree; see the module docstring."""

    def __init__(
        self,
        tree: ClockTree,
        tech: Technology,
        oracle: ActivityOracle,
        layout: ControllerLayout,
        config: RefineConfig,
    ):
        self._original = tree
        self.tree = tree.clone()
        self.tech = tech
        self.oracle = oracle
        self.layout = layout
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.result = RefineResult()
        #: Explicit controller assignment for gates the pass touched;
        #: gates not listed route to their partition owner.
        self.assignment: Dict[int, int] = {}
        self._best_tree: Optional[ClockTree] = None
        self._best_assignment: Optional[Dict[int, int]] = None
        # Move-target universes.  NNI and gate toggles never add or
        # remove nodes, so both id lists are stable across the run.
        root = tree.root_id
        self._internal_ids = [
            n.id for n in tree.internal_nodes() if n.id != root and n.parent is not None
        ]
        self._edge_ids = [n.id for n in tree.nodes() if n.id != root and n.parent is not None]
        #: Cached Eq. 3 terms of the current state: every node's W(T)
        #: term (by id) and every gate's star term (by gate id).
        self._tree_terms: List[float] = [0.0] * len(tree)
        self._star_terms: Dict[int, float] = {}
        self._refresh_terms([root] + self._edge_ids)

    # ------------------------------------------------------------------
    # Eq. 3 terms and the cached exact cost
    # ------------------------------------------------------------------
    def _tree_term(self, node: ClockNode) -> float:
        """``W(T)`` term of one node: the root's attached cap, or an
        edge's wire plus attached cap, at the effective enable."""
        a_clk = self.tech.clock_transitions_per_cycle
        eff = self._effective_probability(node)
        attached = self.tree.attached_cap(node.id)
        if node.id == self.tree.root_id:
            return eff * attached * a_clk
        wire = self.tech.unit_wire_capacitance * node.edge_length
        return a_clk * eff * (wire + attached)

    def _star_term(self, node: ClockNode) -> float:
        """``W(S)`` term of one gate; its pin is its parent's placement."""
        c = self.tech.unit_wire_capacitance
        gate_in = self.tech.masking_gate.input_cap
        pin = self.tree.node(node.parent).location
        index = self.assignment.get(node.id)
        if index is None:
            index, ctrl = self.layout.controller_for(pin)
        else:
            ctrl = self.layout.points[index]
        length = pin.manhattan_to(ctrl)
        return (c * length + gate_in) * node.enable_transition_probability

    def _star_cost(self) -> float:
        """Exact ``W(S)`` under the current placements and assignment."""
        return sum(self._star_term(node) for node in self.tree.gates())

    def _refresh_terms(self, ids: Iterable[int]) -> None:
        """Recompute the cached terms of the given nodes."""
        root = self.tree.root_id
        for nid in ids:
            node = self.tree.node(nid)
            self._tree_terms[nid] = self._tree_term(node)
            if nid != root and node.has_gate:
                self._star_terms[nid] = self._star_term(node)
            else:
                self._star_terms.pop(nid, None)

    def _cost(self) -> float:
        """Exact ``W(T) + W(S)`` folded from the cached terms.

        The fold follows ``clock_tree_switched_cap`` (root term, then
        ``+=`` over edges by node id) and :meth:`_star_cost` (``sum()``
        over gates by id), so it equals a whole-network re-measurement
        bit for bit.
        """
        terms = self._tree_terms
        total = terms[self.tree.root_id]
        for nid in self._edge_ids:
            total += terms[nid]
        stars = self._star_terms
        return total + sum(stars[nid] for nid in sorted(stars))

    def _commit(self, move: _Move) -> None:
        """Bring placements and cached terms up to date with an
        accepted move.

        A tree move re-places only what it changed -- the subtrees
        below its repaired root path whose placements moved -- and
        re-measures the affected set plus the re-placed nodes (a gate's
        star term follows its parent's placement).  A reassignment
        changes one gate's star term.
        """
        if move.snapshot is None:
            assert move.assignment_undo is not None
            self._refresh_terms((move.assignment_undo[0],))
            return
        replaced = self.tree.place(changed=set(move.path))
        self._refresh_terms(set(move.snapshot).union(replaced))

    # ------------------------------------------------------------------
    # incremental screen: affected sets and local Eq. 3 terms
    # ------------------------------------------------------------------
    def _effective_probability(self, node: ClockNode) -> float:
        """Eq. 3's effective enable: nearest maskable gate at/above."""
        while node.parent is not None:
            if node.has_gate:
                return node.enable_probability
            node = self.tree.node(node.parent)
        return 1.0

    def _region(self, nid: int) -> List[int]:
        """``nid`` plus descendants inheriting the net above it.

        The walk stops below gated edges: their subtrees see their own
        enable, so a probability change above cannot reach them.
        """
        out = [nid]
        stack = list(self.tree.node(nid).children)
        while stack:
            cid = stack.pop()
            child = self.tree.node(cid)
            out.append(cid)
            if not child.has_gate:
                stack.extend(child.children)
        return out

    def _path_ids(self, start: int) -> List[int]:
        """``start`` and its ancestors up to the root, bottom first."""
        return [start] + [node.id for node in self.tree.parent_chain(start)]

    def _affected(self, path: Iterable[int], regions: Iterable[int]) -> Set[int]:
        """Every node whose Eq. 3 term the move can change."""
        affected: Set[int] = set()
        for nid in path:
            affected.add(nid)
            affected.update(self.tree.node(nid).children)
        for nid in regions:
            affected.update(self._region(nid))
        return affected

    def _local_cost(self, ids: Set[int]) -> float:
        """Eq. 3 terms of the given nodes only (clock + star shares).

        Deltas of two evaluations over one id set are exact whenever
        the set covers everything the move changed -- placements
        excepted, which the accept path's re-placement settles.
        """
        root = self.tree.root_id
        total = 0.0
        for nid in sorted(ids):
            node = self.tree.node(nid)
            total += self._tree_term(node)
            if nid != root and node.has_gate:
                total += self._star_term(node)
        return total

    # ------------------------------------------------------------------
    # snapshot / restore and the zero-skew root-path repair
    # ------------------------------------------------------------------
    def _snapshot(self, ids: Set[int]) -> Dict[int, tuple]:
        return {
            nid: tuple(
                getattr(self.tree.node(nid), f) for f in _SNAPSHOT_FIELDS
            )
            for nid in ids
        }

    def _restore(self, snapshot: Dict[int, tuple]) -> None:
        for nid, values in snapshot.items():
            node = self.tree.node(nid)
            for field, value in zip(_SNAPSHOT_FIELDS, values):
                setattr(node, field, value)

    def _repair_upward(self, start: int) -> None:
        """Recompute zero-skew splits from ``start`` up to the root.

        :func:`repro.cts.reembed.rebalance` -- the bottom-up step of
        :func:`~repro.cts.reembed.reembed` -- along one root path: every
        node on it re-merges its children's *current* merging segments
        and presented caps, so the path's edge lengths, segments and
        delays are exact for the mutated topology -- every node's
        bottom-up state then equals a whole-tree
        :func:`~repro.cts.reembed.reembed`'s.  Placements are left stale:
        the screen does not need them, and an accepted move re-places
        the tree top-down.
        """
        for nid in self._path_ids(start):
            rebalance(self.tree, self.tree.node(nid))

    # ------------------------------------------------------------------
    # move proposals: each returns a _Move, or None if infeasible
    # ------------------------------------------------------------------
    def _propose_nni(self):
        """Swap a random child of a random internal node with its
        sibling's subtree."""
        if not self._internal_ids:
            return None
        pivot_id = self._internal_ids[
            int(self.rng.integers(len(self._internal_ids)))
        ]
        pivot = self.tree.node(pivot_id)
        if len(pivot.children) != 2 or pivot.parent is None:
            return None
        grand = self.tree.node(pivot.parent)
        if len(grand.children) != 2:
            return None
        sibling_id = (
            grand.children[1] if grand.children[0] == pivot_id else grand.children[0]
        )
        slot = int(self.rng.integers(2))
        moved_id = pivot.children[slot]
        kept_id = pivot.children[1 - slot]

        path = self._path_ids(pivot_id)
        affected = self._affected(path, (moved_id, kept_id, sibling_id))
        before = self._local_cost(affected)
        snapshot = self._snapshot(affected)

        # Swap: the sibling descends under the pivot, the moved child
        # ascends into the sibling's slot.
        new_pivot_children = list(pivot.children)
        new_pivot_children[slot] = sibling_id
        pivot.children = tuple(new_pivot_children)
        grand.children = tuple(
            moved_id if cid == sibling_id else cid for cid in grand.children
        )
        self.tree.node(sibling_id).parent = pivot_id
        self.tree.node(moved_id).parent = grand.id
        pivot.module_mask = (
            self.tree.node(sibling_id).module_mask
            | self.tree.node(kept_id).module_mask
        )
        annotate_enable(pivot, self.oracle)

        try:
            self._repair_upward(pivot_id)
        except ReproError:
            # Degenerate geometry on the path (cannot re-balance);
            # everything the swap and the partial repair touched is in
            # the snapshot, so restoring it voids the move exactly.
            self._restore(snapshot)
            return None
        delta = self._local_cost(affected) - before
        return _Move(delta, "nni", snapshot, None, tuple(path))

    def _propose_gate_toggle(self):
        """Insert a masking gate on a bare edge, or remove one."""
        edge_id = self._edge_ids[int(self.rng.integers(len(self._edge_ids)))]
        node = self.tree.node(edge_id)
        if node.edge_cell is not None and not node.edge_maskable:
            return None  # buffers (e.g. demoted gates) are off-limits
        assert node.parent is not None
        path = self._path_ids(node.parent)
        affected = self._affected(path, (edge_id,))
        before = self._local_cost(affected)
        snapshot = self._snapshot(affected)
        old_assignment = self.assignment.get(edge_id, _NO_ASSIGNMENT)

        if node.has_gate:
            node.edge_cell = None
            node.edge_maskable = False
            self.assignment.pop(edge_id, None)
        else:
            node.edge_cell = self.tech.masking_gate
            node.edge_maskable = True
            annotate_enable(node, self.oracle)

        try:
            self._repair_upward(node.parent)
        except ReproError:
            self._restore(snapshot)
            self._undo(None, (edge_id, old_assignment))
            return None
        delta = self._local_cost(affected) - before
        return _Move(delta, "gate", snapshot, (edge_id, old_assignment), tuple(path))

    def _propose_reassign(self):
        """Move one gate's enable route to a different controller.

        Exact by construction (no tree state changes), so acceptance
        only refreshes the gate's cached star term.
        """
        if self.layout.count < 2:
            return None
        gates = self.tree.gates()
        if not gates:
            return None
        node = gates[int(self.rng.integers(len(gates)))]
        pin = self.tree.node(node.parent).location
        current = self.assignment.get(node.id)
        if current is None:
            current, _ = self.layout.controller_for(pin)
        target = int(self.rng.integers(self.layout.count - 1))
        if target >= current:
            target += 1
        c = self.tech.unit_wire_capacitance
        old_len = pin.manhattan_to(self.layout.points[current])
        new_len = pin.manhattan_to(self.layout.points[target])
        delta = c * (new_len - old_len) * node.enable_transition_probability
        old_assignment = self.assignment.get(node.id, _NO_ASSIGNMENT)
        self.assignment[node.id] = target
        return _Move(delta, "reassign", None, (node.id, old_assignment))

    # ------------------------------------------------------------------
    # the annealing loop
    # ------------------------------------------------------------------
    def _undo(self, snapshot, assignment_undo) -> None:
        if snapshot is not None:
            self._restore(snapshot)
        if assignment_undo is not None:
            nid, old = assignment_undo
            if old == _NO_ASSIGNMENT:
                self.assignment.pop(nid, None)
            else:
                self.assignment[nid] = old

    def _temperature(self, move_index: int, initial_cost: float) -> float:
        t0 = _INITIAL_TEMPERATURE * max(initial_cost, 0.0)
        if t0 <= 0 or self.config.moves <= 1:
            return t0
        exponent = move_index / (self.config.moves - 1)
        return t0 * _COOLING_RATIO**exponent

    def _accept(self, delta: float, temperature: float) -> bool:
        if delta <= 0.0:
            return True
        if temperature <= 0.0:
            return False
        return float(self.rng.random()) < math.exp(-delta / temperature)

    def run(self) -> Tuple[ClockTree, Optional[Dict[int, int]], RefineResult]:
        """Anneal for the configured budget; return the best state.

        The returned tree is the input tree itself when no move beat
        it (and the assignment is ``None``: every gate keeps its
        partition owner) -- a zero budget is a byte-identical no-op.
        """
        config = self.config
        result = self.result
        if config.moves == 0 or len(self._edge_ids) == 0:
            result.initial_cost = result.final_cost = result.best_cost = self._cost()
            return self._original, None, result

        registry = get_registry()
        weights = np.asarray(_WEIGHTS, dtype=float)
        thresholds = np.cumsum(weights / weights.sum())
        proposers = (
            self._propose_nni,
            self._propose_gate_toggle,
            self._propose_reassign,
        )
        with get_tracer().span(
            "refine.anneal", n=len(self.tree), moves=config.moves, seed=config.seed
        ):
            current = self._cost()
            result.initial_cost = current
            best = current
            for k in range(config.moves):
                result.moves_proposed += 1
                pick = float(self.rng.random())
                proposer = proposers[int(np.searchsorted(thresholds, pick))]
                move = proposer()
                if move is None:
                    result.moves_infeasible += 1
                    continue
                if not self._accept(move.delta, self._temperature(k, result.initial_cost)):
                    self._undo(move.snapshot, move.assignment_undo)
                    result.moves_rejected += 1
                    continue
                result.moves_accepted += 1
                if move.kind == "nni":
                    result.nni_accepted += 1
                elif move.kind == "gate":
                    result.gate_accepted += 1
                else:
                    result.reassign_accepted += 1
                self._commit(move)
                if move.snapshot is not None:
                    # Tree moves escalate: the repair left the bottom-up
                    # state exact, so the commit re-placed what moved
                    # and the cached terms give the exact cost.
                    result.reembeds += 1
                    current = self._cost()
                else:
                    current += move.delta
                if current < best:
                    best = current
                    self._best_tree = self.tree.clone()
                    self._best_assignment = dict(self.assignment)
            result.final_cost = current
            result.best_cost = best if self._best_tree is not None else result.initial_cost
        registry.counter("refine.moves_proposed").inc(result.moves_proposed)
        registry.counter("refine.moves_accepted").inc(result.moves_accepted)
        registry.counter("refine.moves_rejected").inc(result.moves_rejected)
        registry.counter("refine.moves_infeasible").inc(result.moves_infeasible)
        # Accepted tree moves, each re-placed and re-measured.
        registry.counter("refine.reembeds").inc(result.reembeds)
        registry.gauge("refine.improvement").set(result.improvement)
        if self._best_tree is None:
            return self._original, None, result
        return self._best_tree, self._best_assignment, result


def refine_tree(
    tree: ClockTree,
    tech: Technology,
    oracle: ActivityOracle,
    layout: ControllerLayout,
    config: Optional[RefineConfig] = None,
) -> Tuple[ClockTree, Optional[Dict[int, int]], RefineResult]:
    """Refine a finished gated tree; never returns a worse one.

    Returns ``(best_tree, assignment, result)``.  ``assignment`` maps
    gate node ids to controller indices for the enable star routing
    (``route_enables``); it is ``None`` when
    the input tree was never beaten (including a zero move budget), in
    which case ``best_tree`` *is* the untouched input object.
    """
    return AnnealingRefiner(
        tree, tech, oracle, layout, config or RefineConfig()
    ).run()
