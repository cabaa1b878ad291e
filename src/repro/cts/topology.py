"""Sinks, nodes, and the embedded clock tree.

The topology is full binary (paper section 2): every internal node has
exactly two children; with ``N`` sinks there are ``N - 1`` internal
nodes.  Following the paper we identify every non-root node ``v_i``
with the edge ``e_i`` that connects it to its parent, so per-edge data
(electrical length, decoupling cell, enable probabilities) lives on the
child node.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Collection, Dict, Iterator, List, Optional, Tuple

from repro.check.errors import EmbeddingAuditError, InputError
from repro.check.errors import ContractError
from repro.geometry.point import Point
from repro.geometry.trr import Trr
from repro.quantity import AreaUm2, CapacitanceFF, DelayPs, LengthUm, NodeId, Probability
from repro.rc.elmore import EdgeElectrical, ElmoreEvaluator
from repro.tech.parameters import GateModel, Technology


@dataclass(frozen=True)
class Sink:
    """A clock sink: the clock pin of one module."""

    name: str
    location: Point
    load_cap: CapacitanceFF
    module: int
    """Index of the module this sink clocks, for activity lookup."""

    def __post_init__(self):
        for field, value in (("x", self.location.x), ("y", self.location.y)):
            if not math.isfinite(value):
                raise InputError(
                    "sink %r: coordinate %s is %r; coordinates must be finite"
                    % (self.name, field, value),
                    field=field,
                )
        if not math.isfinite(self.load_cap) or self.load_cap < 0:
            raise InputError(
                "sink %r: load capacitance must be finite and non-negative, got %r"
                % (self.name, self.load_cap),
                field="load_cap",
            )
        if self.module < 0:
            raise InputError(
                "sink %r: module index must be non-negative, got %r"
                % (self.name, self.module),
                field="module",
            )


@dataclass
class ClockNode:
    """One node of the clock tree, plus the edge above it.

    ``edge_length`` is the *electrical* wirelength of the edge to the
    parent, which may exceed the Manhattan distance of the endpoint
    placements when the router snaked the wire to balance skew.
    """

    id: NodeId
    children: Tuple[int, ...]
    sink: Optional[Sink]
    merging_segment: Trr
    parent: Optional[NodeId] = None
    edge_length: LengthUm = 0.0
    edge_cell: Optional[GateModel] = None
    edge_maskable: bool = False
    """True when ``edge_cell`` is a masking gate driven by an enable."""
    location: Optional[Point] = None
    module_mask: int = 0
    enable_probability: Probability = 1.0
    enable_transition_probability: Probability = 0.0
    subtree_cap: CapacitanceFF = 0.0
    """Capacitance presented at this node from below (router-computed)."""
    sink_delay: DelayPs = 0.0
    """Delay from this node down to its sinks (router-computed; under
    exact zero skew every sink shares this value)."""
    snaked: bool = False

    @property
    def is_sink(self) -> bool:
        return self.sink is not None

    @property
    def has_gate(self) -> bool:
        return self.edge_cell is not None and self.edge_maskable


class ClockTree:
    """An embedded clock tree: topology + geometry + electrical data."""

    def __init__(self, tech: Technology):
        self._tech = tech
        self._nodes: List[ClockNode] = []
        self._root: Optional[int] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_leaf(self, sink: Sink) -> ClockNode:
        """Append a leaf node for a sink; returns the new node."""
        node = ClockNode(
            id=len(self._nodes),
            children=(),
            sink=sink,
            merging_segment=Trr.from_point(sink.location),
            module_mask=1 << sink.module,
            subtree_cap=sink.load_cap,
        )
        self._nodes.append(node)
        return node

    def add_internal(self, left: int, right: int, merging_segment: Trr) -> ClockNode:
        """Append an internal node merging two existing roots."""
        for child in (left, right):
            if self._nodes[child].parent is not None:
                raise ContractError("node %d already has a parent" % child)
        node = ClockNode(
            id=len(self._nodes),
            children=(left, right),
            sink=None,
            merging_segment=merging_segment,
        )
        self._nodes.append(node)
        self._nodes[left].parent = node.id
        self._nodes[right].parent = node.id
        return node

    def set_root(self, node_id: int) -> None:
        if self._nodes[node_id].parent is not None:
            raise ContractError("root must not have a parent")
        self._root = node_id

    def graft(self, other: "ClockTree") -> NodeId:
        """Append a copy of ``other`` (in id order); returns its new root id.

        Ids are assigned in construction order (children before
        parents), so copying in id order keeps the *relative* id order
        -- and with it every id-ordered summation -- and every field
        verbatim.  The grafted root is left parentless for a merge.
        """
        offset = len(self._nodes)
        for node in other._nodes:
            copied = copy.copy(node)
            copied.id += offset
            copied.children = tuple(c + offset for c in node.children)
            if node.parent is not None:
                copied.parent = node.parent + offset
            self._nodes.append(copied)
        return other.root_id + offset

    def clone(self) -> "ClockTree":
        """Deep-enough copy: independent nodes, shared immutable leaves.

        Node dataclasses are copied shallowly -- their fields are either
        scalars or frozen value objects (``Sink``, ``Trr``, ``Point``,
        ``GateModel``), so mutating a clone never aliases back into the
        original.  Used by the refinement pass for keep-best snapshots.
        """
        other = ClockTree(self._tech)
        other._nodes = [copy.copy(n) for n in self._nodes]
        other._root = self._root
        return other

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def tech(self) -> Technology:
        return self._tech

    @property
    def root_id(self) -> int:
        if self._root is None:
            raise ContractError("tree has no root yet")
        return self._root

    @property
    def root(self) -> ClockNode:
        return self._nodes[self.root_id]

    def node(self, node_id: int) -> ClockNode:
        return self._nodes[node_id]

    def __len__(self) -> int:
        return len(self._nodes)

    def nodes(self) -> Iterator[ClockNode]:
        return iter(self._nodes)

    def sinks(self) -> List[ClockNode]:
        return [n for n in self._nodes if n.is_sink]

    def internal_nodes(self) -> List[ClockNode]:
        return [n for n in self._nodes if not n.is_sink]

    def edges(self) -> Iterator[ClockNode]:
        """Every node that has an edge above it (all but the root)."""
        root = self.root_id
        return (n for n in self._nodes if n.id != root and n.parent is not None)

    def gates(self) -> List[ClockNode]:
        """Nodes whose edge carries a masking gate."""
        return [n for n in self.edges() if n.has_gate]

    def preorder(self) -> Iterator[ClockNode]:
        """Root-first traversal."""
        stack = [self.root_id]
        while stack:
            node = self._nodes[stack.pop()]
            yield node
            stack.extend(node.children)

    def postorder(self) -> List[ClockNode]:
        """Children-first traversal: :meth:`preorder`, reversed."""
        order = list(self.preorder())
        order.reverse()
        return order

    def parent_chain(self, node_id: int) -> Iterator[ClockNode]:
        """Ancestors of a node, nearest first (excluding the node)."""
        parent = self._nodes[node_id].parent
        while parent is not None:
            node = self._nodes[parent]
            yield node
            parent = node.parent

    def depth(self, node_id: int) -> int:
        return sum(1 for _ in self.parent_chain(node_id))

    # ------------------------------------------------------------------
    # aggregate metrics
    # ------------------------------------------------------------------
    def attached_cap(self, node_id: NodeId) -> CapacitanceFF:
        """Capacitance hanging directly at a node: sink load + child cell pins."""
        node = self._nodes[node_id]
        if node.is_sink:
            return node.sink.load_cap
        total = 0.0
        for child_id in node.children:
            cell = self._nodes[child_id].edge_cell
            if cell is not None:
                total += cell.input_cap
        return total

    def total_wirelength(self) -> LengthUm:
        """Electrical wirelength of the clock tree (snaking included)."""
        root = self.root_id
        return sum(n.edge_length for n in self._nodes if n.id != root)

    def gate_count(self) -> int:
        return sum(1 for n in self._nodes if n.has_gate)

    def cell_count(self) -> int:
        root = self.root_id
        return sum(1 for n in self._nodes if n.id != root and n.edge_cell is not None)

    def cell_area(self) -> AreaUm2:
        root = self.root_id
        return sum(
            n.edge_cell.area
            for n in self._nodes
            if n.id != root and n.edge_cell is not None
        )

    # ------------------------------------------------------------------
    # auditing
    # ------------------------------------------------------------------
    def elmore_evaluator(self) -> ElmoreEvaluator:
        """Ground-truth Elmore evaluator over the embedded tree."""
        root = self.root_id
        edges = []
        children: Dict[int, List[int]] = {}
        for n in self._nodes:
            if n.parent is None and n.id != root:
                continue  # detached node (should not happen post-build)
            edges.append(
                EdgeElectrical(
                    node=n.id,
                    parent=-1 if n.id == root else n.parent,
                    length=0.0 if n.id == root else n.edge_length,
                    cell=None if n.id == root else n.edge_cell,
                    node_cap=n.sink.load_cap if n.is_sink else 0.0,
                )
            )
            children[n.id] = list(n.children)
        return ElmoreEvaluator(edges=edges, children=children, tech=self._tech)

    def skew(self) -> DelayPs:
        """Recomputed (non-incremental) Elmore skew of the tree."""
        return self.elmore_evaluator().skew()

    def phase_delay(self) -> DelayPs:
        """Recomputed root-to-sink Elmore delay."""
        return self.elmore_evaluator().max_delay()

    def place(self, changed: Optional[Collection[NodeId]] = None) -> List[NodeId]:
        """Top-down embedding of the merging segments, validated as it goes.

        The root sits at the center of its segment, every other node at
        the point of its own segment nearest its parent's placement.
        The walk re-places the root, then the children of every node it
        descends into: the root, any node in ``changed``, and any node
        whose placement moved (``None`` descends everywhere, re-placing
        the whole tree).  Each re-placed node passes the checks of
        :meth:`validate_embedding` the moment it is placed; a node the
        walk skips keeps its location, segment, edge length and parent
        location from its last passing check, so ``changed`` must hold
        the parent of every node whose segment, edge length or parent
        changed since the last placement.

        Returns the ids of the re-placed nodes, in walk order.
        """
        root_id = self.root_id
        replaced: List[NodeId] = []
        stack = [root_id]
        while stack:
            node = self._nodes[stack.pop()]
            if node.id == root_id:
                location = node.merging_segment.center()
            else:
                parent = self._nodes[node.parent]
                location = node.merging_segment.nearest_point_to(parent.location)
            descend = (
                changed is None
                or node.id == root_id
                or location != node.location
                or node.id in changed
            )
            node.location = location
            self._check_placement(node)
            replaced.append(node.id)
            if descend:
                stack.extend(node.children)
        return replaced

    def validate_embedding(self, tol: float = 1e-6) -> None:
        """Check placement consistency.

        Raises :class:`~repro.check.errors.EmbeddingAuditError` (a
        ``ValueError`` for backward compatibility) naming the offending
        node when

        * a node is unplaced or lies off its merging segment, or
        * an edge's electrical length fails to cover the Manhattan
          distance between its endpoint placements (snaking only adds
          length).

        :func:`repro.check.auditor.audit_network` performs the same
        checks (plus parent-region containment) non-fatally, collecting
        findings instead of raising on the first.
        """
        for node in self.preorder():
            self._check_placement(node, tol)

    def _check_placement(self, node: ClockNode, tol: float = 1e-6) -> None:
        """:meth:`validate_embedding`'s checks on one node."""
        if node.location is None:
            raise EmbeddingAuditError("node %d is not placed" % node.id, node=node.id)
        if not node.merging_segment.contains_point(node.location, tol=tol):
            raise EmbeddingAuditError(
                "node %d placed off its merging segment" % node.id,
                node=node.id,
            )
        if node.id != self._root:
            parent = self._nodes[node.parent]
            dist = node.location.manhattan_to(parent.location)
            if node.edge_length < dist - tol:
                raise EmbeddingAuditError(
                    "edge above node %d shorter than its endpoints' distance"
                    % node.id,
                    node=node.id,
                )
