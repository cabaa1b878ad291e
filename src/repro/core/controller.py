"""Enable-signal routing from the gate controller(s).

The paper assumes a centralized controller at the center of the chip;
every gate's enable is routed as a dedicated star edge (Fig. 1).
Section 6 sketches the extension this module also implements: divide
the die into ``k`` equal partitions, give each its own controller at
the partition center, and connect each gate to its partition's
controller -- the expected total star wirelength falls as
``G * D / (4 sqrt(k))``.

A gate physically sits at the *top* of its edge, i.e. at the placement
of the edge's parent node; that is where the enable wire terminates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.check.errors import ContractError
from repro.cts.topology import ClockNode, ClockTree, star_term
from repro.geometry.point import Point
from repro.obs import get_registry, get_tracer
from repro.quantity import AreaUm2, LengthUm, NodeId, Probability, SwitchedCap
from repro.tech.parameters import Technology


@dataclass(frozen=True)
class Die:
    """The chip outline (axis-aligned rectangle)."""

    x0: LengthUm
    y0: LengthUm
    x1: LengthUm
    y1: LengthUm

    def __post_init__(self):
        if self.x1 < self.x0 or self.y1 < self.y0:
            raise ContractError("die corners out of order")

    @property
    def width(self) -> LengthUm:
        return self.x1 - self.x0

    @property
    def height(self) -> LengthUm:
        return self.y1 - self.y0

    @property
    def center(self) -> Point:
        return Point((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)

    @staticmethod
    def bounding(points: Sequence[Point]) -> "Die":
        """Smallest die containing the given points."""
        if not points:
            raise ContractError("need at least one point")
        xs = [p.x for p in points]
        ys = [p.y for p in points]
        return Die(min(xs), min(ys), max(xs), max(ys))


def _grid_shape(k: int) -> Tuple[int, int]:
    """Split count k (a power of two) into a near-square grid."""
    if k < 1 or (k & (k - 1)) != 0:
        raise ContractError("number of controllers must be a power of two")
    j = k.bit_length() - 1
    nx = 1 << ((j + 1) // 2)
    ny = 1 << (j // 2)
    return nx, ny


@dataclass(frozen=True)
class ControllerLayout:
    """Locations of the gate controller(s) and their partitions."""

    die: Die
    points: Tuple[Point, ...]
    grid: Tuple[int, int]

    @property
    def count(self) -> int:
        return len(self.points)

    @staticmethod
    def centralized(die: Die) -> "ControllerLayout":
        """The paper's default: one controller at the chip center."""
        return ControllerLayout(die=die, points=(die.center,), grid=(1, 1))

    @staticmethod
    def distributed(die: Die, k: int) -> "ControllerLayout":
        """``k`` controllers at the centers of a grid of partitions."""
        nx, ny = _grid_shape(k)
        points = []
        for iy in range(ny):
            for ix in range(nx):
                points.append(
                    Point(
                        die.x0 + (ix + 0.5) * die.width / nx,
                        die.y0 + (iy + 0.5) * die.height / ny,
                    )
                )
        return ControllerLayout(die=die, points=tuple(points), grid=(nx, ny))

    def controller_for(self, p: Point) -> Tuple[int, Point]:
        """The partition controller owning point ``p``.

        Points outside the die are clamped onto it (gates can sit
        marginally outside the sink bounding box after embedding).
        """
        nx, ny = self.grid
        fx = 0.0 if self.die.width == 0 else (p.x - self.die.x0) / self.die.width
        fy = 0.0 if self.die.height == 0 else (p.y - self.die.y0) / self.die.height
        ix = min(max(int(fx * nx), 0), nx - 1)
        iy = min(max(int(fy * ny), 0), ny - 1)
        index = iy * nx + ix
        return index, self.points[index]


@dataclass(frozen=True)
class EnableRoute:
    """One star edge: controller -> gate enable pin."""

    node_id: NodeId
    controller_index: int
    length: LengthUm
    transition_probability: Probability


@dataclass(frozen=True)
class EnableRouting:
    """The routed controller tree S."""

    layout: ControllerLayout
    routes: Tuple[EnableRoute, ...]
    switched_cap: SwitchedCap
    wirelength: LengthUm
    explicit_assignment: bool = False
    """True when gates were routed to explicitly assigned controllers
    (refinement output) rather than their partition owners."""

    @property
    def gate_count(self) -> int:
        return len(self.routes)

    def wire_area(self, tech: Technology) -> AreaUm2:
        return tech.wire_area(self.wirelength)


def gate_location(tree: ClockTree, node: ClockNode) -> Point:
    """Physical location of the gate on the edge above ``node``.

    The gate sits immediately after the parent Steiner node, so its
    enable pin is at the parent's placement.
    """
    if node.parent is None:
        raise ContractError("the root has no edge, hence no gate")
    parent = tree.node(node.parent)
    if parent.location is None:
        raise ContractError("tree is not embedded yet")
    return parent.location


def route_enables(
    tree: ClockTree,
    layout: ControllerLayout,
    tech: Technology,
    assignment: Optional[Dict[int, int]] = None,
) -> EnableRouting:
    """Star-route every gate's enable; compute W(S).

    ``W(S)`` sums :func:`~repro.cts.topology.star_term`,
    ``(c |EN_i| + C_g) P_tr(EN_i)``, over the gated edges in id order,
    with ``C_g`` the AND gate's (enable) input capacitance.

    ``assignment`` maps gate node ids to controller indices and
    overrides the partition owner for those gates (refinement output);
    unlisted gates still route to their partition's controller.
    """
    with get_tracer().span("controller.star", controllers=layout.count) as span:
        routes: List[EnableRoute] = []
        switched = 0.0
        wirelength = 0.0
        edge_lengths = get_registry().histogram("controller.star_edge_length")
        for node in tree.gates():
            pin = gate_location(tree, node)
            index, ctrl = layout.controller_for(pin)
            if assignment is not None and node.id in assignment:
                index = assignment[node.id]
                if not 0 <= index < layout.count:
                    raise ContractError(
                        "gate %d assigned controller %d; layout has %d"
                        % (node.id, index, layout.count)
                    )
                ctrl = layout.points[index]
            length = pin.manhattan_to(ctrl)
            ptr = node.enable_transition_probability
            routes.append(
                EnableRoute(
                    node_id=node.id,
                    controller_index=index,
                    length=length,
                    transition_probability=ptr,
                )
            )
            switched += star_term(tech, length, ptr)
            wirelength += length
            edge_lengths.observe(length)
        span.set(gates=len(routes), wirelength=wirelength)
        return EnableRouting(
            layout=layout,
            routes=tuple(routes),
            switched_cap=switched,
            wirelength=wirelength,
            explicit_assignment=assignment is not None,
        )


def expected_star_wirelength(die_side: LengthUm, num_gates: int, k: int = 1) -> LengthUm:
    """Section 6's analytical star wirelength: ``G D / (4 sqrt(k))``.

    Assumes gates spread uniformly over a square die of side ``D``:
    the longest centralized star edge is ``D/2``, the average is taken
    as half of that, and partitioning into ``k`` parts scales the
    average edge by ``1/sqrt(k)``.
    """
    if die_side < 0 or num_gates < 0:
        raise ContractError("die side and gate count must be non-negative")
    if k < 1:
        raise ContractError("k must be positive")
    return num_gates * die_side / (4.0 * math.sqrt(k))
