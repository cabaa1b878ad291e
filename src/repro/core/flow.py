"""One-call routing flows with uniform result records.

Everything the paper's evaluation compares -- switched capacitance
split into clock/controller trees, routing and cell area, skew, phase
delay, wirelength, gate counts -- is collected into
:class:`ClockRoutingResult` so benches and examples can treat the
buffered baseline and the gated variants interchangeably.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.activity.probability import ActivityOracle
from repro.check.errors import InputError
from repro.check.validate import validate_sinks, validate_technology
from repro.core.controller import ControllerLayout, Die, EnableRouting, route_enables
from repro.core.gated_routing import build_gated_tree
from repro.core.gate_reduction import (
    GateReductionPolicy,
    apply_gate_reduction,
    reduction_fraction,
)
from repro.core.switched_cap import (
    SwitchedCapBreakdown,
    clock_tree_switched_cap,
    masking_efficiency,
)
from repro.cts.buffered import build_buffered_tree
from repro.cts.refine import RefineConfig, refine_tree
from repro.cts.topology import ClockTree, Sink
from repro.obs import get_registry, get_tracer, publish_oracle_cache
from repro.tech.parameters import Technology

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class AreaBreakdown:
    """Layout area in lambda^2, split the way Fig. 3 and Fig. 5 plot it."""

    clock_wire: float
    controller_wire: float
    cells: float

    @property
    def routing(self) -> float:
        """Wiring area only (clock + controller)."""
        return self.clock_wire + self.controller_wire

    @property
    def total(self) -> float:
        return self.clock_wire + self.controller_wire + self.cells


@dataclass(frozen=True)
class ClockRoutingResult:
    """Everything measured about one routed clock network."""

    method: str
    tree: ClockTree
    routing: Optional[EnableRouting]
    switched_cap: SwitchedCapBreakdown
    area: AreaBreakdown
    skew: float
    phase_delay: float
    wirelength: float
    gate_count: int
    cell_count: int
    num_sinks: int

    @property
    def gate_reduction(self) -> float:
        """Fraction of gate sites left empty (Fig. 5 x-axis)."""
        return reduction_fraction(self.gate_count, self.num_sinks)

    def pins(self) -> dict:
        """The exact result pins a :class:`~repro.obs.ledger.RunRecord`
        persists.

        Pins are the regression contract: the sentinel compares them
        byte-for-byte (through their canonical JSON encoding), so this
        dict must contain only values that are deterministic for a
        fixed (sinks, tech, workload, flags) configuration -- floats
        land unrounded.
        """
        return {
            "method": self.method,
            "num_sinks": self.num_sinks,
            "gate_count": self.gate_count,
            "cell_count": self.cell_count,
            "wirelength": self.wirelength,
            "switched_cap_total": self.switched_cap.total,
            "switched_cap_clock": self.switched_cap.clock_tree,
            "switched_cap_controller": self.switched_cap.controller_tree,
            "area_total": self.area.total,
            "skew": self.skew,
            "phase_delay": self.phase_delay,
        }

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            "%-10s  W=%.3f pF (clk %.3f + ctrl %.3f)  area=%.3fe6 l^2  "
            "gates=%d/%d  skew=%.2e"
            % (
                self.method,
                self.switched_cap.total,
                self.switched_cap.clock_tree,
                self.switched_cap.controller_tree,
                self.area.total / 1e6,
                self.gate_count,
                2 * self.num_sinks - 2,
                self.skew,
            )
        )


def _measure(
    method: str,
    tree: ClockTree,
    tech: Technology,
    routing: Optional[EnableRouting],
) -> ClockRoutingResult:
    with get_tracer().span("flow.measure", method=method):
        controller_cap = routing.switched_cap if routing is not None else 0.0
        controller_wire = routing.wirelength if routing is not None else 0.0
        switched = SwitchedCapBreakdown(
            clock_tree=clock_tree_switched_cap(tree, tech),
            controller_tree=controller_cap,
        )
        # One wirelength walk and one Elmore evaluation serve all the
        # derived fields (wire area, wirelength, skew, phase delay).
        wirelength = tree.total_wirelength()
        delays = [s.delay for s in tree.elmore_evaluator().sink_delays()]
        area = AreaBreakdown(
            clock_wire=tech.wire_area(wirelength),
            controller_wire=tech.wire_area(controller_wire),
            cells=tree.cell_area(),
        )
        return ClockRoutingResult(
            method=method,
            tree=tree,
            routing=routing,
            switched_cap=switched,
            area=area,
            skew=max(delays) - min(delays),
            phase_delay=max(delays),
            wirelength=wirelength,
            gate_count=tree.gate_count(),
            cell_count=tree.cell_count(),
            num_sinks=len(tree.sinks()),
        )


def _die_for(sinks: Sequence[Sink], die: Optional[Die]) -> Die:
    return die if die is not None else Die.bounding([s.location for s in sinks])


def _validate_inputs(sinks, tech, num_modules=None) -> None:
    """Strict entry gate: reject bad sinks/tech before any routing."""
    validate_sinks(sinks, num_modules=num_modules)
    validate_technology(tech, strict=True)


def _maybe_refine(
    tree: ClockTree,
    tech: Technology,
    oracle: ActivityOracle,
    layout: ControllerLayout,
    refine: Optional[RefineConfig],
) -> Tuple[ClockTree, Optional[Dict[int, int]]]:
    """Run the annealing post-pass when configured.

    Returns the (possibly improved) tree and the explicit controller
    assignment for :func:`route_enables` -- ``None`` when the greedy
    tree survived unbeaten, so un-refined runs stay byte-identical.
    """
    if refine is None or refine.moves == 0:
        return tree, None
    best, assignment, _stats = refine_tree(tree, tech, oracle, layout, refine)
    return best, assignment


def _maybe_audit(result: ClockRoutingResult, audit: bool):
    """Opt-in post-flow hook: re-verify every network invariant.

    Raises a typed :class:`~repro.check.errors.AuditError` naming the
    first offending node when the routed network fails verification.
    """
    if not audit:
        return result
    from repro.check.auditor import audit_network

    with get_tracer().span("flow.audit", method=result.method):
        report = audit_network(result.tree, routing=result.routing)
        report.raise_if_failed()
    return result


def route_buffered(
    sinks: Sequence[Sink],
    tech: Technology,
    die: Optional[Die] = None,
    candidate_limit: Optional[int] = None,
    audit: bool = False,
) -> ClockRoutingResult:
    """The paper's baseline: buffered nearest-neighbour zero-skew tree.

    ``audit=True`` re-verifies every network invariant after routing
    (see :func:`repro.check.auditor.audit_network`) and raises a typed
    error on the first violation.
    """
    _validate_inputs(sinks, tech)
    tracer = get_tracer()
    with tracer.span("flow.route_buffered", n=len(sinks)):
        # build_buffered_tree opens its own "topology.buffered" span.
        tree = build_buffered_tree(sinks, tech, candidate_limit=candidate_limit)
        result = _measure("buffered", tree, tech, routing=None)
        return _maybe_audit(result, audit)


def _finish_gated(
    method: str,
    tree: ClockTree,
    tech: Technology,
    oracle: ActivityOracle,
    die: Die,
    demote: Optional[GateReductionPolicy],
    num_controllers: int,
    refine: Optional[RefineConfig],
    audit: bool,
) -> ClockRoutingResult:
    """Everything both gated flows do once their tree is built.

    The demote-mode policy (see :func:`_reduction_rule`) prunes the
    finished tree; then come the optional refine pass, the enable
    star, the measurement and the optional audit.
    """
    layout = (
        ControllerLayout.centralized(die)
        if num_controllers == 1
        else ControllerLayout.distributed(die, num_controllers)
    )
    if demote is not None:
        # apply_gate_reduction opens its own "gating.reduce" span.
        apply_gate_reduction(tree, demote)
    # refine_tree opens its own "refine.anneal" span.
    tree, assignment = _maybe_refine(tree, tech, oracle, layout, refine)
    # route_enables opens its own "controller.star" span.
    routing = route_enables(tree, layout, tech, assignment=assignment)
    result = _measure(method, tree, tech, routing=routing)
    publish_oracle_cache(oracle)
    return _maybe_audit(result, audit)


def _reduction_rule(
    reduction: Optional[GateReductionPolicy], reduction_mode: str
) -> Tuple[Optional[GateReductionPolicy], Optional[GateReductionPolicy]]:
    """Where both gated flows apply ``reduction``: ``(merge, demote)``.

    Merge mode hands the policy to the tree builder as its cell
    policy; demote mode prunes the built tree with it.
    """
    if reduction_mode not in ("merge", "demote"):
        raise InputError(
            "reduction_mode must be 'merge' or 'demote'", field="reduction_mode"
        )
    if reduction_mode == "merge":
        return reduction, None
    return None, reduction


def route_gated(
    sinks: Sequence[Sink],
    tech: Technology,
    oracle: ActivityOracle,
    die: Optional[Die] = None,
    reduction: Optional[GateReductionPolicy] = None,
    reduction_mode: str = "merge",
    num_controllers: int = 1,
    candidate_limit: Optional[int] = None,
    gate_sizing=None,
    audit: bool = False,
    refine: Optional[RefineConfig] = None,
) -> ClockRoutingResult:
    """The paper's gated router, with or without gate reduction.

    ``reduction`` selects the section-4.3 policy (``None`` = gate on
    every edge).  ``reduction_mode`` picks how it is applied:
    ``"merge"`` (default, the paper's best flow) decides gates during
    bottom-up merging, so the topology co-optimizes with the gate
    count; ``"demote"`` builds the fully gated tree first and prunes
    it afterwards -- see :mod:`repro.core.gate_reduction`.
    ``num_controllers`` > 1 activates the distributed controllers of
    section 6.  ``refine`` runs the annealing post-pass
    (:mod:`repro.cts.refine`) over the finished tree; the measured
    result is never worse than the greedy tree's.
    """
    policy, demote = _reduction_rule(reduction, reduction_mode)
    _validate_inputs(sinks, tech, num_modules=oracle.isa.num_modules)
    die = _die_for(sinks, die)
    tracer = get_tracer()
    with tracer.span(
        "flow.route_gated",
        n=len(sinks),
        reduction_mode=reduction_mode,
        controllers=num_controllers,
    ):
        # build_gated_tree opens its own "topology.gated" span.
        tree = build_gated_tree(
            sinks,
            tech,
            oracle,
            controller_point=die.center,
            cell_policy=policy,
            candidate_limit=candidate_limit,
            gate_sizing=gate_sizing,
        )
        method = "gated" if reduction is None else "gate-red"
        return _finish_gated(
            method, tree, tech, oracle, die, demote, num_controllers,
            refine, audit,
        )


def route_sharded(
    sinks: Sequence[Sink],
    tech: Technology,
    oracle: ActivityOracle,
    die: Optional[Die] = None,
    num_shards: int = 4,
    num_workers: int = 1,
    reduction: Optional[GateReductionPolicy] = None,
    reduction_mode: str = "merge",
    num_controllers: int = 1,
    candidate_limit: Optional[int] = None,
    audit: bool = False,
    refine: Optional[RefineConfig] = None,
) -> ClockRoutingResult:
    """Partition -> per-shard gated DME -> exact zero-skew stitch.

    The scale-out variant of :func:`route_gated`: the sink set is cut
    into ``num_shards`` spatial shards, each shard's gated subtree is
    routed independently (inline, or across ``num_workers`` processes
    when > 1), and the shard roots are merged by the exact zero-skew
    top-tree stitch (:mod:`repro.cts.sharded`).  ``num_shards=1``
    reproduces :func:`route_gated`'s tree byte-for-byte.

    ``num_shards`` above the sink count is clamped (with a warning)
    rather than rejected: the flow caller asked for "as parallel as
    possible", and one-sink shards are that.  Direct users of
    :func:`repro.cts.sharded.partition_sinks` still get the strict
    ``InputError``.

    ``reduction`` and ``reduction_mode`` follow :func:`route_gated`:
    in ``"merge"`` mode (default) the shard routers and the stitch
    decide gates as they merge; ``"demote"`` prunes the stitched tree.
    ``refine`` anneals the stitched (post-reduction) tree, exactly as
    in :func:`route_gated`.
    """
    from repro.cts.sharded import partition_sinks, route_shards, stitch_shards

    policy, demote = _reduction_rule(reduction, reduction_mode)
    _validate_inputs(sinks, tech, num_modules=oracle.isa.num_modules)
    if num_shards > len(sinks):
        logger.warning(
            "clamping num_shards from %d to the sink count %d",
            num_shards,
            len(sinks),
        )
        num_shards = len(sinks)
    die = _die_for(sinks, die)
    tracer = get_tracer()
    registry = get_registry()
    with tracer.span(
        "flow.route_sharded",
        n=len(sinks),
        shards=num_shards,
        workers=num_workers,
    ):
        with tracer.span("shard.partition", n=len(sinks), shards=num_shards):
            plan = partition_sinks(sinks, num_shards)
        registry.counter("shard.count").inc(plan.num_shards)
        registry.gauge("shard.workers").set(num_workers)
        for members in plan.shards:
            registry.histogram("shard.sinks").observe(len(members))
        with tracer.span("shard.route", shards=plan.num_shards, workers=num_workers):
            shards = route_shards(
                sinks,
                plan,
                tech,
                oracle,
                controller_point=die.center,
                num_workers=num_workers,
                cell_policy=policy,
                candidate_limit=candidate_limit,
            )
        for shard in shards:
            registry.histogram("shard.route_seconds").observe(shard.seconds)
        with tracer.span("shard.stitch", shards=plan.num_shards):
            tree = stitch_shards(shards, plan, tech, oracle, cell_policy=policy)
        return _finish_gated(
            "sharded", tree, tech, oracle, die, demote, num_controllers,
            refine, audit,
        )


def gated_vs_ungated_floor(result: ClockRoutingResult, tech: Technology) -> float:
    """Fig. 4's floor: gated W(T) as a fraction of the ungated W(T)."""
    return masking_efficiency(result.tree, tech)
