"""Full-network invariant auditor.

Independent rechecks of the whole routed network: clock tree,
embedding geometry, enable hierarchy, and the controller star.  The
routers maintain capacitance and delay bookkeeping incrementally; the
auditor recomputes it from scratch, so a bookkeeping regression cannot
hide behind a matching incremental value.  Every violation is reported
as a structured :class:`AuditFinding` naming the offending node, and
the report can re-raise the findings as the typed audit errors of
:mod:`repro.check.errors`.

Invariants checked (all recomputed from scratch -- never trusting the
router's incremental bookkeeping):

``skew``
    Recomputed Elmore skew within the declared bound; the router's
    root delay interval brackets the recomputed arrivals.
``cap``
    Per-node downstream capacitance matches an independent Elmore
    walk; all caps finite and non-negative.
``enable``
    ``P(EN)`` is monotone non-decreasing up the tree, every node's
    module mask is the union of its children's, probabilities in
    ``[0, 1]``.
``embedding``
    Every merging segment is a Manhattan arc, every node is placed on
    its segment, every edge's electrical length covers its endpoints'
    Manhattan distance, and each parent's merging segment lies inside
    the child's segment expanded by the child's edge length (the TRR
    feasibility that made the merge legal in the first place).
``controller``
    The enable-star routing lists exactly the tree's gated edges, with
    the controller assignment, edge lengths, transition probabilities
    and switched-capacitance/wirelength totals that
    :func:`repro.core.controller.route_enables` would recompute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro.check.tolerance import relatively_close

from repro.check.errors import (
    AuditError,
    CapAuditError,
    ControllerAuditError,
    EmbeddingAuditError,
    EnableAuditError,
    SkewAuditError,
)

#: Maps finding kinds to the typed error raised for them, in the order
#: :meth:`NetworkAuditReport.raise_if_failed` prefers when several
#: kinds fail at once (most fundamental first).
_KIND_ERRORS = (
    ("embedding", EmbeddingAuditError),
    ("cap", CapAuditError),
    ("skew", SkewAuditError),
    ("enable", EnableAuditError),
    ("controller", ControllerAuditError),
)


@dataclass(frozen=True)
class AuditFinding:
    """One invariant violation: which check, where, and what happened."""

    kind: str
    message: str
    node: Optional[int] = None

    def __str__(self) -> str:
        if self.node is not None:
            return "[%s] node %d: %s" % (self.kind, self.node, self.message)
        return "[%s] %s" % (self.kind, self.message)


@dataclass
class NetworkAuditReport:
    """Outcome of :func:`audit_network`."""

    skew: float
    phase_delay: float
    max_cap_error: float
    """Largest |router subtree cap - recomputed subtree cap|, pF."""

    max_delay_error: float
    """|router root delay - recomputed phase delay|."""

    checks: List[str] = field(default_factory=list)
    """Names of the invariant groups that ran."""

    findings: List[AuditFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def problems(self) -> List[str]:
        """The findings as plain strings."""
        return [f.message for f in self.findings]

    def findings_of(self, kind: str) -> List[AuditFinding]:
        return [f for f in self.findings if f.kind == kind]

    def summary(self) -> str:
        """Multi-line human-readable digest."""
        lines = [
            "network audit: %s (%d checks: %s)"
            % (
                "clean" if self.ok else "%d finding(s)" % len(self.findings),
                len(self.checks),
                ", ".join(self.checks),
            ),
            "  skew=%.6g  phase_delay=%.6g  max_cap_error=%.3g  "
            "max_delay_error=%.3g"
            % (self.skew, self.phase_delay, self.max_cap_error, self.max_delay_error),
        ]
        lines.extend("  %s" % f for f in self.findings)
        return "\n".join(lines)

    def raise_if_failed(self) -> None:
        """Raise the typed :class:`AuditError` for the findings, if any."""
        if self.ok:
            return
        for kind, error in _KIND_ERRORS:
            bad = self.findings_of(kind)
            if bad:
                first = bad[0]
                extra = len(self.findings) - 1
                message = first.message
                if extra:
                    message += " (+%d more finding(s))" % extra
                raise error(message, node=first.node)
        raise AuditError(self.findings[0].message, node=self.findings[0].node)


def audit_network(
    tree,
    routing=None,
    skew_tolerance: float = 1e-6,
    cap_tolerance: float = 1e-9,
    skew_bound: float = 0.0,
    geometry_tolerance: float = 1e-6,
) -> NetworkAuditReport:
    """Re-derive every network invariant and report disagreements.

    ``skew_tolerance`` is relative to the phase delay, ``cap_tolerance``
    relative to the subtree capacitance, ``geometry_tolerance`` an
    absolute slack on placement/containment checks.  ``skew_bound`` is
    the tree's declared skew budget (0 for exact zero-skew trees).
    ``routing``, when given, is the :class:`repro.core.controller.
    EnableRouting` to verify against the tree's gates.
    """
    findings: List[AuditFinding] = []
    checks = ["skew", "cap", "enable", "embedding"]

    # -- skew / delay recheck (ground-truth Elmore walk) ---------------
    evaluator = tree.elmore_evaluator()
    delays = evaluator.sink_delays()
    phase = max(s.delay for s in delays)
    earliest = min(s.delay for s in delays)
    skew = phase - earliest
    if not math.isfinite(skew) or not math.isfinite(phase):
        findings.append(
            AuditFinding(
                "skew",
                "recomputed delays are not finite (phase %r, skew %r)"
                % (phase, skew),
            )
        )
    elif phase > 0 and skew > skew_bound + skew_tolerance * phase:
        latest = max(delays, key=lambda s: s.delay)
        findings.append(
            AuditFinding(
                "skew",
                "skew %.3e exceeds the bound %.3e (+%.1e of the phase delay "
                "%.3e)" % (skew, skew_bound, skew_tolerance, phase),
                node=latest.node,
            )
        )
    root = tree.root
    if earliest < root.sink_delay_min - skew_tolerance * max(phase, 1.0):
        findings.append(
            AuditFinding(
                "skew",
                "root interval low edge %.6g above earliest recomputed "
                "arrival %.6g" % (root.sink_delay_min, earliest),
                node=root.id,
            )
        )
    max_delay_error = abs(root.sink_delay - phase)
    if phase > 0 and max_delay_error > skew_tolerance * phase:
        findings.append(
            AuditFinding(
                "skew",
                "root delay drift: router %.6g vs recomputed %.6g"
                % (root.sink_delay, phase),
                node=root.id,
            )
        )

    # -- downstream capacitance consistency ----------------------------
    max_cap_error = 0.0
    for node in tree.nodes():
        if not math.isfinite(node.subtree_cap) or node.subtree_cap < 0:
            findings.append(
                AuditFinding(
                    "cap",
                    "node %d subtree cap is %r; must be finite and "
                    "non-negative" % (node.id, node.subtree_cap),
                    node=node.id,
                )
            )
            continue
        recomputed = evaluator.subtree_cap(node.id)
        error = abs(recomputed - node.subtree_cap)
        max_cap_error = max(max_cap_error, error)
        if error > cap_tolerance * max(recomputed, 1.0):
            findings.append(
                AuditFinding(
                    "cap",
                    "node %d subtree cap drift: router %.6g vs recomputed "
                    "%.6g" % (node.id, node.subtree_cap, recomputed),
                    node=node.id,
                )
            )

    # -- enable hierarchy (paper section 1) ----------------------------
    for node in tree.nodes():
        p = node.enable_probability
        if not math.isfinite(p) or p < -1e-12 or p > 1.0 + 1e-12:
            findings.append(
                AuditFinding(
                    "enable",
                    "node %d enable probability %r outside [0, 1]"
                    % (node.id, p),
                    node=node.id,
                )
            )
    for node in tree.internal_nodes():
        child_union = 0
        for child_id in node.children:
            child = tree.node(child_id)
            child_union |= child.module_mask
            if node.enable_probability < child.enable_probability - 1e-9:
                findings.append(
                    AuditFinding(
                        "enable",
                        "node %d enable probability below child %d's"
                        % (node.id, child_id),
                        node=node.id,
                    )
                )
        if node.module_mask != child_union:
            findings.append(
                AuditFinding(
                    "enable",
                    "node %d module mask is not the union of its children's"
                    % node.id,
                    node=node.id,
                )
            )

    # -- embedding / TRR geometry --------------------------------------
    findings.extend(_audit_embedding(tree, geometry_tolerance))

    # -- controller star -----------------------------------------------
    if routing is not None:
        checks.append("controller")
        findings.extend(_audit_controller(tree, routing, geometry_tolerance))

    return NetworkAuditReport(
        skew=skew,
        phase_delay=phase,
        max_cap_error=max_cap_error,
        max_delay_error=max_delay_error,
        checks=checks,
        findings=findings,
    )


def _audit_embedding(tree, tol: float) -> List[AuditFinding]:
    """Per-node geometry findings (the embedding invariants)."""
    findings: List[AuditFinding] = []
    root_id = tree.root_id
    for node in tree.preorder():
        seg = node.merging_segment
        for name, value in (
            ("ulo", seg.ulo),
            ("uhi", seg.uhi),
            ("vlo", seg.vlo),
            ("vhi", seg.vhi),
        ):
            if not math.isfinite(value):
                findings.append(
                    AuditFinding(
                        "embedding",
                        "node %d merging segment bound %s is %r"
                        % (node.id, name, value),
                        node=node.id,
                    )
                )
        if not seg.is_arc:
            findings.append(
                AuditFinding(
                    "embedding",
                    "node %d merging segment is a 2-D region, not a "
                    "Manhattan arc (u extent %.3g, v extent %.3g)"
                    % (node.id, seg.u_extent, seg.v_extent),
                    node=node.id,
                )
            )
        if node.location is None:
            findings.append(
                AuditFinding(
                    "embedding",
                    "node %d is not placed" % node.id,
                    node=node.id,
                )
            )
            continue
        if not seg.contains_point(node.location, tol=tol):
            findings.append(
                AuditFinding(
                    "embedding",
                    "node %d placed off its merging segment" % node.id,
                    node=node.id,
                )
            )
        if node.id == root_id:
            continue
        if not math.isfinite(node.edge_length) or node.edge_length < 0:
            findings.append(
                AuditFinding(
                    "embedding",
                    "node %d edge length is %r; must be finite and "
                    "non-negative" % (node.id, node.edge_length),
                    node=node.id,
                )
            )
            continue
        parent = tree.node(node.parent)
        if parent.location is not None:
            dist = node.location.manhattan_to(parent.location)
            if node.edge_length < dist - tol:
                findings.append(
                    AuditFinding(
                        "embedding",
                        "edge above node %d shorter than its endpoints' "
                        "distance (%.6g < %.6g)"
                        % (node.id, node.edge_length, dist),
                        node=node.id,
                    )
                )
        # The parent's merge region must be reachable from the child's
        # segment within the child's wire budget: that containment is
        # exactly what made the bottom-up merge feasible.
        reach = seg.core(node.edge_length + tol)
        if not reach.contains_trr(parent.merging_segment, tol=tol):
            findings.append(
                AuditFinding(
                    "embedding",
                    "node %d merge region not contained in child %d's "
                    "segment expanded by its edge length %.6g"
                    % (parent.id, node.id, node.edge_length),
                    node=node.id,
                )
            )
    return findings


def _audit_controller(tree, routing, tol: float) -> List[AuditFinding]:
    """Verify the enable-star routing against the tree's gates."""
    from repro.core.controller import gate_location

    findings: List[AuditFinding] = []
    layout = routing.layout
    gated = {n.id: n for n in tree.gates()}
    routed = {}
    for route in routing.routes:
        if route.node_id in routed:
            findings.append(
                AuditFinding(
                    "controller",
                    "node %d routed twice in the enable star" % route.node_id,
                    node=route.node_id,
                )
            )
        routed[route.node_id] = route
    for nid in gated:
        if nid not in routed:
            findings.append(
                AuditFinding(
                    "controller",
                    "gated edge above node %d has no enable route" % nid,
                    node=nid,
                )
            )
    for nid, route in routed.items():
        if nid not in gated:
            findings.append(
                AuditFinding(
                    "controller",
                    "enable route targets node %d, whose edge carries no "
                    "masking gate" % nid,
                    node=nid,
                )
            )
            continue
        node = gated[nid]
        pin = gate_location(tree, node)
        index, ctrl = layout.controller_for(pin)
        if routing.explicit_assignment:
            # Refined routings may override the partition owner; the
            # assignment just has to name a real controller, and the
            # length below is checked against the *assigned* one.
            if not 0 <= route.controller_index < layout.count:
                findings.append(
                    AuditFinding(
                        "controller",
                        "node %d enable assigned controller %d; layout has "
                        "%d" % (nid, route.controller_index, layout.count),
                        node=nid,
                    )
                )
                continue
            ctrl = layout.points[route.controller_index]
        elif index != route.controller_index:
            findings.append(
                AuditFinding(
                    "controller",
                    "node %d enable assigned controller %d; partition owner "
                    "is %d" % (nid, route.controller_index, index),
                    node=nid,
                )
            )
        length = pin.manhattan_to(ctrl)
        if abs(length - route.length) > tol * max(1.0, length):
            findings.append(
                AuditFinding(
                    "controller",
                    "node %d enable length drift: routed %.6g vs recomputed "
                    "%.6g" % (nid, route.length, length),
                    node=nid,
                )
            )
        ptr = node.enable_transition_probability
        if abs(ptr - route.transition_probability) > 1e-12:
            findings.append(
                AuditFinding(
                    "controller",
                    "node %d enable transition probability drift: routed "
                    "%.6g vs tree %.6g"
                    % (nid, route.transition_probability, ptr),
                    node=nid,
                )
            )
    # Totals: recompute W(S) and the star wirelength from the tree.
    tech = tree.tech
    c = tech.unit_wire_capacitance
    gate_in = tech.masking_gate.input_cap
    switched = 0.0
    wirelength = 0.0
    for nid, node in gated.items():
        pin = gate_location(tree, node)
        _, ctrl = layout.controller_for(pin)
        if routing.explicit_assignment and nid in routed:
            index = routed[nid].controller_index
            if 0 <= index < layout.count:
                ctrl = layout.points[index]
        length = pin.manhattan_to(ctrl)
        switched += (c * length + gate_in) * node.enable_transition_probability
        wirelength += length
    if not relatively_close(routing.wirelength, wirelength, rel=tol):
        findings.append(
            AuditFinding(
                "controller",
                "enable-star wirelength drift: routed %.6g vs recomputed "
                "%.6g" % (routing.wirelength, wirelength),
            )
        )
    if not relatively_close(routing.switched_cap, switched, rel=tol):
        findings.append(
            AuditFinding(
                "controller",
                "enable-star switched cap drift: routed %.6g vs recomputed "
                "%.6g" % (routing.switched_cap, switched),
            )
        )
    return findings
