"""Exact zero-skew merging, generalized to gated edges.

Tsay's classical construction balances the Elmore delays of two
subtrees by splitting the merging distance ``L`` into edge lengths
``e_a + e_b = L``.  The paper inserts a masking gate at the top of
(some) edges; the gate decouples the subtree electrically and adds its
own delay.  With

``f_s(x) = D_s + R_s * (c x + C_s) + r x (c x / 2 + C_s) + t_s``

the delay down side ``s`` through an edge of length ``x`` (``D_s`` /
``R_s`` are the cell's intrinsic delay / drive resistance, zero for a
plain wire; ``C_s`` the subtree's presented capacitance; ``t_s`` its
sink delay), the balance condition ``f_a(x) = f_b(L - x)`` stays
**linear in x** because the quadratic wire terms cancel:

``x = [L (R_b c + r C_b) + r c L^2 / 2 + (t'_b - t'_a)] / den``
``den = c (R_a + R_b) + r (C_a + C_b) + r c L``
``t'_s = D_s + R_s C_s + t_s``

When the root ``x`` falls outside ``[0, L]`` one side attaches directly
(zero edge) and the other side's wire is *snaked*: extended beyond the
geometric distance until the delays match (a quadratic with one
positive root).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.check.errors import GeometryError, SkewBalanceError
from repro.geometry.trr import Trr
from repro.quantity import CapacitanceFF, DelayPs, LengthUm, ResistanceOhm
from repro.tech.parameters import GateModel, Technology

_EPS = 1e-12

#: Tolerances of :func:`zero_skew_split`'s degenerate-balance branch
#: and of the snake length, shared with the batched mirror
#: (:mod:`repro.cts.kernels`) so the two can never drift apart.
DEGENERATE_DEN_EPS = _EPS
DEGENERATE_SKEW_EPS = 1e-12
SNAKE_EPS = _EPS

__all__ = [
    "DEGENERATE_DEN_EPS",
    "DEGENERATE_SKEW_EPS",
    "SNAKE_EPS",
    "SkewBalanceError",
    "SplitResult",
    "Tap",
    "merge_regions",
    "zero_skew_split",
]


@dataclass(frozen=True)
class Tap:
    """One side of a merge: the subtree plus the cell on its new edge."""

    cap: CapacitanceFF
    """Capacitance presented at the subtree root from below, pF."""

    delay: DelayPs
    """Zero-skew delay from the subtree root to its sinks."""

    cell: Optional[GateModel] = None
    """Cell (gate or buffer) at the top of the new edge, if any."""

    @property
    def drive_resistance(self) -> ResistanceOhm:
        return self.cell.drive_resistance if self.cell else 0.0

    @property
    def intrinsic_delay(self) -> DelayPs:
        return self.cell.intrinsic_delay if self.cell else 0.0

    def unloaded_delay(self) -> DelayPs:
        """``t' = D + R * C + t``: delay through a zero-length edge."""
        return self.intrinsic_delay + self.drive_resistance * self.cap + self.delay

    def edge_delay(self, length: LengthUm, tech: Technology) -> DelayPs:
        """``f(x)``: delay from the edge top down to the sinks."""
        r = tech.unit_wire_resistance
        c = tech.unit_wire_capacitance
        return (
            self.intrinsic_delay
            + self.drive_resistance * (c * length + self.cap)
            + r * length * (c * length / 2.0 + self.cap)
            + self.delay
        )

    def presented_cap(self, length: LengthUm, tech: Technology) -> CapacitanceFF:
        """Capacitance the new edge shows to the merge point."""
        if self.cell is not None:
            return self.cell.input_cap
        return tech.unit_wire_capacitance * length + self.cap


@dataclass(frozen=True)
class SplitResult:
    """Outcome of a zero-skew split."""

    length_a: LengthUm
    length_b: LengthUm
    delay: DelayPs
    """Common delay from the merge point down to every sink."""

    presented_a: CapacitanceFF
    presented_b: CapacitanceFF
    snaked: Optional[str] = None
    """``"a"`` / ``"b"`` when that side's wire was extended, else None."""

    @property
    def merged_cap(self) -> CapacitanceFF:
        """Capacitance presented at the new merge node from below."""
        return self.presented_a + self.presented_b

    @property
    def total_length(self) -> LengthUm:
        return self.length_a + self.length_b


def _snake_length(fast: Tap, target_delay: DelayPs, tech: Technology) -> LengthUm:
    """Wirelength making the fast side as slow as ``target_delay``.

    Solves ``(rc/2) l^2 + (R c + r C) l + (t' - target) = 0`` for the
    positive root.
    """
    r = tech.unit_wire_resistance
    c = tech.unit_wire_capacitance
    quad = r * c / 2.0
    lin = fast.drive_resistance * c + r * fast.cap
    const = fast.unloaded_delay() - target_delay
    if const > SNAKE_EPS:
        raise SkewBalanceError("snaking target is faster than the fast side")
    if const >= -SNAKE_EPS:
        return 0.0
    if quad <= SNAKE_EPS:
        if lin <= SNAKE_EPS:
            raise SkewBalanceError(
                "wire adds no delay in this technology; cannot balance by snaking"
            )
        return -const / lin
    disc = lin * lin - 4.0 * quad * const
    return (-lin + math.sqrt(disc)) / (2.0 * quad)


def zero_skew_split(length: LengthUm, tap_a: Tap, tap_b: Tap, tech: Technology) -> SplitResult:
    """Split merging distance ``length`` so both sides see equal delay.

    ``length == 0`` (co-located subtree roots, e.g. two sinks at the
    same coordinates) is legal and yields the exact zero-length split:
    both edges stay 0 when the subtrees already balance, otherwise the
    fast side snakes.  The batched kernel lane agrees bit-for-bit
    (see ``tests/test_edge_cases.py``).
    """
    if not math.isfinite(length):
        raise GeometryError(
            "merging distance is %r; must be finite" % length, field="length"
        )
    if length < 0:
        raise GeometryError("merging distance must be non-negative", field="length")
    r = tech.unit_wire_resistance
    c = tech.unit_wire_capacitance
    den = (
        c * (tap_a.drive_resistance + tap_b.drive_resistance)
        + r * (tap_a.cap + tap_b.cap)
        + r * c * length
    )
    unloaded_a, unloaded_b = tap_a.unloaded_delay(), tap_b.unloaded_delay()
    skew_at_zero = unloaded_b - unloaded_a
    if den <= DEGENERATE_DEN_EPS:
        # The linear balance is degenerate (zero distance and unloaded,
        # undriven subtrees).  Equal subtrees split trivially; otherwise
        # force the snaking path, which can still balance through the
        # wire's own RC (handled below; _snake_length raises when even
        # that is absent).
        if abs(skew_at_zero) <= DEGENERATE_SKEW_EPS:
            x = length / 2.0
        elif skew_at_zero > 0:
            x = length + 1.0  # b is slower: snake a
        else:
            x = -1.0  # a is slower: snake b
    else:
        num = (
            length * (tap_b.drive_resistance * c + r * tap_b.cap)
            + r * c * length * length / 2.0
            + skew_at_zero
        )
        x = num / den

    snaked = None
    if x < 0.0:
        # Side a is already slower even with all wire on b: snake b.
        e_a = 0.0
        e_b = _snake_length(tap_b, unloaded_a, tech)
        e_b = max(e_b, length)
        snaked = "b"
    elif x > length:
        e_b = 0.0
        e_a = _snake_length(tap_a, unloaded_b, tech)
        e_a = max(e_a, length)
        snaked = "a"
    else:
        e_a, e_b = x, length - x

    delay_a = tap_a.edge_delay(e_a, tech)
    delay_b = tap_b.edge_delay(e_b, tech)
    return SplitResult(
        length_a=e_a,
        length_b=e_b,
        delay=max(delay_a, delay_b),
        presented_a=tap_a.presented_cap(e_a, tech),
        presented_b=tap_b.presented_cap(e_b, tech),
        snaked=snaked,
    )


def merge_regions(ms_a: Trr, ms_b: Trr, split: SplitResult) -> Trr:
    """Merging segment of the merged subtree.

    The set of feasible merge points is the intersection of the two
    cores ``core(ms_a, e_a)`` and ``core(ms_b, e_b)``: any such point is
    within wire budget of both children (a snaked side makes up the
    slack with detour wiring).  For an exact split the intersection is
    a Manhattan arc.
    """
    core_a = ms_a.core(split.length_a)
    core_b = ms_b.core(split.length_b)
    region = core_a.intersection(core_b)
    tol = 0.0
    if region is None:
        # Floating-point slack: retry with a tolerance scaled to size.
        tol = 1e-9 * (1.0 + split.total_length + ms_a.distance_to(ms_b))
        region = core_a.intersection(core_b, tol=tol)
    if region is None:
        raise GeometryError(
            "cores do not intersect; split does not cover the distance: "
            "segment a=[u %g..%g, v %g..%g] expanded by e_a=%g and "
            "segment b=[u %g..%g, v %g..%g] expanded by e_b=%g "
            "(segment distance %g, split total %g, snaked=%r, tol=%g)"
            % (
                ms_a.ulo, ms_a.uhi, ms_a.vlo, ms_a.vhi, split.length_a,
                ms_b.ulo, ms_b.uhi, ms_b.vlo, ms_b.vhi, split.length_b,
                ms_a.distance_to(ms_b), split.total_length, split.snaked, tol,
            )
        )
    return region
