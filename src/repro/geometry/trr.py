"""Tilted rectangle regions (TRRs).

A TRR is the Minkowski sum of a Manhattan arc (a segment of slope +/-1,
possibly degenerate to a point) with an L1 ball -- the shape swept out
by all points within a given Manhattan radius of the arc.  TRRs are the
working objects of the deferred-merge embedding: during the bottom-up
phase every subtree root is represented by a *merging segment* (a
Manhattan arc, i.e. a degenerate TRR), and candidate placement regions
are intersections of expanded TRR "cores".

In the rotated coordinates ``u = x + y``, ``v = x - y`` a TRR is an
axis-aligned rectangle ``[ulo, uhi] x [vlo, vhi]`` and

* Manhattan distance between TRRs = max of the two interval gaps,
* expansion by radius r = widening both intervals by r,
* intersection = interval intersection.

All methods keep the rectangle representation; use
:meth:`Trr.endpoints_xy` / :meth:`Trr.center` to get back to layout
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.check.errors import GeometryError
from repro.geometry.point import Point
from repro.quantity import LengthUm

_EPS = 1e-9


def _interval_gap(lo1: float, hi1: float, lo2: float, hi2: float) -> float:
    """Signed-clamped gap between two closed intervals (0 if they meet)."""
    return max(0.0, lo2 - hi1, lo1 - hi2)


def _interval_nearest(lo1: float, hi1: float, lo2: float, hi2: float) -> Tuple[float, float]:
    """A pair (c1, c2), one coordinate in each interval, at minimum distance.

    When the intervals overlap both coordinates coincide at the middle of
    the overlap, which keeps top-down placements well-centered.
    """
    olo, ohi = max(lo1, lo2), min(hi1, hi2)
    if olo <= ohi:
        mid = (olo + ohi) / 2.0
        return mid, mid
    if hi1 < lo2:
        return hi1, lo2
    return lo1, hi2


@dataclass(frozen=True)
class Trr:
    """A tilted rectangle region stored as a (u, v) rectangle.

    Invariant: ``ulo <= uhi`` and ``vlo <= vhi`` (within floating-point
    tolerance; the constructor snaps tiny negative extents to zero).
    """

    ulo: LengthUm
    uhi: LengthUm
    vlo: LengthUm
    vhi: LengthUm

    def __post_init__(self) -> None:
        if self.ulo - self.uhi > _EPS or self.vlo - self.vhi > _EPS:
            raise GeometryError(
                "degenerate TRR: [%g, %g] x [%g, %g]" % (self.ulo, self.uhi, self.vlo, self.vhi)
            )
        # Snap tiny inversions produced by floating-point noise.
        if self.ulo > self.uhi:
            object.__setattr__(self, "uhi", self.ulo)
        if self.vlo > self.vhi:
            object.__setattr__(self, "vhi", self.vlo)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_point(p: Point, radius: LengthUm = 0.0) -> "Trr":
        """The TRR of all points within ``radius`` of ``p`` (L1 ball)."""
        if radius < 0:
            raise GeometryError("radius must be non-negative")
        return Trr(p.u - radius, p.u + radius, p.v - radius, p.v + radius)

    @staticmethod
    def from_segment(a: Point, b: Point) -> "Trr":
        """The TRR spanned by two points.

        For a Manhattan arc (slope +/-1 segment) this is the arc itself;
        for arbitrary points it is the smallest TRR containing both.
        """
        return Trr(
            min(a.u, b.u), max(a.u, b.u), min(a.v, b.v), max(a.v, b.v)
        )

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def bounds_uv(self) -> Tuple[float, float, float, float]:
        """``(ulo, uhi, vlo, vhi)`` -- the row format of the batched
        kernels' struct-of-arrays mirror (:mod:`repro.cts.kernels`)."""
        return (self.ulo, self.uhi, self.vlo, self.vhi)

    @property
    def u_extent(self) -> LengthUm:
        return self.uhi - self.ulo

    @property
    def v_extent(self) -> LengthUm:
        return self.vhi - self.vlo

    @property
    def is_point(self) -> bool:
        """True when the region is a single point."""
        return self.u_extent <= _EPS and self.v_extent <= _EPS

    @property
    def is_arc(self) -> bool:
        """True when the region is a Manhattan arc (including a point)."""
        return self.u_extent <= _EPS or self.v_extent <= _EPS

    def center(self) -> Point:
        """The center of the region in layout coordinates."""
        return Point.from_uv((self.ulo + self.uhi) / 2.0, (self.vlo + self.vhi) / 2.0)

    def endpoints_xy(self) -> Tuple[Point, Point]:
        """Endpoints when the region is a Manhattan arc.

        Raises :class:`ValueError` for a proper (2-D) rectangle.
        """
        if not self.is_arc:
            raise GeometryError("TRR is not a Manhattan arc")
        if self.u_extent > self.v_extent:
            v = (self.vlo + self.vhi) / 2.0
            return Point.from_uv(self.ulo, v), Point.from_uv(self.uhi, v)
        u = (self.ulo + self.uhi) / 2.0
        return Point.from_uv(u, self.vlo), Point.from_uv(u, self.vhi)

    def contains_point(self, p: Point, tol: float = _EPS) -> bool:
        """Membership test in layout coordinates."""
        return (
            self.ulo - tol <= p.u <= self.uhi + tol
            and self.vlo - tol <= p.v <= self.vhi + tol
        )

    def contains_trr(self, other: "Trr", tol: float = _EPS) -> bool:
        """True when ``other`` is entirely inside ``self``."""
        return (
            self.ulo - tol <= other.ulo
            and other.uhi <= self.uhi + tol
            and self.vlo - tol <= other.vlo
            and other.vhi <= self.vhi + tol
        )

    # ------------------------------------------------------------------
    # metric operations
    # ------------------------------------------------------------------
    def distance_to_point(self, p: Point) -> LengthUm:
        """Manhattan distance from ``p`` to the nearest point of the region."""
        gu = _interval_gap(self.ulo, self.uhi, p.u, p.u)
        gv = _interval_gap(self.vlo, self.vhi, p.v, p.v)
        return max(gu, gv)

    def distance_to(self, other: "Trr") -> LengthUm:
        """Minimum Manhattan distance between two regions (0 if they meet)."""
        gu = _interval_gap(self.ulo, self.uhi, other.ulo, other.uhi)
        gv = _interval_gap(self.vlo, self.vhi, other.vlo, other.vhi)
        return max(gu, gv)

    def nearest_point_to(self, p: Point) -> Point:
        """The point of the region closest (in L1) to ``p``.

        Ties are broken by clamping both rotated coordinates, which
        yields the L-infinity projection in (u, v) space; any such point
        achieves the minimum Manhattan distance.
        """
        u = min(max(p.u, self.ulo), self.uhi)
        v = min(max(p.v, self.vlo), self.vhi)
        return Point.from_uv(u, v)

    def nearest_points(self, other: "Trr") -> Tuple[Point, Point]:
        """A pair of mutually-nearest points, one in each region."""
        u1, u2 = _interval_nearest(self.ulo, self.uhi, other.ulo, other.uhi)
        v1, v2 = _interval_nearest(self.vlo, self.vhi, other.vlo, other.vhi)
        return Point.from_uv(u1, v1), Point.from_uv(u2, v2)

    # ------------------------------------------------------------------
    # constructive operations
    # ------------------------------------------------------------------
    def core(self, radius: LengthUm) -> "Trr":
        """Minkowski expansion by an L1 ball of the given radius."""
        if radius < 0:
            raise GeometryError("radius must be non-negative")
        return Trr(self.ulo - radius, self.uhi + radius, self.vlo - radius, self.vhi + radius)

    def intersection(self, other: "Trr", tol: float = _EPS) -> Optional["Trr"]:
        """Intersection with another TRR, or ``None`` when disjoint.

        Overlaps thinner than ``tol`` are snapped to degenerate extent so
        that the intersection of two exactly-touching cores is the
        expected Manhattan arc.
        """
        ulo, uhi = max(self.ulo, other.ulo), min(self.uhi, other.uhi)
        vlo, vhi = max(self.vlo, other.vlo), min(self.vhi, other.vhi)
        if ulo - uhi > tol or vlo - vhi > tol:
            return None
        return Trr(min(ulo, uhi), max(ulo, uhi), min(vlo, vhi), max(vlo, vhi))
