"""Points in the Manhattan plane.

Coordinates are floats in layout units (lambda).  The rotated
coordinates ``u = x + y`` and ``v = x - y`` turn the L1 metric into the
L-infinity metric, which is what makes tilted-rectangle arithmetic (see
:mod:`repro.geometry.trr`) a pair of independent interval computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.quantity import LengthUm


@dataclass(frozen=True)
class Point:
    """An immutable point ``(x, y)`` in the layout plane."""

    x: LengthUm
    y: LengthUm

    @property
    def u(self) -> LengthUm:
        """Rotated coordinate ``x + y``."""
        return self.x + self.y

    @property
    def v(self) -> LengthUm:
        """Rotated coordinate ``x - y``."""
        return self.x - self.y

    @staticmethod
    def from_uv(u: LengthUm, v: LengthUm) -> "Point":
        """Build a point from rotated coordinates."""
        return Point((u + v) / 2.0, (u - v) / 2.0)

    def manhattan_to(self, other: "Point") -> LengthUm:
        """Manhattan (L1) distance to ``other``."""
        return abs(self.x - other.x) + abs(self.y - other.y)

    def midpoint(self, other: "Point") -> "Point":
        """The point halfway between ``self`` and ``other``."""
        return Point((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)

    def is_close(self, other: "Point", tol: LengthUm = 1e-9) -> bool:
        """True when both coordinates match within ``tol``."""
        return abs(self.x - other.x) <= tol and abs(self.y - other.y) <= tol

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y
