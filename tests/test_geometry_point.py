"""Unit tests for Manhattan-plane points."""

import pytest

from repro.geometry import Point


class TestPointBasics:
    def test_coordinates(self):
        p = Point(3.0, -2.0)
        assert p.x == 3.0
        assert p.y == -2.0

    def test_rotated_coordinates(self):
        p = Point(3.0, 1.0)
        assert p.u == 4.0
        assert p.v == 2.0

    def test_from_uv_inverts_uv(self):
        p = Point(7.25, -1.5)
        q = Point.from_uv(p.u, p.v)
        assert q.is_close(p)

    def test_iteration_unpacks(self):
        x, y = Point(1.0, 2.0)
        assert (x, y) == (1.0, 2.0)

    def test_points_are_hashable_and_equal(self):
        assert Point(1, 2) == Point(1, 2)
        assert len({Point(1, 2), Point(1, 2)}) == 1

    def test_immutability(self):
        with pytest.raises(AttributeError):
            Point(0, 0).x = 5


class TestDistances:
    def test_manhattan_distance(self):
        assert Point(0, 0).manhattan_to(Point(3, 4)) == 7.0

    def test_manhattan_matches_chebyshev_in_uv(self):
        a, b = Point(1.5, -2.0), Point(-3.0, 4.25)
        assert a.manhattan_to(b) == pytest.approx(
            max(abs(a.u - b.u), abs(a.v - b.v))
        )


class TestConstructions:
    def test_midpoint(self):
        assert Point(0, 0).midpoint(Point(4, 6)) == Point(2, 3)

    def test_midpoint_is_equidistant(self):
        a, b = Point(1, 2), Point(-3, 8)
        m = a.midpoint(b)
        assert a.manhattan_to(m) == pytest.approx(b.manhattan_to(m))

    def test_is_close_tolerance(self):
        assert Point(0, 0).is_close(Point(1e-12, -1e-12))
        assert not Point(0, 0).is_close(Point(1e-3, 0))

    def test_diagonal_unit_square(self):
        assert Point(0, 0).manhattan_to(Point(1, 1)) == 2.0
