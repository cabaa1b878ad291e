"""Unit tests for tilted rectangle regions."""

import pytest

from repro.geometry import Point, Trr


class TestConstruction:
    def test_from_point_is_point(self):
        t = Trr.from_point(Point(2, 3))
        assert t.is_point
        assert t.is_arc
        assert t.center() == Point(2, 3)

    def test_from_point_with_radius(self):
        t = Trr.from_point(Point(0, 0), radius=2.0)
        assert not t.is_point
        assert t.u_extent == 4.0
        assert t.v_extent == 4.0

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            Trr.from_point(Point(0, 0), radius=-1.0)

    def test_inverted_rectangle_rejected(self):
        with pytest.raises(ValueError):
            Trr(1.0, 0.0, 0.0, 0.0)

    def test_from_segment_diagonal_is_arc(self):
        # Slope +1 segment: v constant.
        t = Trr.from_segment(Point(0, 0), Point(3, 3))
        assert t.is_arc
        assert not t.is_point

    def test_from_segment_antidiagonal_is_arc(self):
        # Slope -1 segment: u constant.
        t = Trr.from_segment(Point(0, 3), Point(3, 0))
        assert t.is_arc

    def test_from_segment_axis_aligned_is_rectangle(self):
        t = Trr.from_segment(Point(0, 0), Point(4, 0))
        assert not t.is_arc


class TestMembership:
    def test_contains_center(self):
        t = Trr.from_point(Point(1, 1), radius=3.0)
        assert t.contains_point(Point(1, 1))

    def test_l1_ball_membership(self):
        t = Trr.from_point(Point(0, 0), radius=2.0)
        assert t.contains_point(Point(2, 0))
        assert t.contains_point(Point(1, 1))
        assert not t.contains_point(Point(2, 1))

    def test_contains_trr(self):
        outer = Trr.from_point(Point(0, 0), radius=5.0)
        inner = Trr.from_point(Point(1, 0), radius=1.0)
        assert outer.contains_trr(inner)
        assert not inner.contains_trr(outer)


class TestDistance:
    def test_distance_to_point_inside_is_zero(self):
        t = Trr.from_point(Point(0, 0), radius=2.0)
        assert t.distance_to_point(Point(1, 0)) == 0.0

    def test_distance_to_point_outside(self):
        t = Trr.from_point(Point(0, 0), radius=2.0)
        assert t.distance_to_point(Point(4, 0)) == pytest.approx(2.0)

    def test_distance_between_point_regions(self):
        a = Trr.from_point(Point(0, 0))
        b = Trr.from_point(Point(3, 4))
        assert a.distance_to(b) == pytest.approx(7.0)

    def test_distance_symmetry(self):
        a = Trr.from_point(Point(0, 0), radius=1.0)
        b = Trr.from_point(Point(10, -2), radius=2.5)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    def test_overlapping_regions_have_zero_distance(self):
        a = Trr.from_point(Point(0, 0), radius=3.0)
        b = Trr.from_point(Point(1, 1), radius=3.0)
        assert a.distance_to(b) == 0.0

    def test_cores_at_split_radii_touch(self):
        # The defining DME identity: expanding two regions by radii
        # summing to their distance makes them exactly meet.
        a = Trr.from_point(Point(0, 0))
        b = Trr.from_point(Point(6, 2))
        d = a.distance_to(b)
        assert a.core(0.25 * d).distance_to(b.core(0.75 * d)) == pytest.approx(0.0)


class TestNearestPoints:
    def test_nearest_point_inside(self):
        t = Trr.from_point(Point(0, 0), radius=2.0)
        p = Point(0.5, 0.5)
        assert t.nearest_point_to(p).is_close(p)

    def test_nearest_point_achieves_distance(self):
        t = Trr.from_point(Point(0, 0), radius=2.0)
        p = Point(5, 1)
        q = t.nearest_point_to(p)
        assert t.contains_point(q)
        assert q.manhattan_to(p) == pytest.approx(t.distance_to_point(p))

    def test_nearest_points_pair(self):
        a = Trr.from_point(Point(0, 0), radius=1.0)
        b = Trr.from_point(Point(10, 0), radius=2.0)
        pa, pb = a.nearest_points(b)
        assert a.contains_point(pa)
        assert b.contains_point(pb)
        assert pa.manhattan_to(pb) == pytest.approx(a.distance_to(b))


class TestCoreAndIntersection:
    def test_core_expansion_extents(self):
        t = Trr.from_point(Point(0, 0), radius=1.0).core(2.0)
        assert t.u_extent == pytest.approx(6.0)
        assert t.v_extent == pytest.approx(6.0)

    def test_core_contains_original(self):
        t = Trr.from_segment(Point(0, 0), Point(2, 2))
        assert t.core(1.0).contains_trr(t)

    def test_intersection_of_disjoint_is_none(self):
        a = Trr.from_point(Point(0, 0), radius=1.0)
        b = Trr.from_point(Point(10, 10), radius=1.0)
        assert a.intersection(b) is None

    def test_intersection_of_touching_cores_is_arc(self):
        # |du| != |dv| so the touching set is a proper Manhattan arc
        # (equal rotated gaps would collapse it to a point).
        a = Trr.from_point(Point(0, 0))
        b = Trr.from_point(Point(4, 2))
        d = a.distance_to(b)
        region = a.core(d / 2).intersection(b.core(d / 2))
        assert region is not None
        assert region.is_arc
        assert not region.is_point

    def test_intersection_is_contained_in_both(self):
        a = Trr.from_point(Point(0, 0), radius=4.0)
        b = Trr.from_point(Point(3, 1), radius=4.0)
        region = a.intersection(b)
        assert a.contains_trr(region)
        assert b.contains_trr(region)


class TestArcGeometry:
    def test_endpoints_of_arc(self):
        t = Trr.from_segment(Point(0, 0), Point(3, 3))
        e1, e2 = t.endpoints_xy()
        found = {(round(e1.x), round(e1.y)), (round(e2.x), round(e2.y))}
        assert found == {(0, 0), (3, 3)}

    def test_endpoints_of_rectangle_raises(self):
        t = Trr.from_point(Point(0, 0), radius=1.0)
        with pytest.raises(ValueError):
            t.endpoints_xy()
