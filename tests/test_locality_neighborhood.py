"""Unit tests for repro.locality.neighborhood.Neighborhood."""

from __future__ import annotations

import pytest

from repro.exceptions import InvalidParameterError
from repro.geometry.point import Point
from repro.locality.neighborhood import Neighborhood

CENTER = Point(0.0, 0.0)
MEMBERS = [Point(1, 0, 1), Point(0, 2, 2), Point(3, 0, 3)]
DISTS = [1.0, 2.0, 3.0]


def make() -> Neighborhood:
    return Neighborhood(CENTER, 3, MEMBERS, DISTS)


class TestConstruction:
    def test_rejects_bad_k(self):
        with pytest.raises(InvalidParameterError):
            Neighborhood(CENTER, 0, [], [])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(InvalidParameterError):
            Neighborhood(CENTER, 2, MEMBERS, [1.0])

    def test_from_candidates_orders_by_distance(self):
        nbr = Neighborhood.from_candidates(CENTER, 2, [Point(5, 0, 1), Point(1, 0, 2), Point(2, 0, 3)])
        assert [p.pid for p in nbr] == [2, 3]
        assert nbr.distances == pytest.approx((1.0, 2.0))

    def test_from_candidates_tie_broken_by_pid(self):
        nbr = Neighborhood.from_candidates(CENTER, 2, [Point(1, 0, 9), Point(0, 1, 4), Point(-1, 0, 7)])
        assert [p.pid for p in nbr] == [4, 7]

    def test_from_candidates_fewer_than_k(self):
        nbr = Neighborhood.from_candidates(CENTER, 10, [Point(1, 0, 1)])
        assert len(nbr) == 1
        assert not nbr.is_full


class TestAccessors:
    def test_nearest_and_farthest(self):
        nbr = make()
        assert nbr.nearest.pid == 1
        assert nbr.farthest.pid == 3
        assert nbr.nearest_distance == 1.0
        assert nbr.farthest_distance == 3.0

    def test_membership_by_point_and_pid(self):
        nbr = make()
        assert MEMBERS[0] in nbr
        assert nbr.contains_pid(2)
        assert not nbr.contains_pid(99)

    def test_empty_neighborhood_accessors_raise(self):
        empty = Neighborhood(CENTER, 3, [], [])
        with pytest.raises(InvalidParameterError):
            _ = empty.nearest
        with pytest.raises(InvalidParameterError):
            _ = empty.farthest_distance

    def test_is_full(self):
        assert make().is_full
        assert not Neighborhood(CENTER, 5, MEMBERS, DISTS).is_full


class TestRelativeQueries:
    def test_distance_to_nearest_member(self):
        nbr = make()
        q = Point(3.0, 0.5)
        expected = min(q.distance_to(p) for p in MEMBERS)
        assert nbr.distance_to_nearest_member(q) == pytest.approx(expected)

    def test_distance_to_farthest_member(self):
        nbr = make()
        q = Point(-1.0, -1.0)
        expected = max(q.distance_to(p) for p in MEMBERS)
        assert nbr.distance_to_farthest_member(q) == pytest.approx(expected)

    def test_farthest_member_from(self):
        nbr = make()
        q = Point(3.0, 0.0)
        assert nbr.farthest_member_from(q).pid == 2


class TestIntersection:
    def test_intersection_by_pid(self):
        a = make()
        b = Neighborhood(Point(9, 9), 2, [Point(0, 2, 2), Point(8, 8, 8)], [1.0, 2.0])
        assert [p.pid for p in a.intersection(b)] == [2]
        assert a.intersection_pids(b) == frozenset({2})

    def test_disjoint_intersection_empty(self):
        a = make()
        b = Neighborhood(Point(9, 9), 1, [Point(8, 8, 8)], [1.0])
        assert a.intersection(b) == []

    def test_intersection_preserves_distance_order_of_self(self):
        a = make()
        b = Neighborhood(Point(9, 9), 3, list(reversed(MEMBERS)), [1.0, 2.0, 3.0])
        assert [p.pid for p in a.intersection(b)] == [1, 2, 3]


class TestRowAccessors:
    def test_lazy_neighborhood_exposes_its_store_rows(self):
        import numpy as np

        from repro.storage.pointstore import PointStore

        store = PointStore.from_points([Point(0.0, 0.0, 5), Point(3.0, 4.0, 6)])
        nbr = Neighborhood.from_rows(
            Point(0.0, 0.0), 2, store, np.array([0, 1]), np.array([0.0, 5.0])
        )
        assert nbr.store is store
        assert nbr.rows.tolist() == [0, 1]
        assert nbr.pid_array.tolist() == [5, 6]

    def test_eager_neighborhood_has_no_rows(self):
        nbr = make()
        assert nbr.store is None and nbr.rows is None
