"""Unit tests for repro.locality.neighborhood.Neighborhood."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.geometry.point import Point
from repro.index.grid import GridIndex
from repro.locality.brute import brute_force_knn
from repro.locality.knn import get_knn
from repro.locality.neighborhood import Neighborhood
from repro.operators.merge import merge_neighborhoods
from repro.storage.pointstore import PointStore

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
        store = PointStore.from_points([Point(0.0, 0.0, 5), Point(3.0, 4.0, 6)])
        nbr = Neighborhood.from_rows(
            Point(0.0, 0.0), 2, store, np.array([0, 1]), np.array([0.0, 5.0])
        )
        assert nbr.store is store
        assert nbr.rows.tolist() == [0, 1]
        assert nbr.pid_array.tolist() == [5, 6]

    def test_point_built_neighborhood_owns_a_compact_store(self):
        nbr = make()
        assert len(nbr.store) == len(MEMBERS)
        assert nbr.rows.tolist() == [0, 1, 2]
        assert nbr.pid_array.tolist() == [1, 2, 3]
        assert all(got is want for got, want in zip(nbr.points, MEMBERS))


def grid_points(n: int, seed: int, start_pid: int = 0) -> list[Point]:
    """``n`` uniform points, every other one carrying a payload."""
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, 100.0, size=(n, 2))
    return [
        Point(float(x), float(y), start_pid + i, {"tag": i} if i % 2 == 0 else None)
        for i, (x, y) in enumerate(coords)
    ]


class TestTransport:
    """Pickling ships the members' columns, never the source store."""

    def test_pickle_round_trips_order_payloads_and_points(self):
        pts = grid_points(400, seed=1)
        nbr = get_knn(GridIndex(pts, cells_per_side=8), Point(50.0, 50.0), 12)
        back = pickle.loads(pickle.dumps(nbr))
        assert back.distances == nbr.distances
        assert back.pid_array.tolist() == nbr.pid_array.tolist()
        assert list(back.points) == list(nbr.points)
        assert [p.payload for p in back] == [p.payload for p in nbr]
        assert any(p.payload is not None for p in back)
        assert len(back.store) == len(nbr) and back.rows.tolist() == list(range(12))

    def test_pickled_size_does_not_grow_with_the_store(self):
        def pickled_size(n: int) -> int:
            store = PointStore(
                *np.random.default_rng(2).uniform(0.0, 100.0, size=(2, n)), np.arange(n)
            )
            nbr = get_knn(GridIndex(store), Point(50.0, 50.0), 10)
            return len(pickle.dumps(nbr))

        small, large = pickled_size(100), pickled_size(100_000)
        assert abs(large - small) < 64  # same k: the same columns, whatever n

    def test_merge_over_three_shard_stores_equals_brute_force(self):
        pts = grid_points(600, seed=3)
        shards = [GridIndex(pts[i::3], cells_per_side=4) for i in range(3)]
        assert len({id(index.store) for index in shards}) == 3
        for q, k in ((Point(50.0, 50.0), 15), (Point(3.0, 97.0), 40), (Point(-20.0, 5.0), 1)):
            merged = merge_neighborhoods(q, k, [get_knn(index, q, k) for index in shards])
            want = brute_force_knn(pts, q, k)
            assert merged.distances == want.distances
            assert list(merged.points) == list(want.points)
            assert [p.payload for p in merged] == [p.payload for p in want]
            back = pickle.loads(pickle.dumps(merged))
            assert list(back.points) == list(want.points)

    def test_merge_with_one_contributing_part_slices_its_rows(self):
        pts = grid_points(300, seed=4)
        near = GridIndex([p for p in pts if p.x < 50.0], cells_per_side=4)
        far = GridIndex([p for p in pts if p.x >= 50.0], cells_per_side=4)
        q = Point(10.0, 50.0)
        part = get_knn(near, q, 5)
        merged = merge_neighborhoods(q, 5, [part, get_knn(far, q, 5)])
        assert merged.store is part.store
        assert np.shares_memory(merged.rows, part.rows)
        assert list(merged.points) == list(brute_force_knn(pts, q, 5).points)
