"""The grid-windowed block phase equals the dense one — on the hard inputs.

``block_phase`` gathers bounds and counts only for the blocks
``SpatialIndex.candidate_blocks`` names.  The base-class hook names every
block (the dense phase every index used to run); ``GridIndex`` names a cell
window.  Nothing of that may show: ids, the bound ``M`` and the neighbourhood
are the dense ones whatever the focal, the grid or the data — and the columnar
select tails (``Neighborhood.intersection`` on rows, ``Neighborhood.within``)
return what the per-``Point`` code they replace returned.
"""

from __future__ import annotations

import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.index.base import SpatialIndex
from repro.index.grid import GridIndex
from repro.index.quadtree import QuadtreeIndex
from repro.index.rtree import RTreeIndex
from repro.locality.knn import block_phase, get_knn
from repro.locality.neighborhood import Neighborhood
from repro.query.dataset import Dataset
from repro.storage.pointstore import PointStore
from repro.storage.update import UpdateBatch

BOUNDS = Rect(0.0, 0.0, 10.0, 10.0)


def points_of(coords, start_pid: int = 0) -> list[Point]:
    return [Point(float(x), float(y), start_pid + i) for i, (x, y) in enumerate(coords)]


def dense_phase(index: SpatialIndex, p: Point, k: int, cutoff: float = math.inf):
    """``block_phase`` through the base-class (all blocks) hook."""
    with mock.patch.object(type(index), "candidate_blocks", SpatialIndex.candidate_blocks):
        return block_phase(index, p, k, cutoff)


def dense_knn(index: SpatialIndex, p: Point, k: int) -> Neighborhood:
    with mock.patch.object(type(index), "candidate_blocks", SpatialIndex.candidate_blocks):
        return get_knn(index, p, k)


def assert_windowed_equals_dense(index: SpatialIndex, p: Point, k: int) -> float:
    """Candidates honour the hook's contract; ids, M and neighbours match."""
    want_ids, want_bound = dense_phase(index, p, k)
    got_ids, got_bound = block_phase(index, p, k)
    assert got_bound == want_bound
    assert got_ids.tolist() == want_ids.tolist()

    candidates = index.candidate_blocks(p, k)
    assert np.all(np.diff(candidates) > 0)
    reachable = (index.mindists(p) <= want_bound) | (index.maxdists(p) <= want_bound)
    assert set(np.nonzero(reachable)[0].tolist()) <= set(candidates.tolist())

    # Procedure 5's clipped form, below, at and above M.
    for cutoff in (0.0, want_bound / 2, want_bound, math.inf):
        got = block_phase(index, p, k, cutoff)
        want = dense_phase(index, p, k, cutoff)
        assert (got[0].tolist(), got[1]) == (want[0].tolist(), want[1])

    got_nbr, want_nbr = get_knn(index, p, k), dense_knn(index, p, k)
    assert got_nbr.pid_array.tolist() == want_nbr.pid_array.tolist()
    assert got_nbr.distance_array.tobytes() == want_nbr.distance_array.tobytes()
    return got_bound


# Half-unit lattice over [-3, 13]: cell edges and corners of every grid below,
# duplicates, exact distance ties and points beyond the declared bounds are
# all likely draws.
lattice = st.integers(min_value=-6, max_value=26).map(lambda v: v / 2.0)
coordinates = st.tuples(lattice, lattice)


@settings(max_examples=150, deadline=None)
@given(
    coords=st.lists(coordinates, min_size=1, max_size=40),
    side=st.sampled_from([1, 2, 3, 4, 5, 8]),
    focal=coordinates,
    k=st.integers(min_value=1, max_value=45),
)
@example(coords=[(5.0, 5.0)] * 12, side=4, focal=(5.0, 5.0), k=5)  # all duplicates
@example(coords=[(5.0, 5.0)] * 12, side=4, focal=(-3.0, 13.0), k=12)
@example(coords=[(12.5, 3.0), (1.0, 1.0)], side=5, focal=(12.5, 3.0), k=1)  # stretched
@example(coords=[(-2.0, -2.0), (12.0, 12.0), (5.0, 5.0)], side=2, focal=(5.0, 5.0), k=3)
@example(coords=[(2.0, 2.0), (8.0, 8.0)], side=1, focal=(20.0, -7.0), k=1)  # 1 x 1
@example(coords=[(2.0, 2.0), (8.0, 8.0)], side=2, focal=(5.0, 5.0), k=2)  # 2 x 2, corner
@example(coords=[(0.5, 0.5), (9.5, 9.5)], side=8, focal=(0.0, 10.0), k=2)
def test_grid_window_equals_dense_phase(coords, side, focal, k):
    index = GridIndex(points_of(coords), cells_per_side=side, bounds=BOUNDS)
    bound = assert_windowed_equals_dense(index, Point(*focal), k)
    assert math.isinf(bound) == (k > len(coords))


class TestPinnedInputs:
    def grid(self, n: int = 500, side: int = 9, seed: int = 7, reach: float = 10.0) -> GridIndex:
        rng = np.random.default_rng(seed)
        return GridIndex(
            points_of(rng.uniform(0.0, reach, size=(n, 2))), cells_per_side=side, bounds=BOUNDS
        )

    @pytest.mark.parametrize(
        "focal",
        [
            Point(-40.0, 5.0),  # far outside the declared bounds
            Point(10.0, 10.0),  # the grid's max corner
            Point(0.0, 0.0),
            Point(10.0 / 9 * 4, 10.0 / 9 * 5),  # an interior cell corner
            Point(10.0 / 9 * 4, 3.3),  # a cell edge
            Point(11.0, -2.0),
        ],
    )
    @pytest.mark.parametrize("k", [1, 7, 64, 499, 500])
    def test_focals_on_edges_corners_and_outside(self, focal, k):
        assert_windowed_equals_dense(self.grid(), focal, k)

    def test_window_is_smaller_than_the_grid(self):
        """The point of the hook: a small k reaches a few cells, not all."""
        index = self.grid(n=5000, side=30)
        candidates = index.candidate_blocks(Point(5.0, 5.0), 8)
        assert len(candidates) * 10 < index.num_blocks
        assert_windowed_equals_dense(index, Point(5.0, 5.0), 8)

    def test_k_at_least_the_population_keeps_every_block(self):
        index = self.grid(n=30)
        for k in (31, 1000):
            ids, bound = block_phase(index, Point(3.0, 3.0), k)
            assert math.isinf(bound)
            assert ids.tolist() == np.nonzero(index.block_counts)[0].tolist()
            assert len(index.candidate_blocks(Point(3.0, 3.0), k)) == index.num_blocks
        assert_windowed_equals_dense(index, Point(3.0, 3.0), 30)

    def test_points_beyond_the_bounds_stretch_the_border_cells(self):
        index = self.grid(n=300, side=6, reach=14.0)  # a third of the data is outside
        assert index.bounds != BOUNDS
        for focal in (Point(13.5, 13.5), Point(10.5, 2.0), Point(5.0, 5.0), Point(30.0, 30.0)):
            for k in (1, 20, 150):
                assert_windowed_equals_dense(index, focal, k)

    def test_block_at_mindist_exactly_the_bound_is_kept(self):
        """k = 1 from a grid corner: M is the focal cell's diagonal, and the
        diagonal neighbour's MINDIST is that same ``hypot(1, 1)``."""
        index = GridIndex(
            points_of([(0.5, 0.5), (1.5, 1.5), (3.5, 3.5)]),
            cells_per_side=4,
            bounds=Rect(0.0, 0.0, 4.0, 4.0),
        )
        focal = Point(0.0, 0.0)
        ids, bound = block_phase(index, focal, 1)
        assert bound == math.hypot(1.0, 1.0) == float(index.mindists(focal)[5])
        assert ids.tolist() == [0, 5]
        assert_windowed_equals_dense(index, focal, 1)

    def test_repaired_index_windows_over_the_new_counts(self):
        rng = np.random.default_rng(3)
        ds = Dataset(
            "d", points_of(rng.uniform(0.0, 10.0, size=(400, 2))), bounds=BOUNDS, cells_per_side=8
        )
        before = ds.index
        # Empty the focal's surroundings: every point of the lower-left
        # corner moves to the far corner, 30 new ones land in one cell.
        moves = [(p.pid, 9.9, 9.9) for p in ds.store.iter_points() if p.x < 3.5 and p.y < 3.5]
        ds.apply_update(
            UpdateBatch(inserts=[(7.3, 2.2)] * 30, removes=[moves.pop()[0]], moves=moves)
        )
        after = ds.index
        assert ds.index_repairs == 1 and after is not before
        assert after.bound_columns is before.bound_columns  # shared with the parent
        for focal in (Point(1.0, 1.0), Point(7.3, 2.2), Point(9.9, 9.9)):
            for k in (1, 30, 31, 200):
                assert_windowed_equals_dense(after, focal, k)
        fresh = GridIndex(ds.store, cells_per_side=8, bounds=BOUNDS)
        assert block_phase(after, Point(1.0, 1.0), 30)[0].tolist() == (
            block_phase(fresh, Point(1.0, 1.0), 30)[0].tolist()
        )

    @pytest.mark.parametrize("index_type", [QuadtreeIndex, RTreeIndex])
    def test_structural_indexes_keep_the_dense_phase(self, index_type):
        rng = np.random.default_rng(11)
        index = index_type(points_of(rng.uniform(0.0, 10.0, size=(300, 2))))
        for focal in (Point(5.0, 5.0), Point(-4.0, 12.0)):
            for k in (1, 40, 300, 301):
                assert len(index.candidate_blocks(focal, k)) == index.num_blocks
                assert_windowed_equals_dense(index, focal, k)


class TestFirstQueryOnThreads:
    """``run_many`` issues queries on threads over a fresh index: the tables
    the window reads must be complete before the index is visible."""

    def first_get_knn_on_threads(self, index: GridIndex) -> None:
        want = dense_knn(index, Point(4.0, 6.0), 20).pid_array.tolist()
        barrier = threading.Barrier(8, timeout=30)
        got: list = [None] * 8

        def worker(slot: int) -> None:
            try:
                barrier.wait()
                got[slot] = get_knn(index, Point(4.0, 6.0), 20).pid_array.tolist()
            except Exception as exc:  # surfaced by the assertion below
                got[slot] = exc

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [want] * 8

    def test_fresh_index(self):
        rng = np.random.default_rng(5)
        self.first_get_knn_on_threads(
            GridIndex(
                points_of(rng.uniform(0.0, 10.0, size=(600, 2))), cells_per_side=10, bounds=BOUNDS
            )
        )

    def test_repaired_index(self):
        rng = np.random.default_rng(6)
        ds = Dataset(
            "d", points_of(rng.uniform(0.0, 10.0, size=(600, 2))), bounds=BOUNDS, cells_per_side=10
        )
        ds.index
        ds.move([(pid, 4.0, 6.0) for pid in range(25)])
        assert ds.index_repairs == 1
        self.first_get_knn_on_threads(ds.index)


class TestColumnarSelectTails:
    def store_and_index(self, n: int = 300, seed: int = 21, start_pid: int = 50):
        rng = np.random.default_rng(seed)
        store = PointStore.from_points(points_of(rng.uniform(0.0, 10.0, size=(n, 2)), start_pid))
        return store, GridIndex(store, cells_per_side=6, bounds=BOUNDS)

    def eager(self, nbr: Neighborhood) -> Neighborhood:
        """The same neighbourhood over a compact store of its own (as a
        cross-shard merge or an unpickled result is)."""
        return Neighborhood(nbr.center, nbr.k, nbr.points, nbr.distances)

    def by_pid(self, first: Neighborhood, second: Neighborhood) -> list[int]:
        return [p.pid for p in first.points if p.pid in second.pids]

    @pytest.mark.parametrize("k1,k2", [(10, 80), (80, 10), (40, 40), (300, 5), (1, 1)])
    def test_intersection_rows_path_equals_pid_path(self, k1, k2):
        store, index = self.store_and_index()
        first = get_knn(index, Point(4.0, 4.0), k1)
        second = get_knn(index, Point(5.0, 4.5), k2)
        want = self.by_pid(first, second)
        assert first.store is second.store is store
        assert [p.pid for p in first.intersection(second)] == want
        # Eager on either side, or on both: matched by pid, same answer.
        for a, b in (
            (self.eager(first), second),
            (first, self.eager(second)),
            (self.eager(first), self.eager(second)),
        ):
            assert [p.pid for p in a.intersection(b)] == want

    def test_intersection_across_stores_matches_pids_not_rows(self):
        """Two stores holding the same pids at different rows."""
        store, index = self.store_and_index()
        shuffled = PointStore.from_points(list(store.iter_points())[::-1])
        other = GridIndex(shuffled, cells_per_side=6, bounds=BOUNDS)
        first = get_knn(index, Point(4.0, 4.0), 30)
        second = get_knn(other, Point(5.0, 4.5), 60)
        assert first.store is not second.store
        want = self.by_pid(first, second)
        assert want and [p.pid for p in first.intersection(second)] == want
        assert first.intersection(get_knn(other, Point(9.9, 0.1), 3)) == []

    def test_intersection_with_an_empty_operand(self):
        _store, index = self.store_and_index()
        full = get_knn(index, Point(4.0, 4.0), 10)
        empty = Neighborhood(Point(0.0, 0.0), 3, [], [])
        assert full.intersection(empty) == [] == empty.intersection(full)

    def test_within_equals_the_contains_point_comprehension(self):
        """Window edges pass through member coordinates: the closed-rectangle
        test must keep exactly the points ``contains_point`` keeps."""
        store, index = self.store_and_index()
        nbr = get_knn(index, Point(5.0, 5.0), 120)
        xs = np.sort(store.xs[nbr.rows])
        ys = np.sort(store.ys[nbr.rows])
        windows = [
            Rect(float(xs[10]), float(ys[10]), float(xs[90]), float(ys[90])),  # edges on members
            Rect(float(xs[40]), float(ys[0]), float(xs[40]), float(ys[-1])),  # zero width
            Rect(0.0, 0.0, 10.0, 10.0),
            Rect(20.0, 20.0, 30.0, 30.0),  # nothing survives
        ]
        for window in windows:
            want = [p for p in nbr.points if window.contains_point(p)]
            assert nbr.within(window) == want
            assert self.eager(nbr).within(window) == want
        assert len(nbr.within(windows[0])) > 0 and len(nbr.within(windows[1])) > 0
        assert Neighborhood(Point(0.0, 0.0), 3, [], []).within(windows[2]) == []

    def test_within_materializes_survivors_only(self):
        _store, index = self.store_and_index(seed=22)
        nbr = get_knn(index, Point(5.0, 5.0), 200)
        survivors = nbr.within(Rect(4.5, 4.5, 5.5, 5.5))
        assert 0 < len(survivors) < 200
        assert nbr._points is None  # the neighbourhood itself stayed lazy
