"""Batched kNN with a seed stage and grouped ranking equals per-point ``get_knn``.

``get_knn_batch`` ranks every focal over its seed blocks first, tightens the
locality to the exact k-th distance, and ranks focals that share a block set
with one grouped ``knn_head`` call.  None of that may show: the answers are
the per-point ones (rows and float distances), whatever the data, the grid,
the input form — and the dispatch count and peak memory stay pinned.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.index.grid import GridIndex
from repro.index.quadtree import QuadtreeIndex
from repro.index.rtree import RTreeIndex
from repro.kernels import dispatch
from repro.locality.batch import get_knn_batch
from repro.locality.brute import brute_force_knn
from repro.locality.knn import get_knn
from repro.query.dataset import Dataset


def points_of(coords, start_pid: int = 0) -> list[Point]:
    return [Point(float(x), float(y), start_pid + i) for i, (x, y) in enumerate(coords)]


def uniform_points(n: int, seed: int, extent: float = 100.0) -> list[Point]:
    return points_of(np.random.default_rng(seed).uniform(0.0, extent, size=(n, 2)))


def assert_batch_equals_pointwise(index, queries, k):
    """Same rows, same float distances, same order as one ``get_knn`` per query."""
    batched = get_knn_batch(index, queries, k)
    assert len(batched) == len(queries)
    for q, got in zip(queries, batched):
        center = q if isinstance(q, Point) else Point(float(q[0]), float(q[1]))
        want = get_knn(index, center, k)
        assert got.rows.tolist() == want.rows.tolist()
        assert got.distance_array.tobytes() == want.distance_array.tobytes()
        assert (got.center.x, got.center.y, got.k) == (center.x, center.y, k)
    return batched


@pytest.fixture(scope="module")
def dense_index():
    """4k points over 7x7 cells: a seed block holds far more than k points."""
    return GridIndex(uniform_points(4000, seed=1), cells_per_side=7)


@pytest.fixture(scope="module")
def fine_index():
    """4k points over 40x40 cells: seeds span several blocks, groups are rare."""
    return GridIndex(uniform_points(4000, seed=2), cells_per_side=40)


@pytest.mark.parametrize("k", [1, 4, 37, 300])
def test_coarse_dense_grid(dense_index, k):
    queries = np.random.default_rng(21).uniform(-10.0, 110.0, size=(300, 2))
    assert_batch_equals_pointwise(dense_index, queries, k)


@pytest.mark.parametrize("k", [1, 4, 37])
def test_fine_grid(fine_index, k):
    queries = np.random.default_rng(22).uniform(0.0, 100.0, size=(300, 2))
    assert_batch_equals_pointwise(fine_index, queries, k)


@pytest.mark.parametrize("index_cls", [QuadtreeIndex, RTreeIndex])
def test_structural_indexes(index_cls):
    index = index_cls(uniform_points(1500, seed=3))
    queries = np.random.default_rng(23).uniform(0.0, 100.0, size=(120, 2))
    assert_batch_equals_pointwise(index, queries, 6)


def test_lattice_neighbour_block_at_exactly_the_kth_distance():
    # Integer lattice over 2-wide cells.  From (1, 1) the seed cell [0,2)x[0,2)
    # already holds k = 3 points; the k-th distance is exactly 1 and so is the
    # MINDIST of the cell to the right, whose point (2, 1) ties at distance 1
    # and wins on pid — it is found only if that block joins the locality.
    coords = [(x, y) for x in range(9) for y in range(9)]
    pids = {c: 1000 + i for i, c in enumerate(coords)}
    pids[(2, 1)] = 1
    pts = [Point(float(x), float(y), pids[(x, y)]) for x, y in coords]
    index = GridIndex(pts, cells_per_side=4, bounds=Rect(0.0, 0.0, 8.0, 8.0))
    assert index.locate(Point(2.0, 1.0)) is not index.locate(Point(1.0, 1.0))
    (nbr,) = assert_batch_equals_pointwise(index, [Point(1.0, 1.0)], 3)
    assert nbr.pid_array.tolist()[:2] == [pids[(1, 1)], 1]
    # Every lattice point and every cell corner as a focal, grouped in one batch.
    queries = np.array(coords + [(x + 0.5, y + 0.5) for x, y in coords], dtype=np.float64)
    for k in (1, 3, 5, 9):
        assert_batch_equals_pointwise(index, queries, k)


def test_all_duplicate_coordinates():
    pids = [9, 3, 7, 1, 8, 2] + list(range(100, 140))
    index = GridIndex([Point(5.0, 5.0, pid) for pid in pids], cells_per_side=3)
    queries = [Point(5.0, 5.0), Point(0.0, 0.0), Point(5.0, 9.0), Point(5.0, 5.0)]
    batched = assert_batch_equals_pointwise(index, queries, 4)
    assert batched[0].pid_array.tolist() == [1, 2, 3, 7]
    assert batched[0].distance_array.tolist() == [0.0] * 4


def test_points_outside_the_declared_bounds():
    rng = np.random.default_rng(4)
    inside = rng.uniform(0.0, 100.0, size=(600, 2))
    outside = rng.uniform(-400.0, 500.0, size=(80, 2))
    pts = points_of(np.vstack((inside, outside)))
    index = GridIndex(pts, cells_per_side=5, bounds=Rect(0.0, 0.0, 100.0, 100.0))
    queries = rng.uniform(-450.0, 550.0, size=(200, 2))
    batched = assert_batch_equals_pointwise(index, queries, 5)
    for q, nbr in zip(queries[:20], batched):
        want = brute_force_knn(pts, Point(float(q[0]), float(q[1])), 5)
        assert nbr.pid_array.tolist() == [p.pid for p in want]


def test_k_larger_than_the_population():
    small = GridIndex(uniform_points(9, seed=5), cells_per_side=3)
    queries = np.random.default_rng(25).uniform(0.0, 100.0, size=(12, 2))
    for nbr in assert_batch_equals_pointwise(small, queries, 50):
        assert len(nbr) == 9 and not nbr.is_full


def test_array_and_point_inputs_agree_and_keep_input_order(dense_index):
    rng = np.random.default_rng(26)
    # Interleave two far-apart clusters so grouping has to scatter results
    # back into input positions.
    a = rng.uniform(10.0, 12.0, size=(40, 2))
    b = rng.uniform(80.0, 82.0, size=(40, 2))
    coords = np.empty((80, 2))
    coords[0::2], coords[1::2] = a, b
    as_points = [Point(float(x), float(y), 5000 + i) for i, (x, y) in enumerate(coords)]
    from_array = assert_batch_equals_pointwise(dense_index, coords, 4)
    from_points = assert_batch_equals_pointwise(dense_index, as_points, 4)
    for q, arr_nbr, pt_nbr in zip(as_points, from_array, from_points):
        assert pt_nbr.center is q
        assert arr_nbr.center.pid == -1
        assert arr_nbr.rows.tolist() == pt_nbr.rows.tolist()


def knn_head_dispatches(fn) -> float:
    before = dispatch.counter_values()
    fn()
    return sum(
        d["delta"]
        for d in dispatch.counter_deltas(before)
        if d["labels"]["kernel"] == "knn_head"
    )


def test_co_located_focals_share_one_dispatch(dense_index):
    # 256 focals in the middle of one cell: one seed block set, no tightened
    # locality beyond it — one grouped call where the per-focal loop made 256.
    block = dense_index.locate(Point(50.0, 50.0))
    cx, cy = block.rect.center.x, block.rect.center.y
    queries = np.random.default_rng(27).uniform(-0.5, 0.5, size=(256, 2)) + (cx, cy)
    calls = knn_head_dispatches(lambda: get_knn_batch(dense_index, queries, 4))
    assert 1 <= calls <= 4
    assert_batch_equals_pointwise(dense_index, queries, 4)


def traced_peak_mib(fn) -> float:
    fn()  # warm caches (block member arrays, lazily built store columns)
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_peak_memory_of_a_batch_stays_bounded(dense_index):
    queries = np.random.default_rng(28).uniform(0.0, 100.0, size=(800, 2))
    # Parent 1.8 MiB: the grouped scratch is two 64k-element buffers.
    assert traced_peak_mib(lambda: get_knn_batch(dense_index, queries, 4)) < 4.0
    # 625 blocks: the (256 x blocks) matrices of the block phase dominate
    # (parent 18.7 MiB), not the ranking.
    wide = GridIndex(uniform_points(40_000, seed=6), cells_per_side=25)
    assert traced_peak_mib(lambda: get_knn_batch(wide, queries, 4)) < 24.0


def test_block_members_are_cached_and_follow_a_repair():
    ds = Dataset("d", uniform_points(400, seed=7), index_kind="grid")
    index = ds.index
    members = index.block_members
    assert members is index.block_members
    assert all(m is b.member_ids for m, b in zip(members, index.blocks))
    ds.move([(0, 99.0, 99.0), (1, 0.5, 0.5)])
    repaired = ds.index
    assert repaired is not index and ds.index_repairs == 1
    assert all(m is b.member_ids for m, b in zip(repaired.block_members, repaired.blocks))
    queries = np.array([[99.0, 99.0], [0.5, 0.5], [50.0, 50.0]])
    assert_batch_equals_pointwise(repaired, queries, 3)
