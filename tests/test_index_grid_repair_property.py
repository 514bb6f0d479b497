"""A repaired grid equals a grid built fresh, after any chain of batches.

``GridIndex.repaired`` edits the index's CSR membership pair with whole-array
operations; every edit it makes must leave exactly what
``GridIndex(store, cells_per_side, bounds)`` builds from the new store —
``member_rows``, ``offsets``, the counts and their summed-area table,
``row_block_ids`` and every block's members.  Coordinates are drawn on a
half-cell lattice so cell edges and the bounds themselves come up often;
points outside the bounds must make the repair decline.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.index.grid import GridIndex
from repro.query.dataset import Dataset
from repro.storage.update import StoreChange, UpdateBatch

from test_dataset_incremental_repair import assert_grid_equals_fresh

BOUNDS = Rect(0.0, 0.0, 8.0, 8.0)
CELLS = 4  # cell edges at 0, 2, 4, 6, 8
#: Half-cell lattice over the bounds: cell interiors, edges and both bounds.
INSIDE = st.integers(0, 16).map(lambda v: v / 2.0)
#: Mostly inside; now and then just outside the bounds.
ANYWHERE = st.one_of(INSIDE, INSIDE, INSIDE, st.sampled_from([-0.5, 8.5]))


def dataset(coords) -> Dataset:
    points = [Point(x, y, pid) for pid, (x, y) in enumerate(coords)]
    ds = Dataset("d", points, index_kind="grid", cells_per_side=CELLS, bounds=BOUNDS)
    ds.index
    return ds


def inside(x: float, y: float) -> bool:
    return BOUNDS.xmin <= x <= BOUNDS.xmax and BOUNDS.ymin <= y <= BOUNDS.ymax


@st.composite
def batch_for(draw, alive: list[int]) -> UpdateBatch:
    movers = draw(st.lists(st.sampled_from(alive), unique=True, max_size=len(alive)))
    rest = [pid for pid in alive if pid not in movers]
    removes = draw(st.lists(st.sampled_from(rest), unique=True, max_size=len(rest))) if rest else []
    inserts = draw(st.lists(st.tuples(ANYWHERE, ANYWHERE), max_size=5))
    if len(removes) == len(alive) and not inserts:
        removes = removes[1:]
    moves = [(pid, *draw(st.tuples(ANYWHERE, ANYWHERE))) for pid in movers]
    return UpdateBatch(inserts=inserts, removes=removes, moves=moves)


@settings(max_examples=150, deadline=None)
@given(
    initial=st.lists(st.tuples(INSIDE, INSIDE), min_size=1, max_size=40),
    data=st.data(),
)
def test_repair_chain_equals_fresh_build(initial, data):
    ds = dataset(initial)
    for _ in range(data.draw(st.integers(1, 6))):
        before = ds.index
        repairs, rebuilds = ds.index_repairs, ds.index_rebuilds
        batch = data.draw(batch_for(ds.store.pids.tolist()))
        if not ds.apply_update(batch).size:  # a no-op batch leaves the index alone
            assert ds.index is before
            continue
        placed = list(zip(batch.insert_xs.tolist(), batch.insert_ys.tolist())) + list(
            zip(batch.move_xs.tolist(), batch.move_ys.tolist())
        )
        repairable = before.bounds == BOUNDS and all(inside(x, y) for x, y in placed)
        ds.index
        if repairable:
            assert (ds.index_repairs, ds.index_rebuilds) == (repairs + 1, rebuilds)
        else:
            assert (ds.index_repairs, ds.index_rebuilds) == (repairs, rebuilds + 1)
        assert_grid_equals_fresh(ds.index)


def repaired(index: GridIndex, store, change: StoreChange) -> GridIndex:
    out = index.repaired(store, change)
    assert out is not None
    assert_grid_equals_fresh(out)
    return out


def test_remove_that_empties_a_cell():
    index = GridIndex(
        [Point(1.0, 1.0, 0), Point(5.0, 5.0, 1), Point(5.5, 5.5, 2), Point(7.0, 1.0, 3)],
        cells_per_side=CELLS,
        bounds=BOUNDS,
    )
    out = repaired(
        index, index.store.without_rows([0]), StoreChange(removed_rows=np.array([0]))
    )
    assert out.block_counts[0] == 0
    assert out.row_block_ids.tolist() == [10, 10, 3]


def test_crossing_moves_and_appends_into_empty_cells():
    index = GridIndex(
        [Point(1.0, 1.0, 0), Point(1.5, 1.5, 1), Point(3.0, 3.0, 2)],
        cells_per_side=CELLS,
        bounds=BOUNDS,
    )
    moved = index.store.moved([1], np.array([7.0]), np.array([7.0]))
    appended = moved.extended(
        index.store.from_points([Point(7.5, 0.5, 3), Point(0.5, 7.5, 4), Point(7.9, 7.9, 5)])
    )
    out = repaired(index, appended, StoreChange(moved_rows=np.array([1]), appended=3))
    assert out.block(15).member_ids.tolist() == [1, 5]
    assert out.member_rows is not index.member_rows


def test_in_cell_moves_share_the_membership():
    index = GridIndex(
        [Point(1.0, 1.0, 0), Point(5.0, 5.0, 1)], cells_per_side=CELLS, bounds=BOUNDS
    )
    store = index.store.moved([0, 1], np.array([1.5, 4.0]), np.array([0.5, 5.9]))
    out = repaired(index, store, StoreChange(moved_rows=np.array([0, 1])))
    assert out.member_rows is index.member_rows
    assert out.block_counts is index.block_counts


def test_edges_and_bounds():
    """Cell edges belong to the upper cell; the upper bound to the last one."""
    index = GridIndex(
        [Point(3.0, 3.0, 0), Point(3.0, 3.0, 1)], cells_per_side=CELLS, bounds=BOUNDS
    )
    store = index.store.moved([0, 1], np.array([2.0, 8.0]), np.array([4.0, 8.0]))
    store = store.extended(index.store.from_points([Point(0.0, 0.0, 2), Point(8.0, 0.0, 3)]))
    out = repaired(index, store, StoreChange(moved_rows=np.array([0, 1]), appended=2))
    assert out.row_block_ids.tolist() == [9, 15, 0, 3]


def test_out_of_bounds_placements_decline():
    index = GridIndex(
        [Point(1.0, 1.0, 0), Point(5.0, 5.0, 1)], cells_per_side=CELLS, bounds=BOUNDS
    )
    moved = index.store.moved([0], np.array([8.5]), np.array([1.0]))
    assert index.repaired(moved, StoreChange(moved_rows=np.array([0]))) is None
    appended = index.store.extended(index.store.from_points([Point(1.0, -0.5, 2)]))
    assert index.repaired(appended, StoreChange(appended=1)) is None
    stretched = GridIndex(
        [Point(1.0, 1.0, 0), Point(9.0, 5.0, 1)], cells_per_side=CELLS, bounds=BOUNDS
    )
    store = stretched.store.moved([0], np.array([2.0]), np.array([2.0]))
    assert stretched.repaired(store, StoreChange(moved_rows=np.array([0]))) is None


def test_push_then_scalar_knn_builds_only_its_blocks():
    from repro.locality.knn import get_knn

    ds = dataset([(x / 2.0, y / 2.0) for x in range(17) for y in range(17)])
    ds.move([(0, 7.5, 7.5)])
    index = ds.index
    get_knn(index, Point(1.0, 1.0), 3)
    built = sum(block is not None for block in index._block_cache)
    assert 0 < built < index.num_blocks
    assert index._blocks is None
