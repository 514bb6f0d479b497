"""Regression tests: small mutations repair the index instead of rebuilding.

The seed behaviour rebuilt the full index on *every* mutation — interleaved
small ``extend`` / ``remove`` batches each paid an O(n log n) rebuild.  These
tests pin the incremental fast path: small batches bump
``Dataset.index_repairs`` (localized block repair), leave
``Dataset.index_rebuilds`` untouched, and produce an index block-identical to
a from-scratch build over the same store and geometry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.index.grid import GridIndex
from repro.query.dataset import Dataset
from repro.storage.update import StoreChange, UpdateBatch

BOUNDS = Rect(0.0, 0.0, 100.0, 100.0)


def make_dataset(n: int = 400, **kwargs) -> Dataset:
    rng = np.random.default_rng(42)
    pts = [
        Point(float(x), float(y), i)
        for i, (x, y) in enumerate(rng.uniform(0.0, 100.0, size=(n, 2)))
    ]
    kwargs.setdefault("bounds", BOUNDS)
    return Dataset("d", pts, **kwargs)


def assert_grid_equals_fresh(current: GridIndex) -> None:
    """``current`` must equal a grid built from scratch over its store:
    the CSR pair, the tables derived from it, and every block view."""
    fresh = GridIndex(
        current.store,
        cells_per_side=current.cells_per_side,
        bounds=current._grid_bounds,
    )
    assert current.num_points == fresh.num_points == len(current.store)
    for name in ("member_rows", "offsets", "block_counts", "row_block_ids", "bound_columns"):
        mine, built = getattr(current, name), getattr(fresh, name)
        assert mine.dtype == built.dtype, name
        assert np.array_equal(mine, built), name
    assert np.array_equal(current._count_table, fresh._count_table)
    assert current.num_blocks == fresh.num_blocks
    for mine, built in zip(current.blocks, fresh.blocks):
        assert (mine.block_id, mine.rect, mine.tag) == (built.block_id, built.rect, built.tag)
        assert mine.store is current.store
        assert np.array_equal(mine.member_ids, built.member_ids)


def assert_blocks_match_rebuild(ds: Dataset) -> None:
    """The live (repaired) index must equal a full rebuild, block by block."""
    assert ds.index.store is ds.store
    assert_grid_equals_fresh(ds.index)


class TestRepairCounters:
    def test_interleaved_small_batches_never_rebuild(self):
        """The satellite regression: extend/remove interleaving = zero rebuilds."""
        ds = make_dataset(cells_per_side=8)
        ds.index
        assert (ds.index_rebuilds, ds.index_repairs) == (1, 0)
        for i in range(10):
            ds.extend([(float(i), float(i)), (50.0 + i, 50.0 - i)])
            ds.remove([2 * i, 2 * i + 1])
            ds.index  # access after every mutation, as the engine does
        assert ds.index_rebuilds == 1  # the initial build only
        assert ds.index_repairs == 20
        assert_blocks_match_rebuild(ds)

    def test_move_batches_repair(self):
        ds = make_dataset(cells_per_side=8)
        ds.index
        moved = ds.move([(0, 99.0, 99.0), (7, 1.0, 2.0), (123456, 5.0, 5.0)])
        assert moved == 2  # unknown pid ignored
        ds.index
        assert (ds.index_rebuilds, ds.index_repairs) == (1, 1)
        assert_blocks_match_rebuild(ds)

    def test_mixed_apply_update_is_one_repair(self):
        ds = make_dataset(cells_per_side=8)
        ds.index
        applied = ds.apply_update(
            UpdateBatch(inserts=[(3.0, 3.0)], removes=[5], moves=[(9, 80.0, 80.0)])
        )
        assert applied.size == 3
        ds.index
        assert (ds.index_rebuilds, ds.index_repairs) == (1, 1)
        assert_blocks_match_rebuild(ds)

    def test_large_batch_falls_back_to_rebuild(self):
        ds = make_dataset(n=100, cells_per_side=4)
        ds.index
        ds.extend([(float(i % 10), float(i // 10)) for i in range(80)])
        ds.index
        assert ds.index_repairs == 0
        assert ds.index_rebuilds == 2

    def test_lazy_dataset_pays_no_repair(self):
        """Mutating before the first index build must not build one."""
        ds = make_dataset(cells_per_side=8)
        ds.extend([(1.0, 1.0)])
        assert (ds.index_rebuilds, ds.index_repairs) == (0, 0)
        ds.index
        assert (ds.index_rebuilds, ds.index_repairs) == (1, 0)


class TestRepairCorrectness:
    def test_out_of_bounds_placement_declines_repair(self):
        """A point leaving the indexed extent must force a full rebuild.

        Clamping it into an edge cell whose rectangle does not contain it
        would break the MINDIST lower bound the locality search relies on.
        """
        ds = make_dataset(cells_per_side=8, bounds=None)  # bounds derived from data
        ds.index
        ds.move([(3, 500.0, 500.0)])
        ds.index
        assert ds.index_repairs == 0
        assert ds.index_rebuilds == 2
        assert ds.index.bounds.contains_point(ds.store.point_at(ds.store.rows_of_pids([3])[0]))

    def test_structural_indexes_decline_repair(self):
        for kind in ("quadtree", "rtree"):
            ds = make_dataset(index_kind=kind)
            ds.index
            ds.extend([(1.0, 1.0)])
            ds.index
            assert ds.index_repairs == 0, kind
            assert ds.index_rebuilds == 2, kind

    def test_repaired_version_still_bumps_and_blocks_share_new_store(self):
        ds = make_dataset(cells_per_side=8)
        ds.index
        v = ds.version
        ds.move([(0, 99.0, 99.0)])
        assert ds.version == v + 1
        index = ds.index
        assert index.store is ds.store
        for block in index.blocks:
            assert block.store is ds.store

    def test_repair_knn_parity_under_churn(self):
        from repro.locality.knn import get_knn

        rng = np.random.default_rng(3)
        ds = make_dataset(cells_per_side=6)
        ds.index
        for step in range(12):
            alive = ds.store.pids
            moves = [
                (int(alive[i]), float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
                for i in rng.choice(len(alive), size=4, replace=False)
            ]
            removes = [
                int(alive[i])
                for i in rng.choice(len(alive), size=2, replace=False)
                if int(alive[i]) not in {m[0] for m in moves}
            ]
            ds.apply_update(
                UpdateBatch(inserts=[(float(rng.uniform(0, 100)), 5.0)], removes=removes, moves=moves)
            )
            focal = Point(float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
            got = get_knn(ds.index, focal, 7)
            fresh = get_knn(
                GridIndex(ds.store, cells_per_side=6, bounds=ds.index.bounds), focal, 7
            )
            assert got.distances == fresh.distances
            assert [p.pid for p in got] == [p.pid for p in fresh]
        assert ds.index_repairs == 12 and ds.index_rebuilds == 1


class TestApplyUpdateSemantics:
    def test_effective_columns(self):
        ds = make_dataset(n=10, cells_per_side=2)
        old_xs = {int(p): (float(x), float(y)) for p, x, y in zip(ds.store.pids, ds.store.xs, ds.store.ys)}
        applied = ds.apply_update(
            UpdateBatch(inserts=[(7.5, 7.5)], removes=[4, 999], moves=[(2, 1.5, 1.5)])
        )
        assert applied.removed_pids.tolist() == [4]
        assert (applied.removed_xs[0], applied.removed_ys[0]) == old_xs[4]
        assert applied.moved_pids.tolist() == [2]
        assert (applied.moved_old_xs[0], applied.moved_old_ys[0]) == old_xs[2]
        assert (applied.moved_new_xs[0], applied.moved_new_ys[0]) == (1.5, 1.5)
        assert applied.inserted_pids.tolist() == [10]

    def test_fresh_pids_never_reuse_removed_max(self):
        ds = make_dataset(n=5, cells_per_side=2)
        applied = ds.apply_update(UpdateBatch(inserts=[(1.0, 1.0)], removes=[4]))
        assert applied.inserted_pids.tolist() == [5]

    def test_noop_batch_keeps_version(self):
        ds = make_dataset(n=5, cells_per_side=2)
        v = ds.version
        applied = ds.apply_update(UpdateBatch(removes=[999], moves=[(998, 1.0, 1.0)]))
        assert applied.is_empty and ds.version == v

    def test_emptying_batch_rejected(self):
        from repro.exceptions import EmptyDatasetError

        ds = make_dataset(n=3, cells_per_side=2)
        with pytest.raises(EmptyDatasetError):
            ds.apply_update(UpdateBatch(removes=[0, 1, 2]))

    def test_remove_all_while_inserting_is_allowed(self):
        ds = make_dataset(n=3, cells_per_side=2)
        applied = ds.apply_update(UpdateBatch(inserts=[(1.0, 1.0)], removes=[0, 1, 2]))
        assert len(ds) == 1 and applied.inserted_pids.tolist() == [3]


def test_store_change_offered_only_when_index_built():
    """StoreChange plumbing: repairs only happen against a live index."""
    ds = make_dataset(cells_per_side=8)
    assert ds.index.repaired(ds.store, StoreChange()) is not None
