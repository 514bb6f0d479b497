"""Unit tests for repro.index.grid.GridIndex."""

from __future__ import annotations

import pytest

from repro.datagen import uniform_points
from repro.exceptions import EmptyDatasetError, InvalidParameterError
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.index.grid import GridIndex

BOUNDS = Rect(0.0, 0.0, 100.0, 100.0)


class TestConstruction:
    def test_requires_points(self):
        with pytest.raises(EmptyDatasetError):
            GridIndex([])

    def test_rejects_bad_cells_per_side(self):
        with pytest.raises(InvalidParameterError):
            GridIndex([Point(1, 1, 0)], cells_per_side=0)

    def test_number_of_blocks(self):
        idx = GridIndex(uniform_points(50, BOUNDS, seed=1), cells_per_side=4, bounds=BOUNDS)
        assert idx.num_blocks == 16

    def test_auto_sizing_produces_at_least_one_cell(self):
        idx = GridIndex([Point(1, 1, 0), Point(2, 2, 1)])
        assert idx.num_blocks >= 1

    def test_block_id_is_the_row_major_cell_number(self):
        """Empty cells are blocks too, so id == ``iy * side + ix`` always."""
        idx = GridIndex([Point(1, 1, 0), Point(99, 99, 1)], cells_per_side=10, bounds=BOUNDS)
        assert idx.num_blocks == 100
        for position, block in enumerate(idx.blocks):
            ix, iy = block.tag
            assert block.block_id == position == iy * 10 + ix
            assert idx.cell_block(ix, iy) is block


class TestPartitioning:
    def test_every_point_lands_in_exactly_one_block(self):
        pts = uniform_points(500, BOUNDS, seed=2)
        idx = GridIndex(pts, cells_per_side=7, bounds=BOUNDS)
        assert sum(b.count for b in idx.blocks) == len(pts)
        assert idx.num_points == len(pts)

    def test_points_inside_their_block_rect(self):
        pts = uniform_points(200, BOUNDS, seed=3)
        idx = GridIndex(pts, cells_per_side=5, bounds=BOUNDS)
        for block in idx.blocks:
            for p in block:
                assert block.rect.contains_point(p)

    def test_blocks_tile_the_bounds(self):
        idx = GridIndex(uniform_points(10, BOUNDS, seed=4), cells_per_side=3, bounds=BOUNDS)
        total_area = sum(b.rect.area for b in idx.blocks)
        assert total_area == pytest.approx(BOUNDS.area)

    def test_boundary_points_are_kept(self):
        pts = [Point(0, 0, 0), Point(100, 100, 1), Point(100, 0, 2), Point(0, 100, 3)]
        idx = GridIndex(pts, cells_per_side=4, bounds=BOUNDS)
        assert idx.num_points == 4


class TestLocate:
    def test_locate_returns_containing_block(self):
        pts = uniform_points(300, BOUNDS, seed=5)
        idx = GridIndex(pts, cells_per_side=6, bounds=BOUNDS)
        for p in pts[:50]:
            block = idx.locate(p)
            assert block is not None
            assert block.rect.contains_point(p)
            assert any(q.pid == p.pid for q in block)

    def test_locate_outside_bounds_returns_none(self):
        idx = GridIndex([Point(1, 1, 0)], cells_per_side=2, bounds=BOUNDS)
        assert idx.locate(Point(500, 500)) is None

    def test_locate_finds_a_member_clamped_into_a_border_cell(self):
        """A point beyond the declared bounds lives in the stretched border
        cell; ``locate`` judged "outside" by the bounds and lost it."""
        stray = Point(12.5, 3.0, 1)
        idx = GridIndex(
            [Point(1.0, 1.0, 0), stray], cells_per_side=5, bounds=Rect(0.0, 0.0, 10.0, 10.0)
        )
        block = idx.locate(stray)
        assert block is not None
        assert block.rect == Rect(8.0, 2.0, 12.5, 4.0)
        assert [p.pid for p in block] == [1]
        # The whole extent is covered; beyond it is still outside.
        assert idx.locate(Point(12.5, 9.0)).tag == (4, 4)
        assert idx.locate(Point(12.6, 3.0)) is None
        assert idx.locate(Point(-0.1, 3.0)) is None

    def test_locate_on_max_boundary(self):
        idx = GridIndex([Point(1, 1, 0)], cells_per_side=4, bounds=BOUNDS)
        assert idx.locate(Point(100, 100)) is not None

    def test_cell_block_lookup(self):
        idx = GridIndex([Point(1, 1, 0)], cells_per_side=4, bounds=BOUNDS)
        assert idx.cell_block(0, 0) is not None
        assert idx.cell_block(99, 99) is None


class TestSharedDecomposition:
    def test_same_bounds_same_cells(self):
        a = GridIndex(uniform_points(100, BOUNDS, seed=6), cells_per_side=5, bounds=BOUNDS)
        b = GridIndex(uniform_points(80, BOUNDS, seed=7), cells_per_side=5, bounds=BOUNDS)
        assert [blk.rect for blk in a.blocks] == [blk.rect for blk in b.blocks]

    def test_cell_size(self):
        idx = GridIndex([Point(1, 1, 0)], cells_per_side=4, bounds=BOUNDS)
        assert idx.cell_size == (25.0, 25.0)
