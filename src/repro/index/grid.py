"""Uniform grid index.

This is the index used in the paper's evaluation (Section 6): "We index the
data points into a simple grid.  Since our algorithms are independent of a
specific indexing structure, we choose a grid in order to be able to see the
effectiveness of our algorithms even with simple structures."

The grid partitions the dataset bounds into ``cells_per_side x cells_per_side``
equal cells.  Every cell is a block, including empty cells (empty blocks are
kept so that MINDIST/MAXDIST contours are complete; they carry a zero count
and are skipped quickly by every algorithm), so a block's id is always its
row-major cell number ``iy * cells_per_side + ix`` — which is what lets
:meth:`GridIndex.candidate_blocks` name the blocks a locality can reach by
cell arithmetic alone.

Construction is columnar: the builder accepts a
:class:`~repro.storage.pointstore.PointStore` (or any iterable of points,
which it shreds into one), assigns every row to its cell with one vectorized
pass over the coordinate columns, and hands each block an ``int32`` member-row
array — no per-point Python objects are touched while building.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.exceptions import EmptyDatasetError, InvalidParameterError
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.index.base import SpatialIndex
from repro.index.block import Block
from repro.storage.pointstore import PointStore
from repro.storage.update import StoreChange

__all__ = ["GridIndex"]


def _clamped_index(offset: float, width: float, last: int) -> int:
    """Cell number of ``offset`` along one axis, clamped to ``0..last``."""
    if width > 0:
        cells = offset / width
        if cells >= last:
            return last
        if cells > 0:
            return int(cells)
    return 0


def _count_table(counts: np.ndarray, side: int) -> np.ndarray:
    """Summed-area table of the per-cell counts: ``table[y, x]`` is the number
    of points in cells ``[0, x) x [0, y)``, so any cell window sums in four
    lookups."""
    table = np.zeros((side + 1, side + 1), dtype=np.int64)
    np.cumsum(np.cumsum(counts.reshape(side, side), axis=0), axis=1, out=table[1:, 1:])
    return table


def _group_by_cell(cells: np.ndarray, rows: np.ndarray) -> dict[int, np.ndarray]:
    """Group aligned ``(cell_id, row)`` pairs into cell id → row array."""
    if not len(rows):
        return {}
    order = np.argsort(cells, kind="stable")
    sorted_cells = cells[order]
    sorted_rows = rows[order]
    boundaries = np.nonzero(np.diff(sorted_cells))[0] + 1
    return {
        int(sorted_cells[start]): group
        for start, group in zip(
            np.concatenate(([0], boundaries)), np.split(sorted_rows, boundaries)
        )
    }


class GridIndex(SpatialIndex):
    """A uniform grid over the bounding rectangle of the indexed points.

    Parameters
    ----------
    points:
        The points to index — a :class:`PointStore` or an iterable of
        :class:`Point`.
    cells_per_side:
        Number of cells along each axis.  If omitted, a value is derived from
        the dataset size targeting roughly ``target_points_per_cell`` points
        per non-empty cell.
    bounds:
        Optional explicit spatial extent.  Supplying the same bounds for
        several datasets makes their grids share the same cell decomposition,
        which is what the paper assumes for the unchained-join Candidate/Safe
        block marking (see DESIGN.md note 2).
    target_points_per_cell:
        Sizing hint used only when ``cells_per_side`` is not given.
    """

    def __init__(
        self,
        points: Iterable[Point] | PointStore,
        cells_per_side: int | None = None,
        bounds: Rect | None = None,
        target_points_per_cell: int = 64,
    ) -> None:
        super().__init__()
        store = self._as_store(points)
        n = len(store)
        if n == 0:
            raise EmptyDatasetError("GridIndex requires at least one point")
        if bounds is None:
            bounds = Rect(
                float(store.xs.min()),
                float(store.ys.min()),
                float(store.xs.max()),
                float(store.ys.max()),
            )
            # Grow degenerate bounds slightly so every point falls strictly inside.
            if bounds.width == 0 or bounds.height == 0:
                bounds = bounds.expand(max(1e-9, 0.5))
        if cells_per_side is None:
            if target_points_per_cell <= 0:
                raise InvalidParameterError("target_points_per_cell must be positive")
            cells_per_side = max(1, int(math.sqrt(n / target_points_per_cell)))
        if cells_per_side <= 0:
            raise InvalidParameterError("cells_per_side must be positive")

        self.cells_per_side = int(cells_per_side)
        self._cell_width = bounds.width / self.cells_per_side
        self._cell_height = bounds.height / self.cells_per_side
        self._grid_bounds = bounds
        # Points outside explicit bounds are clamped into border cells; the
        # border cells' rectangles reach out to the data's extent so every
        # block rectangle contains its members, which MINDIST ordering and
        # window pruning both rely on.  Cell arithmetic is unaffected.
        extent = bounds.union(
            Rect(
                float(store.xs.min()),
                float(store.ys.min()),
                float(store.xs.max()),
                float(store.ys.max()),
            )
        )

        # Vectorized cell assignment over the coordinate columns.
        ix, iy = self._cells_of(store.xs, store.ys, bounds)
        cell_ids = iy * self.cells_per_side + ix
        # Stable sort groups member rows per cell while preserving the input
        # (store) order inside each cell — identical to the per-point append
        # order of the object-path builder.
        order = np.argsort(cell_ids, kind="stable").astype(np.int32)
        sorted_cells = cell_ids[order]
        boundaries = np.nonzero(np.diff(sorted_cells))[0] + 1
        groups = np.split(order, boundaries)
        members_by_cell: dict[int, np.ndarray] = {
            int(sorted_cells[start]): group
            for start, group in zip(np.concatenate(([0], boundaries)), groups)
        }

        # One block per cell in row-major order: block id == cell number.
        blocks = [
            Block(
                cy * self.cells_per_side + cx,
                self._cell_rect(cx, cy, bounds, extent),
                tag=(cx, cy),
                store=store,
                members=members_by_cell.get(cy * self.cells_per_side + cx),
            )
            for cy in range(self.cells_per_side)
            for cx in range(self.cells_per_side)
        ]
        self._finalize(blocks, extent, store=store)
        self._count_table = _count_table(self._block_counts, self.cells_per_side)

    # ------------------------------------------------------------------
    # Cell arithmetic
    # ------------------------------------------------------------------
    def _cells_of(
        self, xs: np.ndarray, ys: np.ndarray, bounds: Rect
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ``(ix, iy)`` cell assignment, clamped to the grid."""
        last = self.cells_per_side - 1
        if self._cell_width > 0:
            ix = ((xs - bounds.xmin) / self._cell_width).astype(np.int64)
            np.clip(ix, 0, last, out=ix)
        else:
            ix = np.zeros(len(xs), dtype=np.int64)
        if self._cell_height > 0:
            iy = ((ys - bounds.ymin) / self._cell_height).astype(np.int64)
            np.clip(iy, 0, last, out=iy)
        else:
            iy = np.zeros(len(ys), dtype=np.int64)
        return ix, iy

    def _clamped_cell(self, x: float, y: float) -> tuple[int, int]:
        """The ``(ix, iy)`` cell of a coordinate, clamped to the grid (the
        scalar twin of :meth:`_cells_of`)."""
        bounds = self._grid_bounds
        last = self.cells_per_side - 1
        return (
            _clamped_index(x - bounds.xmin, self._cell_width, last),
            _clamped_index(y - bounds.ymin, self._cell_height, last),
        )

    def _cell_rect(self, ix: int, iy: int, bounds: Rect, extent: Rect) -> Rect:
        last = self.cells_per_side - 1
        x0 = bounds.xmin + ix * self._cell_width
        y0 = bounds.ymin + iy * self._cell_height
        # Border rows/columns snap to the extent: the exact bound when the
        # data lies inside it (no FP gaps), the data's reach when it does not.
        return Rect(
            extent.xmin if ix == 0 else x0,
            extent.ymin if iy == 0 else y0,
            extent.xmax if ix == last else x0 + self._cell_width,
            extent.ymax if iy == last else y0 + self._cell_height,
        )

    # ------------------------------------------------------------------
    # Incremental repair
    # ------------------------------------------------------------------
    def repaired(self, store: PointStore, change: StoreChange) -> "GridIndex | None":
        """Patch only the affected cells instead of rebuilding the grid.

        The grid's decomposition is a pure function of its bounds and
        resolution, so a mutation can never force a re-split: repairing means
        (a) dropping removed and moved-out rows from their old cells,
        (b) renumbering surviving member rows past removal compaction with
        one vectorized ``searchsorted`` per touched array, and (c) inserting
        moved-in and appended rows into their destination cells in ascending
        row order — which makes the repaired member arrays *identical* to a
        full rebuild over ``store`` with this grid's bounds and resolution.
        Unaffected cells keep their member arrays (no copy when nothing was
        removed).

        Declines (returns ``None``) when a new coordinate falls outside the
        grid extent — clamping it into an edge cell whose rectangle does not
        contain it would break the MINDIST lower bound — when the index
        already holds such points (its border rectangles were stretched to
        them, which a rebuild would recompute).
        """
        old_store = self._store
        bounds = self._grid_bounds
        if old_store is None or self._bounds != bounds:
            return None
        removed = np.asarray(change.removed_rows, dtype=np.int64)
        moved_old = np.asarray(change.moved_rows, dtype=np.int64)
        n_new = len(store)
        appended = np.arange(n_new - change.appended, n_new, dtype=np.int64)
        moved_new = change.map_rows(moved_old)

        placed_rows = np.concatenate((moved_new, appended))
        if len(placed_rows):
            px = store.xs[placed_rows]
            py = store.ys[placed_rows]
            inside = (
                (px >= bounds.xmin)
                & (px <= bounds.xmax)
                & (py >= bounds.ymin)
                & (py <= bounds.ymax)
            )
            if not inside.all():
                return None

        def cells(source: PointStore, rows: np.ndarray) -> np.ndarray:
            ix, iy = self._cells_of(source.xs[rows], source.ys[rows], bounds)
            return iy * self.cells_per_side + ix

        moved_from = cells(old_store, moved_old)
        moved_to = cells(store, moved_new)
        crossed = moved_from != moved_to
        drop_cells = np.concatenate((cells(old_store, removed), moved_from[crossed]))
        drop_rows = np.concatenate((removed, moved_old[crossed]))
        add_cells = np.concatenate((moved_to[crossed], cells(store, appended)))
        add_rows = np.concatenate((moved_new[crossed], appended))

        add_by_cell = _group_by_cell(add_cells, add_rows)

        # One boolean drop bitmap over old rows plus (when rows were removed)
        # one O(n) old→new renumber table — each block then repairs with
        # plain gathers, no per-block sorting or set logic.
        drop_flags = np.zeros(len(old_store), dtype=bool)
        drop_flags[drop_rows] = True
        dropped_cells = set(np.unique(drop_cells).tolist())
        has_removals = len(removed) > 0
        if has_removals:
            removed_flags = np.zeros(len(old_store), dtype=np.int64)
            removed_flags[removed] = 1
            new_of_old = np.arange(len(old_store), dtype=np.int64) - np.cumsum(
                removed_flags
            )
        cps = self.cells_per_side
        blocks: list[Block] = []
        counts = np.empty(len(self._blocks), dtype=np.int64)
        for cell, block in enumerate(self._blocks):  # block id == cell number
            members = block._members
            if cell in dropped_cells:
                members = members[~drop_flags[members]]
            if has_removals and len(members):
                members = new_of_old[members].astype(np.int32)
            adds = add_by_cell.get(cell)
            if adds is not None:
                members = np.sort(np.concatenate((members, adds.astype(np.int32))))
            # Direct slot assembly: the loop runs once per cell per mutation,
            # so even Block.__init__'s normalization is measurable overhead.
            repaired_block = Block.__new__(Block)
            repaired_block.block_id = block.block_id
            repaired_block.rect = block.rect
            repaired_block.store = store
            repaired_block._members = members
            repaired_block._points = None
            repaired_block._coords = None
            repaired_block.tag = block.tag
            counts[cell] = len(members)
            blocks.append(repaired_block)

        repaired = GridIndex.__new__(GridIndex)
        SpatialIndex.__init__(repaired)
        repaired.cells_per_side = cps
        repaired._cell_width = self._cell_width
        repaired._cell_height = self._cell_height
        repaired._grid_bounds = bounds
        # Cell rectangles are untouched by any mutation: share the bound
        # tables with the parent index instead of re-deriving them.  Only the
        # counts — and the summed-area table over them — are new, and both
        # are in place before the index is handed to any reader.
        repaired._blocks = tuple(blocks)
        repaired._bounds = bounds
        repaired._store = store
        repaired._block_bounds = self._block_bounds
        repaired._bound_columns = self._bound_columns
        repaired._all_block_ids = self._all_block_ids
        repaired._block_counts = counts
        repaired._count_table = _count_table(counts, cps)
        repaired._num_points = len(store)
        return repaired

    # ------------------------------------------------------------------
    # SpatialIndex interface
    # ------------------------------------------------------------------
    def locate(self, p: Point) -> Block | None:
        """Return the grid cell containing ``p`` (``None`` if outside the index).

        "Outside" is judged against the index extent, not the declared grid
        bounds: a point beyond the bounds that a stretched border cell's
        rectangle reaches is a member of that (clamped) cell.
        """
        if not self.bounds.contains_point(p):
            return None
        ix, iy = self._clamped_cell(p.x, p.y)
        return self._blocks[iy * self.cells_per_side + ix]

    def cell_block(self, ix: int, iy: int) -> Block | None:
        """Return the block for cell ``(ix, iy)`` if it exists."""
        side = self.cells_per_side
        if 0 <= ix < side and 0 <= iy < side:
            return self._blocks[iy * side + ix]
        return None

    def candidate_blocks(self, p: Point, k: int) -> np.ndarray:
        """The cells the locality of ``(p, k)`` can reach, by cell arithmetic.

        Grow a square cell window around ``p``'s (clamped) cell until the
        summed-area table says it holds at least ``k`` points.  Every block of
        the window lies within ``reach`` — the distance from ``p`` to the
        farthest corner of the window's rectangle — so at least ``k`` points
        do, and the exact MAXDIST-phase bound ``M`` cannot exceed ``reach``.
        A block with MINDIST <= ``M`` (which every block with MAXDIST <= ``M``
        is) therefore meets the box ``p ± reach``; the cells of that box,
        padded by one cell against rounding in ``reach``, are returned in
        row-major — ascending id — order.  With fewer than ``k`` points in the
        relation ``M`` is infinite and every block is a candidate.
        """
        if self._num_points < k:
            return self._all_block_ids
        side = self.cells_per_side
        last = side - 1
        cx, cy = self._clamped_cell(p.x, p.y)
        table = self._count_table
        radius = 0
        while True:  # ends: a window covering the grid holds num_points >= k
            x0, x1 = max(cx - radius, 0), min(cx + radius, last)
            y0, y1 = max(cy - radius, 0), min(cy + radius, last)
            held = table[y1 + 1, x1 + 1] - table[y0, x1 + 1] - table[y1 + 1, x0] + table[y0, x0]
            if held >= k:
                break
            radius += 1
        xmin, ymin, xmax, ymax = self._bound_columns
        low, high = y0 * side + x0, y1 * side + x1
        reach = math.hypot(
            max(abs(p.x - xmin[low]), abs(p.x - xmax[high])),
            max(abs(p.y - ymin[low]), abs(p.y - ymax[high])),
        )
        x0, y0 = self._clamped_cell(p.x - reach, p.y - reach)
        x1, y1 = self._clamped_cell(p.x + reach, p.y + reach)
        x0, x1 = max(x0 - 1, 0), min(x1 + 1, last)
        y0, y1 = max(y0 - 1, 0), min(y1 + 1, last)
        rows = np.arange(y0 * side, (y1 + 1) * side, side, dtype=np.int64)
        return (rows[:, None] + np.arange(x0, x1 + 1, dtype=np.int64)).ravel()

    @property
    def cell_size(self) -> tuple[float, float]:
        """The ``(width, height)`` of each grid cell."""
        return (self._cell_width, self._cell_height)
