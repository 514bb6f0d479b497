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
pass over the coordinate columns, and sorts the rows by ``(cell, row)`` into
the index's CSR membership pair — no per-point or per-cell Python object is
built; a cell's :class:`Block` is a view cut from the pair when asked for.
A write repairs the pair with a fixed number of whole-array operations
(:meth:`GridIndex.repaired`).
"""

from __future__ import annotations

import copy
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

        # Vectorized cell assignment over the coordinate columns; a stable
        # sort groups the rows per cell in ascending row order.  One block per
        # cell in row-major order: block id == cell number.
        ix, iy = self._cells_of(store.xs, store.ys, bounds)
        cells = iy * self.cells_per_side + ix
        self._set_layout(store, extent, self._cell_bound_columns(bounds, extent))
        counts = np.bincount(cells, minlength=self.cells_per_side**2)
        self._set_membership(
            np.argsort(cells, kind="stable").astype(np.int32), counts, row_block_ids=cells
        )
        self._count_table = _count_table(counts, self.cells_per_side)

    # ------------------------------------------------------------------
    # Cell arithmetic
    # ------------------------------------------------------------------
    def _cells_of(
        self, xs: np.ndarray, ys: np.ndarray, bounds: Rect
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ``(ix, iy)`` cell assignment, clamped to the grid."""
        last = self.cells_per_side - 1
        # ``minimum``/``maximum`` in place: what ``np.clip`` computes, without
        # its per-call overhead (a repair assigns a few hundred rows).
        if self._cell_width > 0:
            ix = ((xs - bounds.xmin) / self._cell_width).astype(np.int64)
            np.maximum(np.minimum(ix, last, out=ix), 0, out=ix)
        else:
            ix = np.zeros(len(xs), dtype=np.int64)
        if self._cell_height > 0:
            iy = ((ys - bounds.ymin) / self._cell_height).astype(np.int64)
            np.maximum(np.minimum(iy, last, out=iy), 0, out=iy)
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

    def _cell_bound_columns(self, bounds: Rect, extent: Rect) -> np.ndarray:
        """The ``(4, cells)`` bound columns of every cell, in block-id order."""
        side = self.cells_per_side
        steps = np.arange(side, dtype=np.float64)
        x0 = bounds.xmin + steps * self._cell_width
        y0 = bounds.ymin + steps * self._cell_height
        x1 = x0 + self._cell_width
        y1 = y0 + self._cell_height
        # Border rows/columns snap to the extent: the exact bound when the
        # data lies inside it (no FP gaps), the data's reach when it does not.
        x0[0], y0[0], x1[-1], y1[-1] = extent.xmin, extent.ymin, extent.xmax, extent.ymax
        return np.stack(
            (np.tile(x0, side), np.repeat(y0, side), np.tile(x1, side), np.repeat(y1, side))
        )

    def _block_tag(self, block_id: int) -> tuple[int, int]:
        iy, ix = divmod(block_id, self.cells_per_side)
        return (ix, iy)

    # ------------------------------------------------------------------
    # Incremental repair
    # ------------------------------------------------------------------
    def repaired(self, store: PointStore, change: StoreChange) -> "GridIndex | None":
        """Patch the membership pair instead of rebuilding the grid.

        The grid's decomposition is a pure function of its bounds and
        resolution, so a mutation can never force a re-split.  Repairing is a
        fixed number of whole-array operations, whatever the number of cells:

        1. the new cells of moved and appended rows (one vectorized pass);
        2. the positions of removed and cell-crossing rows in the CSR rows —
           found by ``searchsorted`` on the ``cell * span + row`` key, which
           the ``(cell, row)`` order keeps sorted — deleted in one pass;
        3. the survivors renumbered past removal compaction (one gather);
        4. the new ``(cell, row)`` keys inserted at their ``searchsorted``
           positions in one pass;
        5. the counts patched with ``add.at``, and one cumsum for the offsets.

        The result is *identical* to a full rebuild over ``store`` with this
        grid's bounds and resolution.  Moves that stay in their cell leave the
        pair as it is (shared with this index, not copied); the bound tables
        are always shared.

        Declines (returns ``None``) when a new coordinate falls outside the
        grid extent — clamping it into an edge cell whose rectangle does not
        contain it would break the MINDIST lower bound — or when the index
        already holds such points (its border rectangles were stretched to
        them, which a rebuild would recompute).
        """
        bounds = self._grid_bounds
        if self._bounds != bounds:
            return None
        removed = np.asarray(change.removed_rows, dtype=np.int64)
        moved_old = np.asarray(change.moved_rows, dtype=np.int64)
        n_new = len(store)
        appended = np.arange(n_new - change.appended, n_new, dtype=np.int64)
        moved_new = change.map_rows(moved_old)

        placed_rows = np.concatenate((moved_new, appended))
        px = store.xs[placed_rows]
        py = store.ys[placed_rows]
        inside = (
            (px >= bounds.xmin) & (px <= bounds.xmax) & (py >= bounds.ymin) & (py <= bounds.ymax)
        )
        if not inside.all():
            return None
        ix, iy = self._cells_of(px, py, bounds)
        placed_cells = iy * self.cells_per_side + ix
        moved_to = placed_cells[: len(moved_new)]

        old_cells = self._row_block_ids
        crossed = old_cells[moved_old] != moved_to
        drop_rows = np.concatenate((removed, moved_old[crossed]))
        drop_cells = old_cells[drop_rows]
        appended_cells = placed_cells[len(moved_new) :]
        add_cells = np.concatenate((moved_to[crossed], appended_cells))

        # The per-row cell column: compact, append, overwrite the moved rows.
        survivors = np.delete(old_cells, removed) if len(removed) else old_cells
        cells = np.concatenate((survivors, appended_cells))
        cells[moved_new] = moved_to

        members = self._member_rows
        counts = self._block_counts
        if len(drop_cells) or len(add_cells):
            # Positions are found in the old numbering, on the key
            # ``cell * span + row`` that the (cell, row) order keeps sorted.
            # Renumbering past the removals keeps every cell's order, and an
            # appended row sorts after every survivor of its cell (its key
            # uses the row ``n_old``), so the old keys place every insertion.
            # The keys are int32 when they fit, which halves the two passes
            # that build and search them.
            n_old = len(self._store)
            span = n_old + 1
            key_type = np.int32 if span * len(counts) <= np.iinfo(np.int32).max else np.int64
            keys = np.repeat((self._all_block_ids * span).astype(key_type), counts) + members
            drop_keys = (drop_cells * span + drop_rows).astype(key_type)
            drop_at = np.sort(np.searchsorted(keys, drop_keys))
            add_old = np.concatenate(
                (moved_old[crossed], np.full(len(appended), n_old, dtype=np.int64))
            )
            add_keys = (add_cells * span + add_old).astype(key_type)
            order = np.argsort(add_keys, kind="stable")
            insert_at = np.searchsorted(keys, add_keys[order])
            insert_at -= np.searchsorted(drop_at, insert_at)
            kept = np.ones(len(members), dtype=bool)
            kept[drop_at] = False
            members = members[kept]
            if len(removed):
                alive = np.ones(n_old, dtype=bool)
                alive[removed] = False
                members = (np.cumsum(alive, dtype=np.int32) - 1)[members]
            add_rows = np.concatenate((moved_new[crossed], appended))
            members = np.insert(members, insert_at, add_rows[order].astype(np.int32))
            counts = counts.copy()
            np.add.at(counts, drop_cells, -1)
            np.add.at(counts, add_cells, 1)

        repaired = copy.copy(self)  # shares the bound tables and rectangles
        repaired._store = store
        repaired._set_membership(members, counts, row_block_ids=cells)
        repaired._count_table = (
            self._count_table
            if counts is self._block_counts
            else _count_table(counts, self.cells_per_side)
        )
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
        return self.block(iy * self.cells_per_side + ix)

    def cell_block(self, ix: int, iy: int) -> Block | None:
        """Return the block for cell ``(ix, iy)`` if it exists."""
        side = self.cells_per_side
        if 0 <= ix < side and 0 <= iy < side:
            return self.block(iy * side + ix)
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
