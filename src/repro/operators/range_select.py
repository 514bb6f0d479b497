"""Range-select operators (rectangular window and circular range).

Footnote 1 of the paper notes that the select-below-inner-join pitfall "exists
if the selection is a spatial range (e.g., rectangle), or a relational
attribute-based selection" as well.  These operators provide the range
flavors; :mod:`repro.core.select_join.range_inner` adapts the Block-Marking
idea to them.

Both operators share one shape: a rows-returning core
(:func:`range_select_rows` / :func:`radius_select_rows`) gathers the member
rows of every block the index cannot prune and tests them with a single
:mod:`repro.kernels` mask; the point-returning wrappers materialize exactly
the surviving rows.  Columnar callers (the algebra evaluator, the shard
workers) use the cores directly and never create a point object.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.core.stats import PruningStats
from repro.exceptions import InvalidParameterError
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.index.base import SpatialIndex
from repro.index.block import Block

__all__ = ["range_select", "range_select_rows", "radius_select", "radius_select_rows"]

_NO_ROWS = np.empty(0, dtype=np.int64)


def _member_rows(blocks: list[Block]) -> np.ndarray:
    """The concatenated member rows of ``blocks`` (block order preserved)."""
    members = [block.member_ids for block in blocks if not block.is_empty]
    if not members:
        return _NO_ROWS
    return np.concatenate(members).astype(np.int64, copy=False)


def range_select_rows(
    index: SpatialIndex, window: Rect, stats: "PruningStats | None" = None
) -> np.ndarray:
    """Rows of ``index.store`` whose point lies inside the closed ``window``.

    Blocks whose rectangle does not intersect the window are skipped without
    looking at their points; the rest are tested with one ``window_mask``
    kernel call over their gathered coordinates.  ``stats`` (optional) counts
    the blocks actually examined, for the engines' calibration feedback.
    """
    blocks = index.blocks_intersecting(window)
    if stats is not None:
        stats.blocks_examined += len(blocks)
    rows = _member_rows(blocks)
    if not len(rows):
        return rows
    store = index.store
    mask = kernels.window_mask(
        store.xs[rows], store.ys[rows], window.xmin, window.ymin, window.xmax, window.ymax
    )
    return rows[mask]


def range_select(
    index: SpatialIndex, window: Rect, stats: "PruningStats | None" = None
) -> list[Point]:
    """Return every indexed point inside the rectangular ``window``.

    The points of :func:`range_select_rows`, materialized.
    """
    rows = range_select_rows(index, window, stats)
    if not len(rows):
        return []
    return index.store.materialize(rows)


def radius_select_rows(index: SpatialIndex, center: Point, radius: float) -> np.ndarray:
    """Rows of ``index.store`` within ``radius`` of ``center`` (closed ball).

    Blocks whose MINDIST exceeds the radius are skipped; the rest go through
    one squared-space ``ball_mask`` kernel call, widened by
    :data:`repro.kernels.HEAD_SLACK` so no boundary point is lost to rounding,
    and the exact ``hypot`` test then runs on the survivors only.
    """
    if radius < 0:
        raise InvalidParameterError("radius must be non-negative")
    rows = _member_rows(index.blocks_within(center, radius))
    if not len(rows):
        return rows
    store = index.store
    dx = store.xs[rows] - center.x
    dy = store.ys[rows] - center.y
    near = kernels.ball_mask(dx, dy, radius * radius * (1.0 + kernels.HEAD_SLACK))
    return rows[near][np.hypot(dx[near], dy[near]) <= radius]


def radius_select(index: SpatialIndex, center: Point, radius: float) -> list[Point]:
    """Return every indexed point within ``radius`` of ``center`` (closed ball).

    The points of :func:`radius_select_rows`, materialized.
    """
    rows = radius_select_rows(index, center, radius)
    if not len(rows):
        return []
    return index.store.materialize(rows)
