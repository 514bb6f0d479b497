"""The Counting algorithm (Procedure 1 of the paper).

For each outer point ``e1`` the algorithm decides — *without* computing the
neighborhood of ``e1`` — whether that neighborhood could possibly intersect the
neighborhood of the focal point ``f``:

1. ``searchThreshold`` = distance from ``e1`` to the nearest point of
   ``nbr_f`` (the selection result).
2. Scan the blocks of E2 in increasing MAXDIST order from ``e1`` and sum the
   point counts of blocks *completely* contained within the search threshold.
3. If the count exceeds ``k⋈``, at least ``k⋈`` points of E2 are strictly
   closer to ``e1`` than every point of ``nbr_f``; the neighborhood of ``e1``
   cannot contain any point of ``nbr_f`` and ``e1`` is skipped.
4. Otherwise the neighborhood of ``e1`` is computed and intersected with
   ``nbr_f``.

The per-tuple block scan is the algorithm's overhead; Section 3.3 explains why
it wins for sparse outer relations and loses to Block-Marking for dense ones.

Since the columnar refactor the prune phase runs as array kernels over the
whole outer relation at once: search thresholds come from one chunked
distance-matrix pass against the selection's coordinate columns, the
block-count test from a chunked MAXDIST matrix against E2's block-bound
table.  Only the surviving outer rows are materialized as points; their
neighborhoods come from one batched ``getkNN`` and are intersected with the
selection by one ``isin`` over all their members.  A pruned row never becomes
a Python object.

Deviation from the paper's pseudocode (see DESIGN.md, "Tie handling"): a block
is counted only when its MAXDIST is *strictly* below the search threshold,
which makes the pruning decision safe even when distances tie.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.select_join._join_phase import join_with_selection
from repro.core.stats import PruningStats
from repro.exceptions import InvalidParameterError
from repro.geometry.point import Point
from repro.index.base import SpatialIndex
from repro.locality.knn import get_knn
from repro.locality.neighborhood import Neighborhood
from repro.operators.results import JoinPair
from repro.storage.pointstore import PointStore

__all__ = ["select_join_counting"]

#: Outer rows per chunk of the vectorized prune phase.  Bounds the transient
#: (chunk x num_blocks) MAXDIST matrix to a few megabytes.
_PRUNE_CHUNK = 1024


def select_join_counting(
    outer: Iterable[Point] | PointStore,
    inner_index: SpatialIndex,
    focal: Point,
    k_join: int,
    k_select: int,
    stats: PruningStats | None = None,
) -> list[JoinPair]:
    """Evaluate a kNN-select on the inner relation of a kNN-join by Counting.

    Produces exactly the same pairs as
    :func:`repro.core.select_join.baseline.select_join_baseline`.

    Parameters
    ----------
    outer:
        The outer relation ``E1`` — an iterable of points or, on the columnar
        fast path, a :class:`PointStore` (pruned rows then never materialize
        point objects).
    inner_index:
        Spatial index over the inner relation ``E2``.
    focal:
        Focal point ``f`` of the kNN-select on ``E2``.
    k_join, k_select:
        The join's and the selection's k values (``k⋈`` and ``kσ``).
    stats:
        Optional counters filled with pruning information.
    """
    if k_join <= 0 or k_select <= 0:
        raise InvalidParameterError("k_join and k_select must be positive")

    selection = get_knn(inner_index, focal, k_select)  # nbr_f

    if isinstance(outer, PointStore):
        xs, ys = outer.xs, outer.ys
        survivors = _surviving_rows(xs, ys, inner_index, selection, k_join)
        if stats is not None:
            stats.points_pruned += len(xs) - len(survivors)
        outer_points = outer.materialize(survivors)
    else:
        outer_list = list(outer)
        n = len(outer_list)
        xs = np.fromiter((p.x for p in outer_list), dtype=np.float64, count=n)
        ys = np.fromiter((p.y for p in outer_list), dtype=np.float64, count=n)
        survivors = _surviving_rows(xs, ys, inner_index, selection, k_join)
        if stats is not None:
            stats.points_pruned += n - len(survivors)
        outer_points = [outer_list[int(row)] for row in survivors]

    if stats is not None:
        stats.neighborhoods_computed += len(outer_points)
    return join_with_selection(outer_points, inner_index, selection, k_join)


def _surviving_rows(
    xs: np.ndarray,
    ys: np.ndarray,
    inner_index: SpatialIndex,
    selection: Neighborhood,
    k_join: int,
) -> np.ndarray:
    """Row indices of the outer points Procedure 1 cannot skip.

    Procedure 1 scans blocks in MAXDIST order, accumulating the counts of
    blocks completely inside the per-point ``searchThreshold``, and skips the
    point as soon as the running count exceeds ``k⋈``.  Because the scan is
    in MAXDIST order, its final decision depends only on the *total* count of
    points in blocks whose MAXDIST is strictly below the threshold, so the
    whole prune phase collapses into two chunked matrix kernels — thresholds
    against the selection's coordinate columns, block counts against the
    block-bound table — that make bit-for-bit the same decision as the
    per-point scan.
    """
    sel_coords = selection.coords  # (m, 2); the selection is non-empty (k >= 1)
    counts = inner_index.block_counts.astype(np.float64)
    bounds = inner_index.block_bounds
    bxmin, bymin, bxmax, bymax = bounds.T

    survivors: list[np.ndarray] = []
    for start in range(0, len(xs), _PRUNE_CHUNK):
        cx = xs[start : start + _PRUNE_CHUNK, None]
        cy = ys[start : start + _PRUNE_CHUNK, None]
        # searchThreshold per outer point: distance to the nearest selection member.
        thresholds = np.hypot(
            cx - sel_coords[None, :, 0], cy - sel_coords[None, :, 1]
        ).min(axis=1)
        # MAXDIST from every chunk point to every E2 block.
        dx = np.maximum(np.abs(cx - bxmin[None, :]), np.abs(cx - bxmax[None, :]))
        dy = np.maximum(np.abs(cy - bymin[None, :]), np.abs(cy - bymax[None, :]))
        inside = np.hypot(dx, dy) < thresholds[:, None]
        enclosed_counts = inside @ counts
        keep = np.nonzero(enclosed_counts <= k_join)[0] + start
        survivors.append(keep)
    return np.concatenate(survivors) if survivors else np.empty(0, dtype=np.int64)
