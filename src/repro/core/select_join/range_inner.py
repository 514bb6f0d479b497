"""Range-select on the inner relation of a kNN-join (footnote 1 of Section 3).

The query is ``(E1 join_kNN E2) ∩ (E1 × range(E2))``: report the pairs
``(e1, e2)`` where ``e2`` is among the k nearest E2 points to ``e1`` *and*
lies inside a rectangular window.  Exactly as with a kNN-select, pushing the
range predicate below the join's inner relation changes the answer, so the
window must be applied to the join's output — and the same block-level pruning
idea applies:

A block of E1 is Non-Contributing when the k-neighborhood of *any* point
inside it provably cannot reach the window.  Using the block center ``c`` with
``r`` = distance from ``c`` to the farthest of its k nearest E2 points and
``d`` = block diagonal, every point of the block has k E2-points within
``r + d`` of itself (Theorem 1's argument), so the block can be skipped when

    MINDIST(c, window) > r + d.

The window's role replaces the focal neighborhood of the kNN-select variant;
the rest of the Block-Marking machinery is unchanged.
"""

from __future__ import annotations

from typing import Iterable

from repro import kernels
from repro.core.select_join._join_phase import filtered_join_pairs
from repro.core.stats import PruningStats
from repro.exceptions import InvalidParameterError
from repro.geometry.distance import mindist_point_rect
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.index.base import SpatialIndex
from repro.locality.batch import get_knn_batch
from repro.locality.knn import get_knn
from repro.operators.results import JoinPair

__all__ = ["range_inner_join_baseline", "range_inner_join_block_marking"]


def range_inner_join_baseline(
    outer: Iterable[Point],
    inner_index: SpatialIndex,
    window: Rect,
    k_join: int,
) -> list[JoinPair]:
    """Conceptually correct plan: full kNN-join, then filter by the window."""
    if k_join <= 0:
        raise InvalidParameterError("k_join must be positive")
    pairs: list[JoinPair] = []
    for e1 in outer:
        neighborhood = get_knn(inner_index, e1, k_join)
        pairs.extend(JoinPair(e1, e2) for e2 in neighborhood if window.contains_point(e2))
    return pairs


def range_inner_join_block_marking(
    outer_index: SpatialIndex,
    inner_index: SpatialIndex,
    window: Rect,
    k_join: int,
    stats: PruningStats | None = None,
) -> list[JoinPair]:
    """Block-Marking adaptation for a rectangular range on the inner relation.

    Produces exactly the same pairs as :func:`range_inner_join_baseline` over
    the points of ``outer_index``.

    Both phases are batched: one ``get_knn_batch`` probes the centres of all
    non-empty outer blocks, a second one computes the neighborhoods of every
    point of the Contributing blocks, and the window test is one closed-
    rectangle mask over all their neighbours' store columns.  Only neighbours
    inside the window are materialized.
    """
    if k_join <= 0:
        raise InvalidParameterError("k_join must be positive")

    blocks = [block for block in outer_index.blocks if not block.is_empty]
    if not blocks:
        return []
    centers = [block.center for block in blocks]
    # A block is skipped when no point of it can have a k-neighborhood that
    # reaches into the window: MINDIST(c, window) > r + d.
    contributing = [
        block
        for block, center, center_neighborhood in zip(
            blocks, centers, get_knn_batch(inner_index, centers, k_join)
        )
        if mindist_point_rect(center, window)
        <= center_neighborhood.farthest_distance + block.diagonal
    ]
    outer_points: list[Point] = []
    for block in contributing:
        outer_points.extend(block.points)
    if stats is not None:
        stats.blocks_examined += len(blocks)
        stats.blocks_pruned += len(blocks) - len(contributing)
        stats.blocks_contributing += len(contributing)
        stats.neighborhoods_computed += len(outer_points)
        stats.points_pruned += outer_index.num_points - len(outer_points)
    return filtered_join_pairs(
        outer_points,
        inner_index,
        k_join,
        row_mask=lambda store, rows: kernels.window_mask(
            store.xs[rows], store.ys[rows], window.xmin, window.ymin, window.xmax, window.ymax
        ),
    )
