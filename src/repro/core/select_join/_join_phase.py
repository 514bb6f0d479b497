"""The join phase shared by Counting, Block-Marking and the range variant.

All three end the same way (step 4 of Procedure 1, the second half of
Procedure 2): the outer points that survived pruning are joined against E2
and each k⋈-neighborhood is filtered — by the selection result ``nbr_f`` or,
for the range variant, by the window.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.geometry.point import Point
from repro.index.base import SpatialIndex
from repro.locality.batch import flatten_neighborhoods, get_knn_batch
from repro.locality.neighborhood import Neighborhood
from repro.operators.results import JoinPair
from repro.storage.pointstore import PointStore


def filtered_join_pairs(
    outer_points: Sequence[Point],
    inner_index: SpatialIndex,
    k_join: int,
    row_mask: Callable[[PointStore, np.ndarray], np.ndarray],
) -> list[JoinPair]:
    """Pairs ``(e1, e2)`` with ``e2`` a k⋈-neighbor of ``e1`` that passes a filter.

    One ``get_knn_batch`` computes every neighborhood; ``row_mask(store,
    rows)`` then tests the store rows of *all* their members in one array
    operation, and only the members that pass are materialized.  Pairs come
    out in outer order, each outer point's in its neighborhood's order.
    """
    if not outer_points:
        return []
    neighborhoods = get_knn_batch(inner_index, outer_points, k_join)
    store, owner, rows = flatten_neighborhoods(neighborhoods)
    hits = np.nonzero(row_mask(store, rows))[0]
    return [
        JoinPair(outer_points[o], e2)
        for o, e2 in zip(owner[hits].tolist(), store.materialize(rows[hits]))
    ]


def join_with_selection(
    outer_points: Sequence[Point],
    inner_index: SpatialIndex,
    selection: Neighborhood,
    k_join: int,
) -> list[JoinPair]:
    """Pairs ``(e1, e2)`` with ``e2`` in both ``e1``'s k⋈-neighborhood and ``selection``.

    The intersection is one ``isin`` over the pid column of every member of
    every neighborhood.
    """
    return filtered_join_pairs(
        outer_points,
        inner_index,
        k_join,
        row_mask=lambda store, rows: np.isin(store.pids[rows], selection.pid_array),
    )
