"""Primitive query operators: kNN-select, kNN-join and intersections.

These are the building blocks from which both the conceptually correct QEPs
and the paper's optimized algorithms are assembled:

* ``knn_select`` — ``sigma_{k,f}(E)``: the k points of ``E`` closest to the
  focal point ``f``.
* ``knn_join`` — ``E1 join_kNN E2``: all pairs ``(e1, e2)`` where ``e2`` is
  among the k closest points of ``E2`` to ``e1``.
* ``range_select`` / ``radius_select`` — window and closed-ball selections
  (``range_select_rows`` returns store row indices instead of points).
* ``intersect_points`` / ``intersect_pairs_on_inner`` — plain set intersection
  and the paper's ``∩B`` (intersection of two pair sets on the shared inner
  relation).
"""

from repro.operators.results import JoinPair, JoinTriplet, pair_key, triplet_key
from repro.operators.knn_select import knn_select
from repro.operators.knn_join import knn_join, knn_join_pairs
from repro.operators.range_select import radius_select, range_select, range_select_rows
from repro.operators.intersection import (
    intersect_points,
    intersect_pairs_on_inner,
    pairs_to_triplets,
)

__all__ = [
    "JoinPair",
    "JoinTriplet",
    "pair_key",
    "triplet_key",
    "knn_select",
    "knn_join",
    "knn_join_pairs",
    "range_select",
    "range_select_rows",
    "radius_select",
    "intersect_points",
    "intersect_pairs_on_inner",
    "pairs_to_triplets",
]
