"""The 2-kNN-select algorithm (Procedure 5 of the paper).

For two selects ``sigma_{k1,f1}(E)`` and ``sigma_{k2,f2}(E)`` with ``k1 <=
k2`` (the algorithm swaps them otherwise):

1. Compute the smaller neighborhood ``nbr1 = getkNN(f1, k1)`` normally.
2. The final answer is a subset of ``nbr1``, so only points of ``nbr1`` can
   survive the intersection.  Define the *search threshold* as the distance
   from ``f2`` to the member of ``nbr1`` farthest from ``f2``.
3. Build a **restricted locality** of ``f2``: run the MAXDIST phase of the
   locality algorithm to find the bound ``M`` (at least ``k2`` points lie
   within distance ``M`` of ``f2``), then admit exactly the blocks whose
   MINDIST from ``f2`` is at most ``min(M, searchThreshold)``.
4. Rank the points of the restricted locality around ``f2`` and intersect the
   top ``k2`` with ``nbr1``.

Correctness sketch (why the restricted locality suffices):

* Every point of ``nbr1`` is within ``searchThreshold`` of ``f2`` and within
  ``M`` of ``f2`` only if it is a true k2-neighbor; more precisely, every
  point of ``nbr1`` that is also a true k2-neighbor of ``f2`` lies in a block
  with MINDIST <= min(M, threshold), so it survives into the restricted
  candidate set, and removing *other* candidates can only promote it.
* A point that is **not** a true k2-neighbor cannot be reported: all the
  points that outrank it (there are at least ``k2`` of them within distance
  ``M``, and those closer than a ``nbr1`` member are within the threshold)
  remain in the restricted candidate set, so it cannot enter the restricted
  top-``k2`` either.

This mirrors the paper's argument that the locality of ``f2`` "can be adjusted
to cover just the neighborhood of f1" without affecting the intersection.

Deviation from the literal pseudocode (DESIGN.md note 3): the second scan is
expressed as "all blocks with MINDIST <= min(M, threshold)" rather than the
pseudocode's MAXDIST-based break, which is not monotone in a MINDIST ordering.
"""

from __future__ import annotations

from repro.core.stats import PruningStats
from repro.exceptions import EmptyDatasetError, InvalidParameterError
from repro.geometry.point import Point
from repro.index.base import SpatialIndex
from repro.locality.knn import block_phase, get_knn, neighborhood_from_blocks
from repro.operators.intersection import intersect_points

__all__ = ["two_knn_selects_optimized"]


def two_knn_selects_optimized(
    index: SpatialIndex,
    focal1: Point,
    k1: int,
    focal2: Point,
    k2: int,
    stats: PruningStats | None = None,
) -> list[Point]:
    """Evaluate two kNN-selects with the 2-kNN-select algorithm (Procedure 5).

    Produces exactly the same point set as
    :func:`repro.core.two_selects.baseline.two_knn_selects_baseline`.

    Parameters
    ----------
    index:
        Spatial index over the relation ``E``.
    focal1, k1:
        First select's focal point and k value.
    focal2, k2:
        Second select's focal point and k value.
    stats:
        Optional counters; ``locality_blocks`` records the size of the
        restricted locality actually scanned for the larger select.
    """
    if k1 <= 0 or k2 <= 0:
        raise InvalidParameterError("k1 and k2 must be positive")
    if index.num_points == 0:
        raise EmptyDatasetError("cannot evaluate selects over an empty index")

    # Lines 1-4 of Procedure 5: make (f1, k1) the smaller-k predicate.
    if k1 > k2:
        focal1, focal2 = focal2, focal1
        k1, k2 = k2, k1

    small = get_knn(index, focal1, k1)  # nbr1
    if len(small) == 0:
        return []
    search_threshold = small.distance_to_farthest_member(focal2)

    # Restricted locality: the MAXDIST phase finds the bound M guaranteeing
    # >= k2 points within M of f2; admit the blocks with MINDIST <=
    # min(M, searchThreshold).
    block_ids, _bound = block_phase(index, focal2, k2, cutoff=search_threshold)
    locality_blocks = [index.block(i) for i in block_ids.tolist()]
    if stats is not None:
        stats.locality_blocks += len(locality_blocks)
        stats.blocks_examined += index.num_blocks
        stats.blocks_pruned += index.num_blocks - len(locality_blocks)

    # Columnar tail: the restricted neighborhood ranking and the intersection
    # both run on id arrays; only the intersection's survivors materialize.
    large = neighborhood_from_blocks(focal2, k2, locality_blocks)
    return intersect_points(small, large)
