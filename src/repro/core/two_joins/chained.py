"""Chained kNN-joins: ``A → B → C`` (Section 4.2).

The query retrieves triplets ``(a, b, c)`` where ``b`` is a k_AB nearest
neighbor of ``a`` and ``c`` is a k_BC nearest neighbor of ``b``.  All three
QEPs of Figure 13 are equivalent:

* **QEP1** (right deep): materialize ``B join_kNN C`` first, then join A with
  its result.
* **QEP2** (join intersection): evaluate both joins independently and
  intersect on B.
* **QEP3** (nested join): for every ``a``, find its B neighbors, and only for
  those B points find C neighbors.  QEP3 skips B points that never appear in
  the first join's output, but recomputes the neighborhood of a B point that
  is the neighbor of several A points — unless a cache keyed by the B point is
  used (Section 4.2.1, Figure 24).
"""

from __future__ import annotations

from typing import Iterable, MutableMapping

from repro.core.stats import PruningStats
from repro.exceptions import InvalidParameterError
from repro.geometry.point import Point
from repro.index.base import SpatialIndex
from repro.locality.batch import get_knn_batch
from repro.locality.knn import get_knn
from repro.locality.neighborhood import Neighborhood
from repro.operators.intersection import pairs_to_triplets
from repro.operators.knn_join import knn_join_pairs
from repro.operators.results import JoinPair, JoinTriplet

__all__ = ["chained_joins_qep1", "chained_joins_qep2", "chained_joins_nested"]


def chained_joins_qep1(
    a_points: Iterable[Point],
    b_points: Iterable[Point],
    b_index: SpatialIndex,
    c_index: SpatialIndex,
    k_ab: int,
    k_bc: int,
) -> list[JoinTriplet]:
    """QEP1: right-deep plan — materialize ``B join_kNN C`` before joining A.

    No output can be produced until the inner join is complete, and the inner
    join computes a C-neighborhood for *every* B point, even those that never
    match any A point.
    """
    if k_ab <= 0 or k_bc <= 0:
        raise InvalidParameterError("k_ab and k_bc must be positive")
    bc_pairs = knn_join_pairs(b_points, c_index, k_bc)
    triplets: list[JoinTriplet] = []
    bc_by_outer: dict[int, list[JoinPair]] = {}
    for pair in bc_pairs:
        bc_by_outer.setdefault(pair.outer.pid, []).append(pair)
    for a in a_points:
        neighborhood = get_knn(b_index, a, k_ab)
        for b in neighborhood:
            for bc in bc_by_outer.get(b.pid, ()):
                triplets.append(JoinTriplet(a, b, bc.inner))
    return triplets


def chained_joins_qep2(
    a_points: Iterable[Point],
    b_points: Iterable[Point],
    b_index: SpatialIndex,
    c_index: SpatialIndex,
    k_ab: int,
    k_bc: int,
) -> list[JoinTriplet]:
    """QEP2: evaluate ``A join_kNN B`` and ``B join_kNN C`` independently, then ∩B.

    Like QEP1 it blindly computes the C-neighborhood of every B point; the
    extra ``∩B`` operator is the structural difference the paper points out.
    """
    if k_ab <= 0 or k_bc <= 0:
        raise InvalidParameterError("k_ab and k_bc must be positive")
    ab_pairs = knn_join_pairs(a_points, b_index, k_ab)
    bc_pairs = knn_join_pairs(b_points, c_index, k_bc)
    return pairs_to_triplets(ab_pairs, bc_pairs)


def chained_joins_nested(
    a_points: Iterable[Point],
    b_index: SpatialIndex,
    c_index: SpatialIndex,
    k_ab: int,
    k_bc: int,
    cache: bool = True,
    stats: PruningStats | None = None,
    neighborhood_cache: MutableMapping[int, Neighborhood] | None = None,
) -> list[JoinTriplet]:
    """QEP3: nested join, optionally caching B→C neighborhoods.

    The C-neighborhood of a B point is computed only when that point appears
    in the neighborhood of some A point.  With ``cache=True`` (the paper's
    recommended variant) the neighborhood of each distinct B point is computed
    at most once, even when it neighbors many A points.

    ``neighborhood_cache`` optionally supplies the B→C cache mapping (pid →
    neighborhood) so that several queries over the same B/C relations and
    ``k_bc`` — e.g. a batch executed by the engine — share one cache and warm
    it for each other.  Callers are responsible for only sharing a cache
    between compatible queries.

    Produces exactly the same triplets as QEP1 and QEP2.
    """
    if k_ab <= 0 or k_bc <= 0:
        raise InvalidParameterError("k_ab and k_bc must be positive")
    if neighborhood_cache is None:
        neighborhood_cache = {}
    a_list = a_points if isinstance(a_points, list) else list(a_points)
    # Every (a, b) row of the first join, flat.  The B members are
    # materialized once: they appear in every output triplet anyway.
    b_members = [nbr.points for nbr in get_knn_batch(b_index, a_list, k_ab)]
    a_of = [a for a, members in zip(a_list, b_members) for _ in members]
    b_of = [b for members in b_members for b in members]

    if cache:
        # The distinct B points of the whole batch that the cache does not
        # hold yet, in first-lookup order: one batched probe computes all
        # their C-neighborhoods.  Every other lookup is a hit, exactly as if
        # the rows had been probed one at a time.
        missing: dict[int, Point] = {}
        for b in b_of:
            if b.pid not in neighborhood_cache:
                missing.setdefault(b.pid, b)
        if missing:
            neighborhood_cache.update(
                zip(missing, get_knn_batch(c_index, list(missing.values()), k_bc))
            )
        if stats is not None:
            stats.cache_misses += len(missing)
            stats.neighborhoods_computed += len(missing)
            stats.cache_hits += len(b_of) - len(missing)
        c_of = [neighborhood_cache[b.pid] for b in b_of]
    else:
        if stats is not None:
            stats.neighborhoods_computed += len(b_of)
        c_of = get_knn_batch(c_index, b_of, k_bc) if b_of else []
    return [
        JoinTriplet(a, b, c)
        for a, b, c_neighborhood in zip(a_of, b_of, c_of)
        for c in c_neighborhood.points
    ]
