"""Intersection operators used by the conceptually correct QEPs.

Two flavors appear in the paper:

* plain point-set intersection (two kNN-selects, Section 5), and
* ``∩B`` — intersection of two pair sets on the shared inner relation B
  (unchained kNN-joins, Section 4.1), which produces triplets.

Point-set intersection is columnar: when both operands are neighborhoods the
match runs as one sort + ``searchsorted`` over their store rows (pid columns
when they do not share a store) and only the surviving members are
materialized.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Sequence

from repro.geometry.point import Point
from repro.locality.neighborhood import Neighborhood
from repro.operators.results import JoinPair, JoinTriplet

__all__ = [
    "intersect_points",
    "intersect_pairs_on_inner",
    "pairs_to_triplets",
]


def intersect_points(
    first: Neighborhood | Iterable[Point],
    second: Neighborhood | Iterable[Point],
) -> list[Point]:
    """Set intersection of two point collections, matching points by ``pid``.

    The result preserves the iteration order of ``first``.  When both
    operands are neighborhoods this delegates to the vectorized
    :meth:`Neighborhood.intersection` and materializes only the survivors.
    """
    if isinstance(first, Neighborhood) and isinstance(second, Neighborhood):
        return first.intersection(second)
    second_pids = (
        second.pids if isinstance(second, Neighborhood) else {p.pid for p in second}
    )
    seen: set[int] = set()
    result: list[Point] = []
    for p in first:
        if p.pid in second_pids and p.pid not in seen:
            seen.add(p.pid)
            result.append(p)
    return result


def intersect_pairs_on_inner(
    ab_pairs: Sequence[JoinPair],
    cb_pairs: Sequence[JoinPair],
) -> list[JoinTriplet]:
    """The paper's ``∩B``: join two pair sets on their shared inner point.

    ``ab_pairs`` holds pairs ``(a, b)`` from ``A join_kNN B`` and ``cb_pairs``
    holds pairs ``(c, b)`` from ``C join_kNN B``.  The result is every triplet
    ``(a, b, c)`` such that ``(a, b)`` and ``(c, b)`` share the same ``b``.
    """
    by_inner: dict[int, list[JoinPair]] = defaultdict(list)
    for pair in cb_pairs:
        by_inner[pair.inner.pid].append(pair)
    triplets: list[JoinTriplet] = []
    for ab in ab_pairs:
        for cb in by_inner.get(ab.inner.pid, ()):
            triplets.append(JoinTriplet(ab.outer, ab.inner, cb.outer))
    return triplets


def pairs_to_triplets(
    ab_pairs: Sequence[JoinPair],
    bc_pairs: Sequence[JoinPair],
) -> list[JoinTriplet]:
    """Combine chained-join outputs: ``(a, b)`` rows with ``(b, c)`` rows.

    ``bc_pairs`` holds pairs from ``B join_kNN C`` (outer = b, inner = c); the
    result is every ``(a, b, c)`` with a matching ``b``.
    """
    by_outer: dict[int, list[JoinPair]] = defaultdict(list)
    for pair in bc_pairs:
        by_outer[pair.outer.pid].append(pair)
    triplets: list[JoinTriplet] = []
    for ab in ab_pairs:
        for bc in by_outer.get(ab.inner.pid, ()):
            triplets.append(JoinTriplet(ab.outer, ab.inner, bc.inner))
    return triplets
