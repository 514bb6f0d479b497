"""Unchained kNN-joins: ``(A join_kNN B) ∩B (C join_kNN B)`` (Section 4.1).

The conceptually correct plan evaluates both joins independently and
intersects their pair sets on the shared inner relation B (Figure 10).  The
optimized plan (Procedure 4) evaluates the first join, marks the blocks of B
that received at least one join partner as *Candidate* (all others are
*Safe*), and then prunes blocks of the second join's outer relation whose
points' neighborhoods can only fall inside Safe blocks — those points cannot
produce triplets.

Join order matters for the amount of pruning (Section 4.1.2):
:func:`choose_unchained_join_order` implements the paper's heuristic (start
with the more clustered / smaller-coverage relation) and
:func:`unchained_joins_auto` applies it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Sequence

import numpy as np

from repro.core.stats import PruningStats
from repro.exceptions import InvalidParameterError
from repro.geometry.point import Point
from repro.index.base import SpatialIndex
from repro.index.block import Block
from repro.index.stats import IndexStats
from repro.locality.batch import flatten_neighborhoods, get_knn_batch
from repro.operators.intersection import intersect_pairs_on_inner
from repro.operators.knn_join import knn_join_pairs
from repro.operators.results import JoinPair, JoinTriplet

__all__ = [
    "unchained_joins_baseline",
    "unchained_joins_block_marking",
    "choose_unchained_join_order",
    "unchained_joins_auto",
]


def unchained_joins_baseline(
    a_points: Iterable[Point],
    c_points: Iterable[Point],
    b_index: SpatialIndex,
    k_ab: int,
    k_cb: int,
) -> list[JoinTriplet]:
    """The conceptually correct QEP of Figure 10.

    Both joins are evaluated independently and their outputs are intersected
    on B, producing triplets ``(a, b, c)``.
    """
    if k_ab <= 0 or k_cb <= 0:
        raise InvalidParameterError("k_ab and k_cb must be positive")
    ab_pairs = knn_join_pairs(a_points, b_index, k_ab)
    cb_pairs = knn_join_pairs(c_points, b_index, k_cb)
    return intersect_pairs_on_inner(ab_pairs, cb_pairs)


def _candidate_blocks(b_index: SpatialIndex, ab_pairs: Sequence[JoinPair]) -> set[int]:
    """Block ids of B blocks holding at least one joined inner point (Candidate).

    When the index is store-backed the marking is columnar: the index's
    cached row → block-id table is gathered at the joined pids' rows
    (pid lookup via the store's cached sorted-pid index), replacing one
    ``locate`` tree/grid walk per pair without any per-query O(|B|) work.
    """
    store = b_index.store
    if store is not None and len(ab_pairs):
        inner_pids = np.fromiter(
            (pair.inner.pid for pair in ab_pairs), dtype=np.int64, count=len(ab_pairs)
        )
        rows = store.rows_of_pids(np.unique(inner_pids))
        return set(np.unique(b_index.row_block_ids[rows]).tolist())
    candidates: set[int] = set()
    for pair in ab_pairs:
        block = b_index.locate(pair.inner)
        if block is not None:
            candidates.add(block.block_id)
    return candidates


def _contributing_blocks(
    second_outer_index: SpatialIndex,
    b_index: SpatialIndex,
    candidate_ids: set[int],
    k_second: int,
    stats: PruningStats | None,
) -> list[Block]:
    """Preprocessing step of Procedure 4: mark second-outer blocks.

    A block of the second join's outer relation is Non-Contributing when every
    B block fully or partially inside its search threshold (the center's
    ``k``-neighborhood radius plus the block diagonal) is Safe; otherwise it is
    Contributing.

    The Candidate tests (containment, MINDIST ≤ threshold) run as
    ``(centers x candidates)`` matrix tests against the Candidate bound
    table, and the centers that need their ``k``-neighborhood radius are
    probed by one ``get_knn_batch``.
    """
    blocks = [block for block in second_outer_index.blocks if not block.is_empty]
    if stats is not None:
        stats.blocks_examined += len(blocks)
    if not blocks or not candidate_ids:
        if stats is not None:
            stats.blocks_pruned += len(blocks)
        return []
    blocks_by_id = {b.block_id: b for b in b_index.blocks}
    cxmin, cymin, cxmax, cymax = np.array(
        [blocks_by_id[i].rect.as_tuple() for i in sorted(candidate_ids)], dtype=np.float64
    ).T
    centers = [block.center for block in blocks]
    x = np.array([c.x for c in centers])[:, None]
    y = np.array([c.y for c in centers])[:, None]
    # Cheap shortcut: if the center already lies inside a Candidate block,
    # the threshold disk trivially touches a Candidate block.
    reaches = ((cxmin <= x) & (x <= cxmax) & (cymin <= y) & (y <= cymax)).any(axis=1)
    # Every other center is probed, all of them in one batch.
    probed = np.nonzero(~reaches)[0]
    if len(probed):
        neighborhoods = get_knn_batch(b_index, [centers[i] for i in probed.tolist()], k_second)
        threshold = np.array(
            [
                nbr.farthest_distance + blocks[i].diagonal
                for i, nbr in zip(probed.tolist(), neighborhoods)
            ]
        )
        px, py = x[probed], y[probed]
        dx = np.maximum(0.0, np.maximum(cxmin - px, px - cxmax))
        dy = np.maximum(0.0, np.maximum(cymin - py, py - cymax))
        reaches[probed] = (np.hypot(dx, dy) <= threshold[:, None]).any(axis=1)
    contributing = [block for block, keep in zip(blocks, reaches.tolist()) if keep]
    if stats is not None:
        stats.blocks_contributing += len(contributing)
        stats.blocks_pruned += len(blocks) - len(contributing)
    return contributing


def unchained_joins_block_marking(
    a_points: Iterable[Point],
    c_index: SpatialIndex,
    b_index: SpatialIndex,
    k_ab: int,
    k_cb: int,
    stats: PruningStats | None = None,
) -> list[JoinTriplet]:
    """Procedure 4: evaluate the unchained joins with block-level pruning on C.

    The join ``A join_kNN B`` is evaluated first; the blocks of B touched by
    its output become Candidate blocks.  Blocks of C whose points cannot reach
    a Candidate block are skipped entirely in the second join.

    Produces exactly the same triplets as :func:`unchained_joins_baseline`.

    Parameters
    ----------
    a_points:
        Outer relation of the first join (A).
    c_index:
        Index over the outer relation of the second join (C); the algorithm
        needs its blocks.
    b_index:
        Index over the shared inner relation (B).
    k_ab, k_cb:
        The k values of ``A join_kNN B`` and ``C join_kNN B``.
    stats:
        Optional pruning counters.
    """
    if k_ab <= 0 or k_cb <= 0:
        raise InvalidParameterError("k_ab and k_cb must be positive")

    ab_pairs = knn_join_pairs(a_points, b_index, k_ab)
    candidate_ids = _candidate_blocks(b_index, ab_pairs)
    contributing = _contributing_blocks(c_index, b_index, candidate_ids, k_cb, stats)

    # Index the AB pairs by their inner (B) point for the ∩B step.
    ab_by_inner: dict[int, list[JoinPair]] = defaultdict(list)
    for pair in ab_pairs:
        ab_by_inner[pair.inner.pid].append(pair)

    # Second join over the Contributing blocks only, batched.  The ∩B probe
    # is one ``isin`` over the pid column of all the neighborhoods' members;
    # no B point is materialized that is not already part of an AB pair.
    c_points: list[Point] = []
    for block in contributing:
        c_points.extend(block.points)
    store, owner, rows = flatten_neighborhoods(get_knn_batch(b_index, c_points, k_cb))
    b_pids = store.pids[rows]
    joined = np.fromiter(ab_by_inner, dtype=np.int64, count=len(ab_by_inner))
    hits = np.nonzero(np.isin(b_pids, joined))[0]
    probes = zip(owner[hits].tolist(), b_pids[hits].tolist())
    triplets = [
        JoinTriplet(ab.outer, ab.inner, c_points[i])
        for i, b_pid in probes
        for ab in ab_by_inner.get(b_pid, ())
    ]
    if stats is not None:
        stats.neighborhoods_computed += len(c_points)
        stats.points_pruned += c_index.num_points - len(c_points)
    return triplets


def choose_unchained_join_order(
    a_index: SpatialIndex,
    c_index: SpatialIndex,
    a_stats: IndexStats | None = None,
    c_stats: IndexStats | None = None,
) -> str:
    """Section 4.1.2 heuristic: which outer relation's join to evaluate first.

    Returns ``"A"`` or ``"C"`` — the relation whose join should run first.
    The more clustered relation (smaller occupied area) goes first so that
    more blocks of B stay Safe and more blocks of the *other* outer relation
    get pruned.  When neither is clustered the order does not matter and
    ``"A"`` is returned.

    ``a_stats`` / ``c_stats`` let callers with cached statistics (the engine)
    skip the O(n) recomputation.
    """
    if a_stats is None:
        a_stats = IndexStats.from_index(a_index)
    if c_stats is None:
        c_stats = IndexStats.from_index(c_index)
    if c_stats.clustering_ratio > a_stats.clustering_ratio:
        return "C"
    return "A"


def unchained_joins_auto(
    a_index: SpatialIndex,
    c_index: SpatialIndex,
    b_index: SpatialIndex,
    k_ab: int,
    k_cb: int,
    stats: PruningStats | None = None,
    order: str | None = None,
    a_stats: IndexStats | None = None,
    c_stats: IndexStats | None = None,
) -> list[JoinTriplet]:
    """Evaluate the unchained joins with the paper's join-order heuristic.

    Regardless of the internal evaluation order, triplets are always returned
    as ``(a, b, c)``.  ``order`` forces ``"A"`` or ``"C"`` first (a cached
    planning decision); when ``None`` the heuristic decides, reusing
    ``a_stats`` / ``c_stats`` when given.
    """
    if order is None:
        order = choose_unchained_join_order(a_index, c_index, a_stats, c_stats)
    elif order not in ("A", "C"):
        raise InvalidParameterError(f"order must be 'A' or 'C', got {order!r}")
    if order == "A":
        return unchained_joins_block_marking(
            list(a_index.points()), c_index, b_index, k_ab, k_cb, stats=stats
        )
    swapped = unchained_joins_block_marking(
        list(c_index.points()), a_index, b_index, k_cb, k_ab, stats=stats
    )
    return [JoinTriplet(t.c, t.b, t.a) for t in swapped]
