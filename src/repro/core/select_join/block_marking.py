"""The Block-Marking algorithm (Procedures 2 and 3 of the paper).

Instead of testing every outer point individually (as Counting does), Block-
Marking spends a preprocessing pass on the *blocks* of the outer relation E1:
a block is marked Non-Contributing when no point inside it can possibly have a
neighborhood (in E2) that intersects the neighborhood of the focal point
``f``; otherwise it is Contributing.  Only points in Contributing blocks are
then joined.

The Non-Contributing test for a block ``NC`` (Figure 5 / Theorem 1):

    r + d + f_farthest < f_center

where ``r`` is the distance from the block's center to the farthest of the
center's ``k⋈`` nearest E2 points, ``d`` is the block diagonal, ``f_farthest``
is the distance from ``f`` to the farthest point of its neighborhood, and
``f_center`` is the distance from ``f`` to the block center.  Theorem 1 shows
the block center yields the tightest such bound.

Preprocessing scans E1's blocks in MINDIST order from ``f`` and stops early
when a *closed contour* of Non-Contributing blocks has been found: once every
block scanned after the first Non-Contributing one (at MAXDIST ``M`` from
``f``) is also Non-Contributing and a block with MINDIST >= M is reached, all
remaining blocks are Non-Contributing without being examined (Figure 6).

Deviation from the paper's pseudocode (see DESIGN.md): the early-exit test
applies only once a contour has started (``M > 0``); the literal pseudocode
would exit immediately because ``M`` is initialised to 0.

Columnar behaviour: blocks hold member-row arrays, not point objects, so the
preprocessing pass touches no points at all; it probes the block centres in
MINDIST-order slices through the batched ``getkNN``.  Only the Contributing
blocks' rows are materialized in the join phase, whose neighborhoods come
from one batch and are intersected with the selection by one ``isin`` over
all their members.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator

from repro.core.select_join._join_phase import join_with_selection
from repro.core.stats import PruningStats
from repro.exceptions import InvalidParameterError
from repro.geometry.point import Point
from repro.index.base import SpatialIndex
from repro.index.block import Block
from repro.index.orderings import BlockDistance
from repro.locality.batch import get_knn_batch
from repro.locality.knn import get_knn
from repro.locality.neighborhood import Neighborhood
from repro.operators.results import JoinPair

__all__ = ["select_join_block_marking", "preprocess_contributing_blocks"]

#: Block centres probed per ``get_knn_batch`` call while marking.  Small
#: enough that a contour closing early wastes at most a few probes.
_PROBE_SLICE = 16


def preprocess_contributing_blocks(
    outer_index: SpatialIndex,
    inner_index: SpatialIndex,
    focal: Point,
    selection: Neighborhood,
    k_join: int,
    stats: PruningStats | None = None,
) -> list[Block]:
    """Procedure 3: mark the blocks of E1 as Contributing / Non-Contributing.

    Returns the list of Contributing blocks of ``outer_index``.  Blocks that
    the contour-based early exit never examines are treated as
    Non-Contributing, exactly as in the paper.

    Parameters
    ----------
    outer_index:
        Index over the outer relation ``E1`` (provides the blocks to mark).
    inner_index:
        Index over the inner relation ``E2`` (provides the neighborhoods of
        block centers).
    focal:
        The selection's focal point ``f``.
    selection:
        The already-computed neighborhood of ``f`` in E2 (``nbr_f``).
    k_join:
        The join's k value.
    stats:
        Optional pruning counters.
    """
    if k_join <= 0:
        raise InvalidParameterError("k_join must be positive")
    f_farthest = selection.farthest_distance

    contributing: list[Block] = []
    contour_maxdist = 0.0  # The paper's M; 0 means "no open contour".
    examined = 0
    for entry, center, r in _probed_centers(outer_index.mindist_order(focal), inner_index, k_join):
        block = entry.block
        if contour_maxdist > 0.0 and entry.distance >= contour_maxdist:
            # A full cycle of Non-Contributing blocks has been closed: every
            # remaining block lies outside the contour and is Non-Contributing.
            if stats is not None:
                stats.blocks_skipped_by_contour += outer_index.num_blocks - examined
            break
        examined += 1
        if stats is not None:
            stats.blocks_examined += 1
        # The geometric check runs for every block — including blocks with no
        # outer points.  An empty block never joins the Contributing list, but
        # whether it can participate in (or must break) a Non-Contributing
        # contour depends on the same geometric condition: the contour's
        # early-exit argument needs every block of the closed cycle to satisfy
        # the shielding inequality.
        f_center = center.distance_to(focal)
        if r + block.diagonal + f_farthest < f_center:
            # Non-Contributing: every point of the block has k_join E2 points
            # strictly closer than any member of the selection result.
            if stats is not None:
                stats.blocks_pruned += 1
            if contour_maxdist == 0.0:
                contour_maxdist = block.maxdist(focal)
        else:
            if not block.is_empty:
                contributing.append(block)
                if stats is not None:
                    stats.blocks_contributing += 1
            contour_maxdist = 0.0  # Start a new cycle.
    return contributing


def _probed_centers(
    entries: Iterator[BlockDistance], inner_index: SpatialIndex, k_join: int
) -> Iterator[tuple[BlockDistance, Point, float]]:
    """``(entry, block centre, r)`` for ``entries`` in order, probed in slices.

    ``r`` is the distance from the centre to the farthest of its ``k_join``
    nearest E2 points.  The centres of :data:`_PROBE_SLICE` consecutive
    entries share one ``get_knn_batch`` call; the generator is lazy, so a
    caller that stops at a closed contour never probes the slices behind it.
    """
    while batch := list(islice(entries, _PROBE_SLICE)):
        centers = [entry.block.center for entry in batch]
        for entry, center, neighborhood in zip(
            batch, centers, get_knn_batch(inner_index, centers, k_join)
        ):
            yield entry, center, neighborhood.farthest_distance


def select_join_block_marking(
    outer_index: SpatialIndex,
    inner_index: SpatialIndex,
    focal: Point,
    k_join: int,
    k_select: int,
    stats: PruningStats | None = None,
) -> list[JoinPair]:
    """Procedure 2: evaluate the select-inside-join query via Block-Marking.

    Produces exactly the same pairs as
    :func:`repro.core.select_join.baseline.select_join_baseline` run over the
    points of ``outer_index``.

    Parameters
    ----------
    outer_index:
        Index over the outer relation ``E1``.  (The algorithm is block based,
        so unlike Counting it takes the outer *index*, not a point iterable.)
    inner_index:
        Index over the inner relation ``E2``.
    focal:
        Focal point ``f`` of the kNN-select on ``E2``.
    k_join, k_select:
        The join's and the selection's k values.
    stats:
        Optional pruning counters.
    """
    if k_join <= 0 or k_select <= 0:
        raise InvalidParameterError("k_join and k_select must be positive")

    selection = get_knn(inner_index, focal, k_select)  # nbr_f
    contributing = preprocess_contributing_blocks(
        outer_index, inner_index, focal, selection, k_join, stats=stats
    )

    # Join phase: only the Contributing blocks' rows are materialized.
    outer_points: list[Point] = []
    for block in contributing:
        outer_points.extend(block.points)
    if stats is not None:
        stats.neighborhoods_computed += len(outer_points)
        stats.points_pruned += outer_index.num_points - len(outer_points)
    return join_with_selection(outer_points, inner_index, selection, k_join)
