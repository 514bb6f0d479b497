"""Locality-based kNN search (the paper's ``getkNN`` primitive).

The locality algorithm of Sankaranarayanan, Samet and Varshney [15] builds the
minimal set of index blocks guaranteed to contain the k nearest neighbors of a
query point, and only then looks at actual points:

1. Scan blocks in increasing **MAXDIST** order from the query point, summing
   the per-block point counts, until the running count reaches ``k``.  Record
   ``M``, the largest MAXDIST seen so far.  At this moment at least ``k``
   points are known to lie within distance ``M`` of the query point, so no
   block farther than ``M`` (in MINDIST terms) can contribute a neighbor.
2. The locality is the set of blocks whose **MINDIST** from the query point is
   at most ``M``.
3. The neighborhood is computed by ranking the points of the locality blocks.

``get_knn`` is the single kNN entry point used by every operator and algorithm
in the library.  Steps 1 and 2 are :func:`block_phase`, which looks only at
the blocks :meth:`SpatialIndex.candidate_blocks` names — all of them by
default, a cell window on a grid — and is shared with Procedure 5's
restricted locality.

Ranking is columnar: the locality blocks' ``int32`` member-row arrays (rows
of the index's one store) are concatenated and distance + ``(distance, pid)``
ranking run as vectorized kernels over the store's columns; the winning rows
and their distances are the :class:`Neighborhood`, and no :class:`Point`
object is created here.  The parity oracle is the brute-force scan of
:func:`~repro.locality.brute.brute_force_knn`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import kernels
from repro.exceptions import EmptyDatasetError, InvalidParameterError
from repro.geometry.point import Point
from repro.index.base import SpatialIndex
from repro.index.block import Block
from repro.locality.neighborhood import Neighborhood
from repro.storage.pointstore import PointStore

__all__ = [
    "Locality",
    "block_phase",
    "build_locality",
    "get_knn",
    "neighborhood_from_blocks",
    "rank_rows",
]


@dataclass(frozen=True, slots=True)
class Locality:
    """The locality of a query point: blocks guaranteed to hold its kNN.

    Attributes
    ----------
    center:
        The query point.
    k:
        The neighborhood size the locality was built for.
    blocks:
        The locality blocks.
    maxdist_bound:
        The bound ``M`` from the MAXDIST phase: at least ``k`` points lie
        within distance ``M`` of ``center`` (``inf`` when the index holds
        fewer than ``k`` points).
    """

    center: Point
    k: int
    blocks: tuple[Block, ...]
    maxdist_bound: float

    @property
    def num_blocks(self) -> int:
        """Number of locality blocks."""
        return len(self.blocks)

    @property
    def num_points(self) -> int:
        """Number of points in the locality blocks."""
        return sum(b.count for b in self.blocks)


def block_phase(
    index: SpatialIndex, p: Point, k: int, cutoff: float = float("inf")
) -> tuple[np.ndarray, float]:
    """The block phase of ``getkNN``: ``(locality block ids, M)``.

    ``M`` is the MAXDIST-phase bound: the MAXDIST of the block at which a
    scan in stable MAXDIST order has accumulated ``k`` points (the crossing
    block cannot be empty, so empty blocks change nothing), ``inf`` when the
    index holds fewer.  At least ``k`` points lie within ``M`` of ``p``.  The
    ids — ascending positions in ``index.blocks`` — are the non-empty blocks
    whose MINDIST from ``p`` is at most ``min(M, cutoff)``.  ``cutoff`` is how
    Procedure 5 clips the larger select's locality to the smaller select's
    result.

    Bounds and counts are gathered for ``index.candidate_blocks(p, k)`` only,
    so the phase costs what the locality's surroundings hold, not what the
    relation holds.  That is exact: the candidates contain every block with
    MAXDIST <= ``M``, which is all the prefix of the MAXDIST ordering that
    decides ``M`` consists of (ascending ids keep its position tie-break);
    and they contain every block with MINDIST <= ``M``, which is all the
    MINDIST test can admit.
    """
    ids = index.candidate_blocks(p, k)
    columns = index.bound_columns
    counts = index.block_counts
    if len(ids) < len(counts):
        columns = columns.take(ids, axis=1)
        counts = counts.take(ids)
    maxdists = kernels.point_block_maxdists(p.x, p.y, *columns)
    order = np.argsort(maxdists, kind="stable")  # ties by position
    crossing = int(np.searchsorted(np.cumsum(counts[order]), k, side="left"))
    bound = float(maxdists[order[crossing]]) if crossing < len(order) else float("inf")
    mindists = kernels.point_block_mindists(p.x, p.y, *columns)
    return ids[(mindists <= min(bound, cutoff)) & (counts > 0)], bound


def build_locality(index: SpatialIndex, p: Point, k: int) -> Locality:
    """Build the minimal locality of ``p`` for a ``k``-neighborhood.

    Follows [15]: a MAXDIST-order scan determines the bound ``M``; the locality
    is every block whose MINDIST from ``p`` does not exceed ``M``.  Empty
    blocks are excluded (they cannot contribute neighbors).
    """
    if k <= 0:
        raise InvalidParameterError(f"k must be positive, got {k}")
    if index.num_points == 0:
        raise EmptyDatasetError("cannot build a locality over an empty index")
    ids, bound = block_phase(index, p, k)
    return Locality(
        center=p, k=k, blocks=tuple(map(index.block, ids.tolist())), maxdist_bound=bound
    )


def neighborhood_from_blocks(
    p: Point,
    k: int,
    blocks: Sequence[Block],
) -> Neighborhood:
    """Rank the points of ``blocks`` around ``p`` and keep the nearest ``k``.

    This is the final step of ``getkNN`` and is also used directly by the
    2-kNN-select algorithm, which computes a neighborhood from a *restricted*
    locality (Procedure 5).

    The blocks — all of one index, hence over one store — have their
    member-row arrays concatenated and ranked columnar-ly; the result is a
    neighborhood over that store.
    """
    if k <= 0:
        raise InvalidParameterError(f"k must be positive, got {k}")
    candidate_blocks = [b for b in blocks if b.count > 0]
    if not candidate_blocks:
        return Neighborhood(p, k, [], [])

    store = candidate_blocks[0].store
    if len(candidate_blocks) == 1:
        rows = candidate_blocks[0].member_ids
    else:
        rows = np.concatenate([b.member_ids for b in candidate_blocks])
    return rank_rows(p, k, store, rows)


def rank_rows(
    p: Point,
    k: int,
    store: "PointStore",
    rows: np.ndarray,
) -> Neighborhood:
    """Exact ``(distance, pid)`` top-k over candidate store rows.

    Delegates to the active :mod:`repro.kernels` backend's ``knn_head``
    kernel: a *squared*-distance prefilter finds the k-th boundary (widened
    by :data:`repro.kernels.HEAD_SLACK` relative slack), and only the head —
    k plus boundary ties — gets the exact ``hypot`` distances and the final
    ``(distance, pid)`` ranking, so the result is identical to fully sorting
    all candidates by true distance regardless of backend.

    This is the one-focal form; :func:`~repro.locality.batch.get_knn_batch`
    hands the same kernel a whole group of focals that share ``rows``.
    """
    sel, dists = kernels.knn_head(store.xs, store.ys, store.pids, rows, p.x, p.y, k)
    return Neighborhood.from_rows(p, k, store, sel, dists)


def get_knn(index: SpatialIndex, p: Point, k: int) -> Neighborhood:
    """Return the ``k`` nearest neighbors of ``p`` among the points of ``index``.

    This is the paper's ``getkNN(p, k)``.  The locality is built first; the
    neighborhood is then computed only from the locality's blocks.
    """
    locality = build_locality(index, p, k)
    return neighborhood_from_blocks(p, k, locality.blocks)
