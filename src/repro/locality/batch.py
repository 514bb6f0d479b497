"""Batched locality-based kNN: many query points against one index.

The columnar backbone makes the whole of ``getkNN`` batchable.  Per chunk of
query points:

- **Block phase.**  MINDIST and MAXDIST from *every* query point to *every*
  block are two chunked matrix kernels over the index's block-bound table;
  the MAXDIST-phase bound ``M`` of every query comes from one row-wise
  argsort + cumsum.
- **Seed stage.**  The paper's locality is every block with MINDIST <= ``M``,
  but ``M`` is a block-level bound and usually far looser than the answer.
  Each focal is first ranked over its *seed* blocks only — the MAXDIST-order
  prefix that already holds ``k`` points — which yields the exact k-th
  distance ``r <= M`` among them.
- **Tightened locality.**  The final locality is the non-empty blocks with
  MINDIST <= ``r``.  It is sound for the same reason the paper's is: a true
  neighbour lies no farther than the true k-th distance ``d_k <= r``, and its
  block's MINDIST is at most its own distance.  If the tightened locality
  adds no block to the seed, the seed answer is already final; otherwise the
  focal is ranked once more over it.
- **Grouped ranking.**  In both stages, focals whose block set is identical
  (neighbouring outer points almost always share it — the observation behind
  the paper's Block-Marking) gather the candidate rows once and are ranked by
  *one* ``knn_head`` kernel call over the ``(group x candidates)`` distances.

The block phase works in **squared-distance** space.  That is sound: the
clamped per-axis gaps behind MINDIST are computed with correctly-rounded
(hence monotone) subtractions, and ``x*x + y*y`` composes correctly-rounded
multiplications and an addition, all monotone — so the computed squared
MINDIST of a block never exceeds the computed squared distance to any point
inside it, which is the only invariant the locality guarantee needs.  The
tightened bound compares squared MINDIST against ``r*r`` widened by
:data:`repro.kernels.HEAD_SLACK`, the same relative slack that keeps
squared-distance and ``hypot`` orderings interchangeable inside
``knn_head``.  Any ULP-level difference from the scalar (hypot) path can only
shift *which superset of blocks* is scanned, never the exact
``(distance, pid)`` top-k ranked from it; ``get_knn_batch`` therefore returns
neighborhoods identical to per-point :func:`~repro.locality.knn.get_knn`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import kernels
from repro.exceptions import EmptyDatasetError, InvalidParameterError
from repro.geometry.point import Point
from repro.index.base import SpatialIndex
from repro.locality.neighborhood import Neighborhood
from repro.storage.pointstore import PointStore

__all__ = ["get_knn_batch", "flatten_neighborhoods"]

#: Query rows per chunk; bounds each (chunk x num_blocks) matrix to a few MB.
_BATCH_CHUNK = 256


def get_knn_batch(
    index: SpatialIndex,
    queries: Sequence[Point] | np.ndarray,
    k: int,
) -> list[Neighborhood]:
    """The k-neighborhood of every query point, batched end to end.

    ``queries`` is a sequence of points or an ``(n, 2)`` coordinate array (the
    latter never materializes query point objects; each result neighborhood's
    center is then an anonymous ``pid == -1`` point).  Returns one
    :class:`Neighborhood` per query, in input order — each identical to
    ``get_knn(index, q, k)``.
    """
    if k <= 0:
        raise InvalidParameterError(f"k must be positive, got {k}")
    if index.num_points == 0:
        raise EmptyDatasetError("cannot run a kNN batch over an empty index")

    if isinstance(queries, np.ndarray):
        coords = np.asarray(queries, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise InvalidParameterError(
                f"expected an (n, 2) query array, got shape {coords.shape}"
            )
        points: list[Point] | None = None
    else:
        points = list(queries)
        coords = np.array([(q.x, q.y) for q in points], dtype=np.float64)
    if not len(coords):
        return []

    store = index.store
    bounds = index.block_bounds
    bxmin, bymin, bxmax, bymax = bounds.T
    counts = index.block_counts
    nonempty = counts > 0
    members = index.block_members

    out: list[Neighborhood] = []
    for start in range(0, len(coords), _BATCH_CHUNK):
        cx = coords[start : start + _BATCH_CHUNK, 0]
        cy = coords[start : start + _BATCH_CHUNK, 1]
        # Squared MINDIST/MAXDIST matrices via the active kernel backend.
        mind2, maxd2 = kernels.block_matrices(cx, cy, bxmin, bymin, bxmax, bymax)

        # MAXDIST phase for the whole chunk: row-wise cumsum of block counts
        # in squared-MAXDIST order; the bound is where the prefix reaches k.
        order = np.argsort(maxd2, axis=1)
        running = np.cumsum(np.take(counts, order), axis=1)
        pos = (running < k).sum(axis=1)
        exhausted = pos >= order.shape[1]  # fewer than k indexed points
        pos_clamped = np.minimum(pos, order.shape[1] - 1)
        bound2 = np.take_along_axis(
            maxd2, order[np.arange(len(order)), pos_clamped][:, None], axis=1
        )[:, 0]
        bound2[exhausted] = np.inf

        # Stage 1: rank every focal over its seed blocks — the MAXDIST prefix
        # (with its ties) that already holds k points — and read the exact
        # k-th distance r <= M off the answer.
        seed = (maxd2 <= bound2[:, None]) & nonempty
        sels: list = [None] * len(cx)
        dists: list = [None] * len(cx)
        kth = np.full(len(cx), np.inf)
        _rank_groups(store, members, seed, range(len(cx)), cx, cy, k, sels, dists, kth)

        # Stage 2: the tightened locality is every non-empty block with
        # squared MINDIST <= r^2 (slack-widened like the ranking head).  Only
        # a focal whose locality reaches beyond its seed is ranked again.
        tight = (mind2 <= (kth * kth * (1.0 + kernels.HEAD_SLACK))[:, None]) & nonempty
        beyond = np.nonzero((tight & ~seed).any(axis=1))[0].tolist()
        if beyond:
            _rank_groups(store, members, tight, beyond, cx, cy, k, sels, dists, kth)

        for row in range(len(cx)):
            q = (
                points[start + row]
                if points is not None
                else Point(float(cx[row]), float(cy[row]))
            )
            out.append(Neighborhood.from_rows(q, k, store, sels[row], dists[row]))
    return out


def flatten_neighborhoods(
    neighborhoods: Sequence[Neighborhood],
) -> tuple[PointStore, np.ndarray, np.ndarray]:
    """The members of a batch of neighborhoods over one store as two columns.

    Returns ``(store, owner, rows)``: ``rows[i]`` is a member row of
    ``neighborhoods[owner[i]]`` in the shared ``store``, neighborhood after
    neighborhood, each in its ``(distance, pid)`` order (ragged lengths are
    fine).  A post-filter over a whole batch is then one array operation on
    ``rows`` instead of one per neighborhood.  An empty batch gives empty
    columns over an empty store; neighborhoods over different stores (which
    no one batch produces) are rejected.
    """
    if not neighborhoods:
        empty = np.empty(0, dtype=np.int64)
        return PointStore.empty(), empty, empty
    store = neighborhoods[0].store
    if any(nbr.store is not store for nbr in neighborhoods):
        raise InvalidParameterError("neighborhoods span several stores")
    owner = np.repeat(
        np.arange(len(neighborhoods)), [len(nbr) for nbr in neighborhoods]
    )
    return store, owner, np.concatenate([nbr.rows for nbr in neighborhoods])


def _rank_groups(store, members, block_mask, focals, cx, cy, k, sels, dists, kth) -> None:
    """Rank ``focals`` (chunk rows), one ``knn_head`` call per shared block set.

    Focals whose ``block_mask`` rows are identical (grouped by the packed
    bitmask bytes) share one gathered candidate array and one grouped kernel
    call; a singleton group takes the kernel's scalar path.  Fills
    ``sels``/``dists`` per focal and ``kth`` with the k-th distance wherever
    the candidates hold at least ``k`` points.
    """
    packed = np.packbits(block_mask, axis=1)
    groups: dict[bytes, list[int]] = {}
    for row in focals:
        groups.setdefault(packed[row].tobytes(), []).append(row)
    xs, ys, pids = store.xs, store.ys, store.pids
    for group in groups.values():
        selected = np.nonzero(block_mask[group[0]])[0]
        if len(selected) == 1:
            rows = members[selected[0]]
        else:
            rows = np.concatenate([members[i] for i in selected])
        if len(group) == 1:
            sel, dist = kernels.knn_head(xs, ys, pids, rows, cx[group[0]], cy[group[0]], k)
            sel, dist = sel[None], dist[None]
        else:
            sel, dist = kernels.knn_head(xs, ys, pids, rows, cx[group], cy[group], k)
        for i, row in enumerate(group):
            sels[row], dists[row] = sel[i], dist[i]
        if dist.shape[1] >= k:
            kth[group] = dist[:, k - 1]
