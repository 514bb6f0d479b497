"""Cross-shard kNN search: border expansion + global merge/re-rank.

A point's true k nearest neighbors may live in an adjacent shard, so a
per-shard kNN answer is only a *candidate set*.  The search here is exact:

1. Order the populated shards by MINDIST from the query point to each
   shard's **index bounds** — the true bounding box of the shard's points,
   not its nominal region (a routed insert can land a point outside its
   region rectangle; the index bounds always contain the shard's points, so
   pruning against them is sound).
2. Visit shards in that order, running the ordinary locality-based
   ``get_knn`` inside each, merging candidates into a running global top-k
   ranked by ``(distance, pid)``.
3. Stop when the next shard's MINDIST exceeds the current k-th candidate's
   distance — no point of that shard (or any later one) can displace a
   current candidate.  Ties are safe: a shard at MINDIST *equal* to the
   bound is still visited, so the deterministic pid tie-break sees every
   point at the boundary distance.  The bound is widened by the relative
   ``_BOUND_SLACK`` of :mod:`repro.shard.batch`: the shard MINDIST here is
   ``math.hypot`` and the kernels' point distances ``np.hypot``, which can
   disagree in the last ulp, so an unwidened test could prune a shard
   holding a point tied at the bound.

Because each shard's top-k contains every member of the global top-k that
lives in that shard (restriction can only improve a point's rank), the merged
result is identical — members, order and distances — to ``get_knn`` over the
unsharded relation.  This is the halo/border-expansion argument written out
in ``docs/operators.md``.
"""

from __future__ import annotations

import math
import numpy as np

from repro.exceptions import EmptyDatasetError, InvalidParameterError
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.locality.knn import get_knn
from repro.locality.neighborhood import Neighborhood
from repro.operators.merge import merge_neighborhoods, merge_pid_partials
from repro.operators.range_select import range_select_rows
from repro.shard.batch import _BOUND_SLACK
from repro.shard.dataset import ShardedDataset

__all__ = ["sharded_knn", "sharded_range_rows", "sharded_range_select"]


def sharded_knn(sharded: ShardedDataset, p: Point, k: int) -> Neighborhood:
    """The exact k-neighborhood of ``p`` over all shards of ``sharded``.

    Equivalent to ``get_knn`` over the unsharded relation (same members, same
    ``(distance, pid)`` order), but visits only the shards whose extent can
    still contribute — typically just the owning shard: when the nearest
    shard yields k neighbors and no other shard's MINDIST reaches the k-th
    distance, its answer is returned as-is with no merge at all.
    """
    if k <= 0:
        raise InvalidParameterError(f"k must be positive, got {k}")
    datasets, extents = sharded.search_plan()
    if not datasets:
        raise EmptyDatasetError(f"sharded dataset {sharded.name!r} has no points")
    if len(datasets) == 1:
        return get_knn(datasets[0].index, p, k)

    # MINDIST from p to every shard extent (the SpatialIndex.mindists
    # formula, over shards instead of blocks).  Scalar arithmetic: the shard
    # count is small and this runs once per outer tuple, where NumPy's fixed
    # per-ufunc overhead would dominate the actual work.
    px, py = p.x, p.y
    mindists: list[float] = []
    for xmin, ymin, xmax, ymax in extents:
        dx = xmin - px if px < xmin else (px - xmax if px > xmax else 0.0)
        dy = ymin - py if py < ymin else (py - ymax if py > ymax else 0.0)
        mindists.append(math.hypot(dx, dy))
    order = sorted(range(len(datasets)), key=mindists.__getitem__)

    # Fast path: the nearest shard satisfies k and no other shard's extent
    # reaches its k-th distance — the per-shard answer IS the global answer
    # (a shard tied exactly at the bound must still be visited for the pid
    # tie-break, hence only strictly farther shards are pruned; the bound is
    # slack-widened against ulp differences between the two hypots).
    widen = 1.0 + _BOUND_SLACK
    first = order[0]
    nbr = get_knn(datasets[first].index, p, k)
    bound = nbr.farthest_distance * widen if len(nbr) >= k else float("inf")
    rest = [i for i in order[1:] if mindists[i] <= bound]
    if not rest:
        return nbr

    # Incremental border expansion over partial neighborhoods.  No point is
    # materialized here: the running k-th-distance bound is maintained from
    # the partials' distance columns, and the final global re-rank is one
    # lexsort over the stacked (distance, pid) arrays (merge_neighborhoods).
    parts: list[Neighborhood] = [nbr]
    count = len(nbr)
    for i in rest:
        if count >= k and mindists[i] > bound:
            break  # border expansion done: no farther shard can contribute
        other = get_knn(datasets[i].index, p, k)
        if not len(other):
            continue
        parts.append(other)
        count += len(other)
        if count >= k:
            stacked = np.concatenate([part.distance_array for part in parts])
            bound = float(np.partition(stacked, k - 1)[k - 1]) * widen
    return merge_neighborhoods(p, k, parts)


def sharded_range_rows(sharded: ShardedDataset, window: Rect) -> np.ndarray:
    """Base-store rows of every point inside ``window``, in ``pid`` order.

    Shards whose extent does not intersect the window are skipped without
    touching their index; the survivors run the ordinary block-pruned
    ``range_select_rows`` and contribute the pids of their hits, which are
    then addressed in the relation's authoritative (base) store.
    """
    partials = [
        ds.store.pids[range_select_rows(ds.index, window)]
        for _sid, ds in sharded.populated()
        if ds.index.bounds.intersects(window)
    ]
    return merge_pid_partials(sharded.base.store, partials)


def sharded_range_select(sharded: ShardedDataset, window: Rect) -> list[Point]:
    """Every point of the sharded relation inside the rectangular ``window``.

    The same point set as the unsharded operator, in canonical ``pid``
    order: the rows of :func:`sharded_range_rows`, materialized.
    """
    return sharded.base.store.materialize(sharded_range_rows(sharded, window))
