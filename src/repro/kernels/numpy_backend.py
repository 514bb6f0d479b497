"""Pure-numpy reference kernels — the library's correctness oracle.

These are the exact vectorized implementations the hot paths ran before the
kernel tier existed, extracted verbatim so every alternative backend (numba,
future cffi) can be parity-tested against them.  The dispatch layer
(:mod:`repro.kernels.dispatch`) falls back to this backend whenever no
compiled backend is importable, so Tier-1 stays numpy-only.

Numerical contracts that parity tests rely on:

- ``knn_head`` prefilters on *squared* distances, widens the k-th boundary by
  :data:`HEAD_SLACK` relative slack, and ranks only the head by exact
  ``np.hypot`` distance with ``(distance, pid)`` lexicographic tie-break —
  identical to fully sorting all candidates by true distance.  Given ``(g,)``
  focal arrays it ranks the whole group over the shared candidates and
  returns ``(g, min(k, n))`` arrays, each row bit for bit the scalar call.
- ``block_matrices`` works in squared-distance space with correctly-rounded
  (hence monotone) clamped per-axis gaps; ``point_block_mindists`` /
  ``point_block_maxdists`` return true (``hypot``) distances.
- ``merge_topk`` is ``np.lexsort((pids, dists))[:k]`` — the library-wide
  deterministic ``(distance, pid)`` order.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

__all__ = ["HEAD_SLACK", "make_backend"]

#: Relative slack widening the squared-distance prefilter boundary.  Squared
#: distances carry at most ~3 ulp of relative rounding error and hypot ~1, so
#: orderings of the two metrics can only disagree within ~1e-15 relative —
#: 1e-13 keeps every possible true-distance boundary tie in the head with two
#: orders of magnitude to spare, while still discarding essentially all of
#: the tail.
HEAD_SLACK = 1e-13


#: Upper bound on the elements of one ``(group x candidates)`` scratch matrix
#: in the grouped ``knn_head`` path (512 KiB of float64: cache-resident).
_GROUP_ELEMS = 1 << 16


def _knn_head(
    xs: np.ndarray,
    ys: np.ndarray,
    pids: np.ndarray,
    rows: np.ndarray,
    px: float | np.ndarray,
    py: float | np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact ``(distance, pid)`` top-k over candidate store rows.

    Returns ``(selected_rows, distances)`` sorted by ``(distance, pid)``,
    at most ``k`` long.  ``xs``/``ys``/``pids`` are full store columns;
    ``rows`` indexes the candidates.

    ``px``/``py`` are one focal point (scalars) or a group of ``g`` focals
    sharing the candidate set (``(g,)`` arrays); a group returns
    ``(g, min(k, len(rows)))`` arrays whose row ``i`` is bit for bit the
    scalar call for focal ``i``.
    """
    if isinstance(px, np.ndarray):
        return _knn_head_group(xs, ys, pids, rows, px, py, k)
    dx = xs[rows] - px
    dy = ys[rows] - py
    n = len(rows)
    if n > k:
        d2 = dx * dx + dy * dy
        ap = np.argpartition(d2, k - 1)
        kth2 = d2[ap[k - 1]]
        head = np.nonzero(d2 <= kth2 * (1.0 + HEAD_SLACK))[0]
        dists = np.hypot(dx[head], dy[head])
        order = np.lexsort((pids[rows[head]], dists))[:k]
        return rows[head[order]], dists[order]
    dists = np.hypot(dx, dy)
    idx = np.lexsort((pids[rows], dists))
    return rows[idx], dists[idx]


def _knn_head_group(
    xs: np.ndarray,
    ys: np.ndarray,
    pids: np.ndarray,
    rows: np.ndarray,
    px: np.ndarray,
    py: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``_knn_head`` for ``g`` focals over one shared candidate set.

    The candidate columns are gathered once; squared distances are a
    ``(g x n)`` matrix built in sub-chunks of at most :data:`_GROUP_ELEMS`
    elements inside two reused scratch buffers, the k-th boundary is a
    row-wise ``argpartition``, and only the k-wide head gets exact ``hypot``
    distances and the ``(distance, pid)`` lexsort.  A focal whose slack
    boundary holds more than ``k`` candidates (ties) is redone by the scalar
    path.  Outputs are fresh arrays, never views into the scratch.
    """
    n = len(rows)
    g = len(px)
    width = min(k, n)
    out_rows = np.empty((g, width), dtype=rows.dtype)
    out_dists = np.empty((g, width), dtype=np.float64)
    cx = xs[rows]
    cy = ys[rows]
    cpids = pids[rows]
    step = max(1, _GROUP_ELEMS // max(n, 1))
    if n > k:
        scratch = np.empty((2, min(step, g), n), dtype=np.float64)
    for start in range(0, g, step):
        stop = min(start + step, g)
        qx = px[start:stop, None]
        qy = py[start:stop, None]
        local = np.arange(stop - start)[:, None]
        if n > k:
            d2, dy2 = scratch[:, : stop - start]
            np.subtract(cx, qx, out=d2)
            np.subtract(cy, qy, out=dy2)
            np.multiply(d2, d2, out=d2)
            np.multiply(dy2, dy2, out=dy2)
            np.add(d2, dy2, out=d2)
            ap = np.argpartition(d2, k - 1, axis=1)
            limit = d2[local, ap[:, k - 1 : k]] * (1.0 + HEAD_SLACK)
            wide = np.nonzero((d2 <= limit).sum(axis=1) > k)[0]
            # Candidate positions in ascending order, as the scalar nonzero().
            head = np.sort(ap[:, :k], axis=1)
            dists = np.hypot(cx[head] - qx, cy[head] - qy)
            order = np.lexsort((cpids[head], dists), axis=1)
            out_rows[start:stop] = rows[head[local, order]]
            out_dists[start:stop] = dists[local, order]
            for i in wide + start:
                out_rows[i], out_dists[i] = _knn_head(xs, ys, pids, rows, px[i], py[i], k)
        else:
            dists = np.hypot(cx - qx, cy - qy)
            order = np.lexsort((np.broadcast_to(cpids, dists.shape), dists), axis=1)
            out_rows[start:stop] = rows[order]
            out_dists[start:stop] = dists[local, order]
    return out_rows, out_dists


def _block_matrices(
    cx: np.ndarray,
    cy: np.ndarray,
    bxmin: np.ndarray,
    bymin: np.ndarray,
    bxmax: np.ndarray,
    bymax: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Squared MINDIST and MAXDIST from every query point to every block.

    ``cx``/``cy`` are ``(q,)`` query coordinates, the block bounds ``(b,)``
    arrays; both results are ``(q, b)`` float64 matrices.
    """
    ax = bxmin[None, :] - cx[:, None]
    bx = cx[:, None] - bxmax[None, :]
    ay = bymin[None, :] - cy[:, None]
    by = cy[:, None] - bymax[None, :]
    min_dx = np.maximum(0.0, np.maximum(ax, bx))
    min_dy = np.maximum(0.0, np.maximum(ay, by))
    max_dx = np.maximum(np.abs(ax), np.abs(bx))
    max_dy = np.maximum(np.abs(ay), np.abs(by))
    mind2 = min_dx * min_dx + min_dy * min_dy
    maxd2 = max_dx * max_dx + max_dy * max_dy
    return mind2, maxd2


def _point_block_mindists(
    px: float,
    py: float,
    bxmin: np.ndarray,
    bymin: np.ndarray,
    bxmax: np.ndarray,
    bymax: np.ndarray,
) -> np.ndarray:
    """True (``hypot``) MINDIST from one point to every block rectangle."""
    dx = np.maximum(0.0, np.maximum(bxmin - px, px - bxmax))
    dy = np.maximum(0.0, np.maximum(bymin - py, py - bymax))
    return np.hypot(dx, dy)


def _point_block_maxdists(
    px: float,
    py: float,
    bxmin: np.ndarray,
    bymin: np.ndarray,
    bxmax: np.ndarray,
    bymax: np.ndarray,
) -> np.ndarray:
    """True (``hypot``) MAXDIST from one point to every block rectangle."""
    dx = np.maximum(np.abs(px - bxmin), np.abs(px - bxmax))
    dy = np.maximum(np.abs(py - bymin), np.abs(py - bymax))
    return np.hypot(dx, dy)


def _merge_topk(dists: np.ndarray, pids: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` first rows in ``(distance, pid)`` order.

    The cross-shard merge: partial ``(distance, pid)`` columns are stacked by
    the caller and this returns the (stable) global top-k permutation.
    """
    return np.lexsort((pids, dists))[:k]


def _window_mask(
    xs: np.ndarray,
    ys: np.ndarray,
    xmin: float,
    ymin: float,
    xmax: float,
    ymax: float,
) -> np.ndarray:
    """Boolean mask of the coordinates inside the closed rectangle."""
    return (xs >= xmin) & (xs <= xmax) & (ys >= ymin) & (ys <= ymax)


def _ball_mask(dx: np.ndarray, dy: np.ndarray, bound2) -> np.ndarray:
    """Boolean mask ``dx*dx + dy*dy <= bound2`` (closed ball, squared radius).

    ``bound2`` may be a scalar or an array broadcastable against ``dx`` —
    the stream guard-region membership test uses per-row squared bounds.
    """
    return dx * dx + dy * dy <= bound2


def make_backend() -> Mapping[str, Callable]:
    """Build the kernel table for the pure-numpy reference backend."""
    return {
        "knn_head": _knn_head,
        "block_matrices": _block_matrices,
        "point_block_mindists": _point_block_mindists,
        "point_block_maxdists": _point_block_maxdists,
        "merge_topk": _merge_topk,
        "window_mask": _window_mask,
        "ball_mask": _ball_mask,
    }
