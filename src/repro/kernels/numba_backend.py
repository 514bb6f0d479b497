"""Optional numba-compiled kernels (JIT, nopython mode).

Loaded lazily by :mod:`repro.kernels.dispatch` only when ``numba`` is
importable — the library never imports (let alone requires) numba at package
import time, so Tier-1 environments stay numpy-only.  Every kernel here is a
loop-level re-statement of the :mod:`repro.kernels.numpy_backend` reference
and must pass the same parity property tests.

Implementation notes for parity:

- ``np.lexsort`` is unavailable in nopython mode, so the ``(distance, pid)``
  order is a stable mergesort by distance with equal-distance runs re-sorted
  by pid (insertion sort; ``(distance, pid)`` pairs are unique per store, so
  no third key is needed).
- Scalar ``np.hypot`` (libm) is used instead of ``math.hypot`` — CPython's
  ``math.hypot`` is a *different*, correctly-rounded algorithm, while numba
  lowers both spellings to libm; ``np.hypot`` keeps the compiled results
  bit-identical to the vectorized numpy reference.
- The k-th squared distance comes from ``np.partition`` (supported in
  nopython mode), mirroring the reference's ``argpartition`` boundary.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from repro.kernels.numpy_backend import HEAD_SLACK

__all__ = ["make_backend"]


def make_backend() -> Mapping[str, Callable]:
    """Build the numba kernel table; raises ``ImportError`` if numba is absent.

    Compilation is lazy (first call per signature), so activating this
    backend is cheap and the JIT cost lands on the first kernel invocation.
    """
    from numba import njit  # deferred: numba is strictly optional

    @njit(cache=False)
    def _order_by_dist_pid(dists, pids):
        order = np.argsort(dists, kind="mergesort")
        n = order.shape[0]
        i = 0
        while i < n:
            j = i + 1
            while j < n and dists[order[j]] == dists[order[i]]:
                j += 1
            if j - i > 1:
                for a in range(i + 1, j):
                    key = order[a]
                    kp = pids[key]
                    b = a - 1
                    while b >= i and pids[order[b]] > kp:
                        order[b + 1] = order[b]
                        b -= 1
                    order[b + 1] = key
            i = j
        return order

    @njit(cache=False)
    def _knn_head_jit(xs, ys, pids, rows, px, py, k, slack):
        n = rows.shape[0]
        dx = np.empty(n, np.float64)
        dy = np.empty(n, np.float64)
        for i in range(n):
            r = rows[i]
            dx[i] = xs[r] - px
            dy[i] = ys[r] - py
        if n > k:
            d2 = np.empty(n, np.float64)
            for i in range(n):
                d2[i] = dx[i] * dx[i] + dy[i] * dy[i]
            kth2 = np.partition(d2, k - 1)[k - 1]
            limit = kth2 * (1.0 + slack)
            h = 0
            for i in range(n):
                if d2[i] <= limit:
                    h += 1
            head = np.empty(h, np.int64)
            j = 0
            for i in range(n):
                if d2[i] <= limit:
                    head[j] = i
                    j += 1
            hd = np.empty(h, np.float64)
            hp = np.empty(h, np.int64)
            for i in range(h):
                t = head[i]
                hd[i] = np.hypot(dx[t], dy[t])
                hp[i] = pids[rows[t]]
            order = _order_by_dist_pid(hd, hp)
            m = k if k < h else h
            sel = np.empty(m, np.int64)
            out_d = np.empty(m, np.float64)
            for i in range(m):
                t = head[order[i]]
                sel[i] = rows[t]
                out_d[i] = hd[order[i]]
            return sel, out_d
        dists = np.empty(n, np.float64)
        hp = np.empty(n, np.int64)
        for i in range(n):
            dists[i] = np.hypot(dx[i], dy[i])
            hp[i] = pids[rows[i]]
        order = _order_by_dist_pid(dists, hp)
        sel = np.empty(n, np.int64)
        out_d = np.empty(n, np.float64)
        for i in range(n):
            sel[i] = rows[order[i]]
            out_d[i] = dists[order[i]]
        return sel, out_d

    def knn_head(xs, ys, pids, rows, px, py, k):
        xs = np.ascontiguousarray(xs, dtype=np.float64)
        ys = np.ascontiguousarray(ys, dtype=np.float64)
        pids = np.ascontiguousarray(pids, dtype=np.int64)
        rows64 = np.ascontiguousarray(rows, dtype=np.int64)
        if isinstance(px, np.ndarray):
            # A group of focals over one candidate set: every row is exactly
            # min(k, n) long, so the per-focal results stack.
            width = min(int(k), len(rows64))
            out_rows = np.empty((len(px), width), dtype=np.int64)
            out_dists = np.empty((len(px), width), dtype=np.float64)
            for i in range(len(px)):
                out_rows[i], out_dists[i] = _knn_head_jit(
                    xs, ys, pids, rows64, float(px[i]), float(py[i]), int(k), HEAD_SLACK
                )
            return out_rows, out_dists
        return _knn_head_jit(xs, ys, pids, rows64, float(px), float(py), int(k), HEAD_SLACK)

    @njit(cache=False)
    def _block_matrices_jit(cx, cy, bxmin, bymin, bxmax, bymax):
        q = cx.shape[0]
        b = bxmin.shape[0]
        mind2 = np.empty((q, b), np.float64)
        maxd2 = np.empty((q, b), np.float64)
        for i in range(q):
            x = cx[i]
            y = cy[i]
            for j in range(b):
                ax = bxmin[j] - x
                bx = x - bxmax[j]
                ay = bymin[j] - y
                by = y - bymax[j]
                min_dx = max(0.0, max(ax, bx))
                min_dy = max(0.0, max(ay, by))
                max_dx = max(abs(ax), abs(bx))
                max_dy = max(abs(ay), abs(by))
                mind2[i, j] = min_dx * min_dx + min_dy * min_dy
                maxd2[i, j] = max_dx * max_dx + max_dy * max_dy
        return mind2, maxd2

    def block_matrices(cx, cy, bxmin, bymin, bxmax, bymax):
        return _block_matrices_jit(
            np.ascontiguousarray(cx, dtype=np.float64),
            np.ascontiguousarray(cy, dtype=np.float64),
            np.ascontiguousarray(bxmin, dtype=np.float64),
            np.ascontiguousarray(bymin, dtype=np.float64),
            np.ascontiguousarray(bxmax, dtype=np.float64),
            np.ascontiguousarray(bymax, dtype=np.float64),
        )

    @njit(cache=False)
    def _point_block_mindists_jit(px, py, bxmin, bymin, bxmax, bymax):
        b = bxmin.shape[0]
        out = np.empty(b, np.float64)
        for j in range(b):
            dx = max(0.0, max(bxmin[j] - px, px - bxmax[j]))
            dy = max(0.0, max(bymin[j] - py, py - bymax[j]))
            out[j] = np.hypot(dx, dy)
        return out

    def point_block_mindists(px, py, bxmin, bymin, bxmax, bymax):
        return _point_block_mindists_jit(
            float(px),
            float(py),
            np.ascontiguousarray(bxmin, dtype=np.float64),
            np.ascontiguousarray(bymin, dtype=np.float64),
            np.ascontiguousarray(bxmax, dtype=np.float64),
            np.ascontiguousarray(bymax, dtype=np.float64),
        )

    @njit(cache=False)
    def _point_block_maxdists_jit(px, py, bxmin, bymin, bxmax, bymax):
        b = bxmin.shape[0]
        out = np.empty(b, np.float64)
        for j in range(b):
            dx = max(abs(px - bxmin[j]), abs(px - bxmax[j]))
            dy = max(abs(py - bymin[j]), abs(py - bymax[j]))
            out[j] = np.hypot(dx, dy)
        return out

    def point_block_maxdists(px, py, bxmin, bymin, bxmax, bymax):
        return _point_block_maxdists_jit(
            float(px),
            float(py),
            np.ascontiguousarray(bxmin, dtype=np.float64),
            np.ascontiguousarray(bymin, dtype=np.float64),
            np.ascontiguousarray(bxmax, dtype=np.float64),
            np.ascontiguousarray(bymax, dtype=np.float64),
        )

    @njit(cache=False)
    def _merge_topk_jit(dists, pids, k):
        order = _order_by_dist_pid(dists, pids)
        m = k if k < order.shape[0] else order.shape[0]
        return order[:m]

    def merge_topk(dists, pids, k):
        return _merge_topk_jit(
            np.ascontiguousarray(dists, dtype=np.float64),
            np.ascontiguousarray(pids, dtype=np.int64),
            int(k),
        )

    @njit(cache=False)
    def _window_mask_jit(xs, ys, xmin, ymin, xmax, ymax):
        n = xs.shape[0]
        out = np.empty(n, np.bool_)
        for i in range(n):
            out[i] = xmin <= xs[i] <= xmax and ymin <= ys[i] <= ymax
        return out

    def window_mask(xs, ys, xmin, ymin, xmax, ymax):
        return _window_mask_jit(
            np.ascontiguousarray(xs, dtype=np.float64),
            np.ascontiguousarray(ys, dtype=np.float64),
            float(xmin),
            float(ymin),
            float(xmax),
            float(ymax),
        )

    @njit(cache=False)
    def _ball_mask_jit(dx, dy, bound2):
        n = dx.shape[0]
        out = np.empty(n, np.bool_)
        for i in range(n):
            out[i] = dx[i] * dx[i] + dy[i] * dy[i] <= bound2[i]
        return out

    def ball_mask(dx, dy, bound2):
        dxa = np.asarray(dx, dtype=np.float64)
        dya = np.asarray(dy, dtype=np.float64)
        b2a = np.asarray(bound2, dtype=np.float64)
        shape = np.broadcast_shapes(dxa.shape, dya.shape, b2a.shape)
        flat = _ball_mask_jit(
            np.ascontiguousarray(np.broadcast_to(dxa, shape)).ravel(),
            np.ascontiguousarray(np.broadcast_to(dya, shape)).ravel(),
            np.ascontiguousarray(np.broadcast_to(b2a, shape)).ravel(),
        )
        return flat.reshape(shape)

    return {
        "knn_head": knn_head,
        "block_matrices": block_matrices,
        "point_block_mindists": point_block_mindists,
        "point_block_maxdists": point_block_maxdists,
        "merge_topk": merge_topk,
        "window_mask": window_mask,
        "ball_mask": ball_mask,
    }
