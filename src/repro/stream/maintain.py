"""Per-query-class incremental maintenance of standing results.

Each subscription owns a *maintenance state*: its current result in columnar
form plus the **guard region** that decides which updates can possibly affect
it.  The guard invariants (proved in ``docs/stream.md``):

* **kNN-select** — guard is the closed ball around the focal point with
  radius the k-th neighbor's distance (``inf`` while the relation holds
  fewer than ``k`` points).  An insert (or a move-in) strictly outside the
  ball cannot displace a member; an insert inside is merged into the
  maintained ``(distance, pid)`` top-k locally.  Removing or moving a
  *member* violates the guard — the evicted slot must be refilled from data
  the state never kept — so the state falls back to one re-execution.
* **range-select** — guard is the query rectangle itself; membership is a
  pure per-point containment test, so every update kind repairs locally and
  the state never falls back.
* **kNN-join** — one guard ball per outer row (radius: that row's k-th
  neighbor distance).  Inner inserts merge into exactly the rows whose ball
  they hit (one vectorized candidate × row distance kernel); removing or
  moving a row's member recomputes just that row against the updated index;
  outer-side updates add, drop or recompute only their own rows.
* **two-predicate classes** — maintained by *guard-filtered re-execution*:
  each select/range predicate contributes the guard above, a join predicate
  marks both its relations always-relevant.  A batch that triggers no guard
  is provably answer-preserving and is skipped without touching the engine;
  otherwise the query re-executes through the engine's plan cache and the
  delta is the row diff.
* **algebra trees** — guards are derived *compositionally* from the tree's
  structure (:func:`repro.algebra.decompose.scan_guards`): window filters on
  a scan chain intersect, kNN-filtered and join-inner scans become
  always-relevant.  Local-decomposable aggregate shapes (filter chain →
  grid/region aggregate → optional top-k) skip re-execution entirely:
  :class:`AlgebraAggregateState` maintains the per-cell/per-region counts
  through a membership map, repairing only the groups the batch touched.

States receive the *effective* update
(:class:`~repro.storage.update.AppliedUpdate`) **after** the engine applied
it, so any fallback re-execution sees the post-batch data.  All relevance
kernels are vectorized over the update batch's columns.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro import kernels
from repro.algebra.compile import rewritten_tree
from repro.algebra.decompose import (
    ScanGuard,
    chain_window,
    local_decomposition,
    scan_guards,
)
from repro.algebra.evaluate import chain_mask, grid_cells, grid_rows, topk_rows
from repro.algebra.tree import GridAggregate
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.locality.neighborhood import Neighborhood
from repro.query.predicates import KnnJoin, KnnSelect, RangeSelect
from repro.query.query import Query
from repro.query.results import QueryResult
from repro.storage.pointstore import PointStore, aligned_rows
from repro.storage.update import AppliedUpdate
from repro.stream.delta import result_rows

__all__ = [
    "MaintenanceContext",
    "KnnSelectState",
    "RangeSelectState",
    "KnnJoinState",
    "AlgebraAggregateState",
    "AlgebraRefreshState",
    "RefreshState",
    "make_state",
    "SKIPPED",
    "REPAIRED",
    "REFRESHED",
]

#: Outcome of applying one update batch to one subscription state.
SKIPPED = "skipped"  #: guard not triggered; result provably unchanged
REPAIRED = "repaired"  #: result repaired locally from the batch's columns
REFRESHED = "refreshed"  #: guard violated; fell back to re-execution

#: Row chunk bound for the join candidate kernel ((rows x candidates) matrix).
_JOIN_CHUNK = 2048


def _any_touched(touched_sorted: np.ndarray, pids: np.ndarray) -> bool:
    """Whether any of ``pids`` appears in the (sorted) touched column."""
    if not len(touched_sorted) or not len(pids):
        return False
    pos = np.minimum(np.searchsorted(touched_sorted, pids), len(touched_sorted) - 1)
    return bool((touched_sorted[pos] == pids).any())


class MaintenanceContext(Protocol):
    """What a maintenance state may ask of its engine.

    Implemented by :class:`~repro.stream.engine.StreamEngine` for both the
    unsharded and the sharded engine, so the states are partition-agnostic:
    ``knn`` answers with exact (cross-shard, if applicable) neighborhoods and
    ``run`` goes through the engine's plan cache.
    """

    def knn(self, relation: str, focal: Point, k: int) -> Neighborhood:
        """Exact k-neighborhood of ``focal`` over the named relation."""
        ...

    def knn_batch(self, relation: str, coords: np.ndarray, k: int) -> list[Neighborhood]:
        """Exact k-neighborhoods of many query coordinates, in input order."""
        ...

    def store(self, relation: str) -> PointStore:
        """The named relation's current columnar store."""
        ...

    def bounds(self, relation: str) -> Rect | None:
        """The relation's extent (the grid-cell decomposition frame)."""
        ...

    def run(self, query: Query) -> QueryResult:
        """Execute a query from scratch through the engine."""
        ...


# ----------------------------------------------------------------------
# kNN-select
# ----------------------------------------------------------------------
class KnnSelectState:
    """Maintained kNN-select: a ``(distance, pid)`` top-k heap plus its guard."""

    __slots__ = ("predicate", "_dists", "_pids", "_rows")

    def __init__(self, predicate: KnnSelect, ctx: MaintenanceContext) -> None:
        self.predicate = predicate
        self._dists = np.empty(0, dtype=np.float64)
        self._pids = np.empty(0, dtype=np.int64)
        self._rows: tuple | None = None
        self.refresh(ctx)

    @property
    def guard_radius(self) -> float:
        """The kNN safe radius: distance to the k-th neighbor (``inf`` if not full).

        No point at strictly greater distance can enter the result; points at
        exactly this distance may enter through the pid tie-break and are
        therefore treated as relevant (the guard ball is closed).
        """
        if len(self._dists) >= self.predicate.k:
            return float(self._dists[-1])
        return float("inf")

    def rows(self) -> tuple:
        """Canonical ``(distance, pid)`` rows in ascending neighborhood order."""
        if self._rows is None:
            self._rows = tuple(zip(self._dists.tolist(), self._pids.tolist()))
        return self._rows

    def refresh(self, ctx: MaintenanceContext) -> None:
        """Recompute the result from scratch (subscribe-time and fallback path)."""
        nbr = ctx.knn(self.predicate.relation, self.predicate.focal, self.predicate.k)
        self._dists = np.ascontiguousarray(nbr.distance_array, dtype=np.float64)
        self._pids = np.ascontiguousarray(nbr.pid_array, dtype=np.int64)
        self._rows = None

    def apply(self, applied: AppliedUpdate, relation: str, ctx: MaintenanceContext) -> str:
        """Maintain the top-k through one update batch on ``relation``."""
        if _any_touched(applied.touched_sorted, self._pids):
            # A current member was removed or relocated: the evicted slot must
            # be refilled from data outside the maintained state.
            self.refresh(ctx)
            return REFRESHED
        cand_xs, cand_ys, cand_pids = applied.candidate_columns()
        if not len(cand_pids):
            return SKIPPED
        focal = self.predicate.focal
        radius = self.guard_radius
        dx = cand_xs - focal.x
        dy = cand_ys - focal.y
        # Squared-distance prefilter (widened a hair for boundary ties);
        # exact hypot runs only on the prefilter's survivors, and the exact
        # guard is re-applied so the merged set matches the closed ball.
        if np.isinf(radius):
            near = np.arange(len(cand_pids))
        else:
            near = np.nonzero(kernels.ball_mask(dx, dy, radius * radius * (1.0 + 1e-12)))[0]
            if not len(near):
                return SKIPPED
        dists = np.hypot(dx[near], dy[near])
        mask = dists <= radius
        if not mask.any():
            return SKIPPED
        merged_d = np.concatenate((self._dists, dists[mask]))
        merged_p = np.concatenate((self._pids, cand_pids[near[mask]]))
        order = kernels.merge_topk(merged_d, merged_p, self.predicate.k)
        self._dists = merged_d[order]
        self._pids = merged_p[order]
        self._rows = None
        return REPAIRED


# ----------------------------------------------------------------------
# range-select
# ----------------------------------------------------------------------
def _in_window(window: Rect, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Vectorized closed-rectangle containment over coordinate columns."""
    return kernels.window_mask(xs, ys, window.xmin, window.ymin, window.xmax, window.ymax)


class RangeSelectState:
    """Maintained range-select: the pid set inside the window.

    The guard region *is* the query rectangle, and membership is a pure
    per-point containment test — so every update kind (insert, remove,
    move-in, move-out) repairs the set locally and this state never falls
    back to re-execution.
    """

    __slots__ = ("predicate", "_pids", "_rows", "_delta")

    def __init__(self, predicate: RangeSelect, ctx: MaintenanceContext) -> None:
        self.predicate = predicate
        self._pids = np.empty(0, dtype=np.int64)
        self._rows: tuple | None = None
        self._delta: tuple[tuple, tuple] | None = None
        self.refresh(ctx)

    def take_delta(self) -> tuple[tuple, tuple] | None:
        """``(added, removed)`` of the last :meth:`apply`, computed in-kernel.

        Membership maintenance knows exactly which pids entered and left, so
        the subscription avoids the generic before/after row diff.  Returns
        ``None`` after a refresh (the caller diffs then).  One-shot: the
        recorded delta is cleared on read.
        """
        delta = self._delta
        self._delta = None
        return delta

    def rows(self) -> tuple:
        """Canonical rows: member pids, ascending."""
        if self._rows is None:
            self._rows = tuple(self._pids.tolist())
        return self._rows

    def refresh(self, ctx: MaintenanceContext) -> None:
        """Rescan the relation's store (subscribe-time and reconcile path)."""
        store = ctx.store(self.predicate.relation)
        mask = _in_window(self.predicate.window, store.xs, store.ys)
        self._pids = np.sort(store.pids[mask])
        self._rows = None
        self._delta = None  # caller must diff after a refresh

    def apply(self, applied: AppliedUpdate, relation: str, ctx: MaintenanceContext) -> str:
        """Maintain the membership set through one update batch."""
        window = self.predicate.window
        self._delta = ((), ())
        # Fast skip: nothing placed in or taken from the window.
        if not _any_touched(applied.touched_sorted, self._pids):
            cand_xs, cand_ys, _cand_pids = applied.candidate_columns()
            if not _in_window(window, cand_xs, cand_ys).any():
                return SKIPPED
        moved_in = _in_window(window, applied.moved_new_xs, applied.moved_new_ys)
        drop = np.concatenate((applied.removed_pids, applied.moved_pids[~moved_in]))
        ins_in = _in_window(window, applied.inserted_xs, applied.inserted_ys)
        add = np.concatenate((applied.inserted_pids[ins_in], applied.moved_pids[moved_in]))
        # The member column stays sorted, so drops and adds are one
        # searchsorted membership pass each plus one insertion — no set
        # machinery over the (much larger) member population — and the
        # kernel knows exactly which pids entered and left (take_delta).
        pids = self._pids
        left = np.empty(0, dtype=np.int64)
        entered = np.empty(0, dtype=np.int64)
        if len(drop) and len(pids):
            drop_sorted = np.sort(drop)
            pos = np.minimum(np.searchsorted(drop_sorted, pids), len(drop_sorted) - 1)
            hit = drop_sorted[pos] == pids
            if hit.any():
                left = pids[hit]
                pids = pids[~hit]
        if len(add):
            fresh = np.sort(add)  # inserted and moved pid sets are disjoint
            if len(pids):
                pos = np.minimum(np.searchsorted(pids, fresh), len(pids) - 1)
                fresh = fresh[pids[pos] != fresh]
            if len(fresh):
                pids = np.insert(pids, np.searchsorted(pids, fresh), fresh)
                entered = fresh
        if not len(left) and not len(entered):
            return SKIPPED
        self._pids = pids
        self._rows = None
        self._delta = (tuple(entered.tolist()), tuple(left.tolist()))
        return REPAIRED


# ----------------------------------------------------------------------
# kNN-join
# ----------------------------------------------------------------------
class KnnJoinState:
    """Maintained kNN-join: per-outer-row neighbor matrices plus row guards.

    The result is held as three aligned columnar tables — outer pids, outer
    coordinates and an ``(n, k)`` neighbor matrix pair (distances padded with
    ``inf``, pids padded with ``-1``) sorted ascending ``(distance, pid)``
    within each row.  Each row's guard ball has radius its k-th neighbor
    distance; the inner-insert kernel intersects the update batch against all
    row guards in one vectorized pass.
    """

    __slots__ = ("predicate", "_opids", "_oxs", "_oys", "_nd", "_npid", "_rows")

    def __init__(self, predicate: KnnJoin, ctx: MaintenanceContext) -> None:
        self.predicate = predicate
        self._opids = np.empty(0, dtype=np.int64)
        self._oxs = np.empty(0, dtype=np.float64)
        self._oys = np.empty(0, dtype=np.float64)
        self._nd = np.empty((0, predicate.k), dtype=np.float64)
        self._npid = np.empty((0, predicate.k), dtype=np.int64)
        self._rows: tuple | None = None
        self.refresh(ctx)

    def rows(self) -> tuple:
        """Canonical rows: ``(outer pid, inner pid)`` pairs, ascending."""
        if self._rows is None:
            valid_rows, valid_cols = np.nonzero(self._npid >= 0)
            self._rows = tuple(
                sorted(
                    zip(
                        self._opids[valid_rows].tolist(),
                        self._npid[valid_rows, valid_cols].tolist(),
                    )
                )
            )
        return self._rows

    def refresh(self, ctx: MaintenanceContext) -> None:
        """Rebuild every row from the current stores (subscribe/reconcile path)."""
        store = ctx.store(self.predicate.outer)
        self._opids = store.pids.copy()
        self._oxs = store.xs.copy()
        self._oys = store.ys.copy()
        n, k = len(store), self.predicate.k
        self._nd = np.full((n, k), np.inf, dtype=np.float64)
        self._npid = np.full((n, k), -1, dtype=np.int64)
        coords = np.column_stack((self._oxs, self._oys))
        for row, nbr in enumerate(ctx.knn_batch(self.predicate.inner, coords, k)):
            self._write_row(row, nbr)
        self._rows = None

    def _write_row(self, row: int, nbr: Neighborhood) -> None:
        k = self.predicate.k
        m = len(nbr)
        self._nd[row, :m] = nbr.distance_array
        self._nd[row, m:] = np.inf
        self._npid[row, :m] = nbr.pid_array
        self._npid[row, m:] = -1

    def _row_radii(self) -> np.ndarray:
        """Per-row guard radii: the k-th neighbor distance, ``inf`` if not full."""
        radii = self._nd[:, -1].copy()
        radii[self._npid[:, -1] < 0] = np.inf
        return radii

    def apply(self, applied: AppliedUpdate, relation: str, ctx: MaintenanceContext) -> str:
        """Maintain the join rows through one update batch on ``relation``."""
        if relation == self.predicate.outer:
            outcome = self._apply_outer(applied, ctx)
        else:
            outcome = self._apply_inner(applied, ctx)
        if outcome != SKIPPED:
            self._rows = None
        return outcome

    def _apply_outer(self, applied: AppliedUpdate, ctx: MaintenanceContext) -> str:
        changed = False
        if len(applied.removed_pids) and len(self._opids):
            keep = ~np.isin(self._opids, applied.removed_pids)
            if not keep.all():
                self._opids = self._opids[keep]
                self._oxs = self._oxs[keep]
                self._oys = self._oys[keep]
                self._nd = self._nd[keep]
                self._npid = self._npid[keep]
                changed = True
        if len(applied.moved_pids):
            rows = aligned_rows(self._opids, applied.moved_pids)
            hit = rows >= 0
            if hit.any():
                rows = rows[hit]
                self._oxs[rows] = applied.moved_new_xs[hit]
                self._oys[rows] = applied.moved_new_ys[hit]
                coords = np.column_stack((self._oxs[rows], self._oys[rows]))
                for row, nbr in zip(
                    rows.tolist(),
                    ctx.knn_batch(self.predicate.inner, coords, self.predicate.k),
                ):
                    self._write_row(row, nbr)
                changed = True
        if len(applied.inserted_pids):
            n_new = len(applied.inserted_pids)
            self._opids = np.concatenate((self._opids, applied.inserted_pids))
            self._oxs = np.concatenate((self._oxs, applied.inserted_xs))
            self._oys = np.concatenate((self._oys, applied.inserted_ys))
            k = self.predicate.k
            self._nd = np.vstack((self._nd, np.full((n_new, k), np.inf)))
            self._npid = np.vstack((self._npid, np.full((n_new, k), -1, dtype=np.int64)))
            coords = np.column_stack((applied.inserted_xs, applied.inserted_ys))
            first = len(self._opids) - n_new
            for offset, nbr in enumerate(
                ctx.knn_batch(self.predicate.inner, coords, k)
            ):
                self._write_row(first + offset, nbr)
            changed = True
        return REPAIRED if changed else SKIPPED

    def _apply_inner(self, applied: AppliedUpdate, ctx: MaintenanceContext) -> str:
        k = self.predicate.k
        touched = applied.touched_pids()
        affected = np.zeros(len(self._opids), dtype=bool)
        if len(touched) and self._npid.size:
            # Rows holding a removed or relocated member: the guard is
            # violated for exactly these rows — recompute them against the
            # already-updated inner index.
            affected = np.isin(self._npid, touched).any(axis=1)
            rows = np.nonzero(affected)[0]
            if len(rows):
                coords = np.column_stack((self._oxs[rows], self._oys[rows]))
                for row, nbr in zip(
                    rows.tolist(), ctx.knn_batch(self.predicate.inner, coords, k)
                ):
                    self._write_row(row, nbr)
        cand_xs, cand_ys, cand_pids = applied.candidate_columns()
        merged_any = False
        if len(cand_pids) and len(self._opids):
            radii = self._row_radii()
            for row, col in zip(*self._guard_hits(cand_xs, cand_ys, radii)):
                if affected[row]:
                    continue  # already ranks against the full post-batch relation
                cd = float(
                    np.hypot(self._oxs[row] - cand_xs[col], self._oys[row] - cand_ys[col])
                )
                if cd > radii[row]:
                    continue  # the squared prefilter is a conservative superset
                merged_d = np.concatenate((self._nd[row], [cd]))
                merged_p = np.concatenate((self._npid[row], [cand_pids[col]]))
                # Padding sorts last (inf distance) and is truncated or
                # re-appended by the fixed-width write-back.
                order = kernels.merge_topk(merged_d, merged_p, k)
                self._nd[row] = merged_d[order]
                self._npid[row] = merged_p[order]
                merged_any = True
        if affected.any() or merged_any:
            return REPAIRED
        return SKIPPED

    def _guard_hits(
        self, cand_xs: np.ndarray, cand_ys: np.ndarray, radii: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(row, candidate)`` index pairs whose guard ball the candidate may hit.

        The relevance kernel.  When every row guard is finite, candidate
        pairing is pruned by an x-interval pass over the sorted outer rows
        (each candidate only meets rows with ``|ox - cx| <= max radius``),
        which keeps the pair set near-linear however large the outer relation
        is; any infinite radius (a not-yet-full row) falls back to the dense
        row x candidate matrix, chunked.  Squared distances with a hair of
        widening — the caller re-applies the exact guard per pair.
        """
        finite = np.isfinite(radii)
        if finite.all() and len(self._oxs) > 64:
            rmax = float(radii.max()) if len(radii) else 0.0
            order = np.argsort(self._oxs, kind="stable")
            sx = self._oxs[order]
            lo = np.searchsorted(sx, cand_xs - rmax, side="left")
            hi = np.searchsorted(sx, cand_xs + rmax, side="right")
            counts = hi - lo
            total = int(counts.sum())
            if total == 0:
                return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
            cols = np.repeat(np.arange(len(cand_xs), dtype=np.int64), counts)
            starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
            pos = np.arange(total, dtype=np.int64) - np.repeat(starts, counts) + np.repeat(lo, counts)
            rows = order[pos]
            dx = self._oxs[rows] - cand_xs[cols]
            dy = self._oys[rows] - cand_ys[cols]
            bound2 = np.square(radii[rows]) * (1.0 + 1e-12)
            hit = kernels.ball_mask(dx, dy, bound2)
            return rows[hit], cols[hit]
        out_rows: list[np.ndarray] = []
        out_cols: list[np.ndarray] = []
        bound2 = np.square(radii) * (1.0 + 1e-12)
        bound2[~finite] = np.inf
        for start in range(0, len(self._oxs), _JOIN_CHUNK):
            stop = min(start + _JOIN_CHUNK, len(self._oxs))
            dx = self._oxs[start:stop, None] - cand_xs[None, :]
            dy = self._oys[start:stop, None] - cand_ys[None, :]
            r, c = np.nonzero(kernels.ball_mask(dx, dy, bound2[start:stop, None]))
            out_rows.append(r + start)
            out_cols.append(c)
        return np.concatenate(out_rows), np.concatenate(out_cols)


# ----------------------------------------------------------------------
# Algebra trees
# ----------------------------------------------------------------------
class AlgebraAggregateState:
    """Incrementally maintained spatial aggregate (per-cell dirty sets).

    Applies to local-decomposable aggregate trees — a point-filter chain
    over one scan under a :class:`~repro.algebra.tree.GridAggregate` or
    :class:`~repro.algebra.tree.RegionAggregate`, optionally topped by a
    :class:`~repro.algebra.tree.TopK` (the same shape the sharded
    coordinator fans out).  The state keeps a **membership map** (member pid
    → its group keys) plus the per-group counts; an update batch repairs the
    counts locally:

    * a removed member's groups come from the membership map — no position
      or payload needed;
    * inserted and moved points re-test the filter chain against the
      post-batch store (payloads live in the store's side-table, not in the
      update's columns) and increment exactly the groups they land in;
    * a batch touching no member and placing nothing inside the chain's
      window intersection is skipped outright.

    The derived rows always equal a from-scratch evaluation's: counts are
    additive over per-point contributions, so add/drop in any order
    converges to the rescan's totals.
    """

    __slots__ = (
        "query",
        "_chain",
        "_agg",
        "_topk",
        "_relation",
        "_bounds",
        "_window",
        "_groups",
        "_counts",
        "_rows",
    )

    def __init__(self, query: Query, ctx: MaintenanceContext) -> None:
        self.query = query
        assert query.tree is not None
        optimized, _trail = rewritten_tree(query.tree)
        local = local_decomposition(optimized)
        assert local is not None and local[1] is not None
        self._chain, self._agg, self._topk, self._relation = local
        self._bounds = ctx.bounds(self._relation)
        self._window = chain_window(self._chain)
        self._groups: dict[int, tuple] = {}
        self._counts: dict = {}
        self._rows: tuple | None = None
        self.refresh(ctx)

    def rows(self) -> tuple:
        """Canonical rows: the aggregate's records, sorted (see delta docs)."""
        if self._rows is None:
            if isinstance(self._agg, GridAggregate):
                rows = grid_rows(self._counts, self._agg, self._bounds)
            else:
                rows = [(name, self._counts[name]) for name, _rect in self._agg.regions]
            if self._topk is not None:
                rows = topk_rows(rows, self._topk.limit)
            self._rows = tuple(sorted(rows))
        return self._rows

    def refresh(self, ctx: MaintenanceContext) -> None:
        """Rebuild membership and counts from the relation's store."""
        self._groups = {}
        if isinstance(self._agg, GridAggregate):
            self._counts = {}
        else:
            self._counts = {name: 0 for name, _rect in self._agg.regions}
        store = ctx.store(self._relation)
        every_row = np.arange(len(store), dtype=np.int64)
        for pid, keys in self._member_keys(store, every_row).items():
            self._add(pid, keys)
        self._rows = None

    # -- membership -----------------------------------------------------
    def _member_keys(self, store: PointStore, rows: np.ndarray) -> dict[int, tuple]:
        """Group keys, by pid, of the ``rows`` that pass the filter chain.

        One vectorized pass (the evaluator's own chain masks and cell ids)
        over the candidate rows; rows that pass the chain but land in no
        region are not members.
        """
        rows = rows[chain_mask(self._chain, store, rows)]
        xs, ys = store.xs[rows], store.ys[rows]
        if isinstance(self._agg, GridAggregate):
            cps = self._agg.cells_per_side
            cells = grid_cells(xs, ys, self._bounds, cps).tolist()
            keys = [(divmod(cell, cps),) for cell in cells]
        else:
            names = [name for name, _rect in self._agg.regions]
            hits = [_in_window(rect, xs, ys).tolist() for _name, rect in self._agg.regions]
            keys = [
                tuple(name for name, hit in zip(names, row_hits) if hit)
                for row_hits in zip(*hits)
            ]
        return {
            pid: groups for pid, groups in zip(store.pids[rows].tolist(), keys) if groups
        }

    def _add(self, pid: int, keys: tuple) -> None:
        self._groups[pid] = keys
        for key in keys:
            self._counts[key] = self._counts.get(key, 0) + 1

    def _drop_pid(self, pid: int) -> bool:
        keys = self._groups.pop(pid, None)
        if keys is None:
            return False
        grid = isinstance(self._agg, GridAggregate)
        for key in keys:
            remaining = self._counts[key] - 1
            if remaining == 0 and grid:
                del self._counts[key]  # grid rows list non-empty cells only
            else:
                self._counts[key] = remaining
        return True

    def apply(self, applied: AppliedUpdate, relation: str, ctx: MaintenanceContext) -> str:
        """Repair the counts through one update batch (never re-executes)."""
        touched = applied.touched_pids()
        member_touched = any(int(pid) in self._groups for pid in touched)
        if not member_touched and self._window is not None:
            cand_xs, cand_ys, _cand_pids = applied.candidate_columns()
            if not _in_window(self._window, cand_xs, cand_ys).any():
                return SKIPPED
        changed = False
        for pid in applied.removed_pids.tolist() + applied.moved_pids.tolist():
            changed |= self._drop_pid(pid)
        # Inserted and moved points re-test the chain where they are now.
        store = ctx.store(self._relation)
        placed = store.rows_aligned(
            np.concatenate((applied.moved_pids, applied.inserted_pids))
        )
        for pid, keys in self._member_keys(store, placed[placed >= 0]).items():
            self._add(pid, keys)
            changed = True
        if not changed:
            return SKIPPED
        self._rows = None
        return REPAIRED


class AlgebraRefreshState:
    """General algebra trees: compositionally-guarded re-execution.

    The fallback maintainer for trees the aggregate state cannot repair
    (kNN filters, joins, bare point chains).  Guards are derived *from the
    tree's structure* by :func:`~repro.algebra.decompose.scan_guards` — the
    intersection of each scan chain's filter windows, with kNN-filtered and
    join-inner scans marked always-relevant — so an update batch that
    triggers no scan guard of the updated relation provably preserves the
    answer and is skipped; anything else re-executes through the engine's
    plan cache and the delta is the row diff.
    """

    __slots__ = ("query", "_guards", "_rows")

    def __init__(self, query: Query, ctx: MaintenanceContext) -> None:
        self.query = query
        assert query.tree is not None
        optimized, _trail = rewritten_tree(query.tree)
        self._guards: dict[str, list[ScanGuard]] = {}
        for guard in scan_guards(optimized):
            self._guards.setdefault(guard.relation, []).append(guard)
        self._rows: tuple = ()
        self.refresh(ctx)

    def rows(self) -> tuple:
        """Canonical rows of the tree's result (see :func:`result_rows`)."""
        return self._rows

    def refresh(self, ctx: MaintenanceContext) -> None:
        """Re-execute the standing tree through the engine."""
        self._rows = result_rows(ctx.run(self.query))

    def apply(self, applied: AppliedUpdate, relation: str, ctx: MaintenanceContext) -> str:
        """Skip provably guard-clean batches; re-execute otherwise."""
        guards = self._guards.get(relation)
        if guards is not None and not any(
            _guard_relevant(guard, applied) for guard in guards
        ):
            return SKIPPED
        self._rows = result_rows(ctx.run(self.query))
        return REFRESHED


def _guard_relevant(guard: ScanGuard, applied: AppliedUpdate) -> bool:
    """Whether an update batch triggers one scan's compositional guard."""
    if guard.always:
        return True
    if guard.empty:
        return False  # disjoint windows: the chain can never produce rows
    window = guard.window
    if window is None:
        return True  # no spatial constraint on this scan
    return bool(
        _in_window(window, applied.inserted_xs, applied.inserted_ys).any()
        or _in_window(window, applied.removed_xs, applied.removed_ys).any()
        or _in_window(window, applied.moved_old_xs, applied.moved_old_ys).any()
        or _in_window(window, applied.moved_new_xs, applied.moved_new_ys).any()
    )


# ----------------------------------------------------------------------
# Two-predicate classes: guard-filtered re-execution
# ----------------------------------------------------------------------
class _SelectGuard:
    """Guard ball of one kNN-select predicate inside a composite query."""

    __slots__ = ("predicate", "_pids", "_radius")

    def __init__(self, predicate: KnnSelect) -> None:
        self.predicate = predicate
        self._pids = np.empty(0, dtype=np.int64)
        self._radius = float("inf")

    @property
    def relation(self) -> str:
        return self.predicate.relation

    def sync(self, ctx: MaintenanceContext) -> None:
        nbr = ctx.knn(self.predicate.relation, self.predicate.focal, self.predicate.k)
        self._pids = np.ascontiguousarray(nbr.pid_array, dtype=np.int64)
        self._radius = (
            float(nbr.farthest_distance) if len(nbr) >= self.predicate.k else float("inf")
        )

    def relevant(self, applied: AppliedUpdate) -> bool:
        if _any_touched(applied.touched_sorted, self._pids):
            return True
        cand_xs, cand_ys, cand_pids = applied.candidate_columns()
        if not len(cand_pids):
            return False
        focal = self.predicate.focal
        dists = np.hypot(cand_xs - focal.x, cand_ys - focal.y)
        return bool((dists <= self._radius).any())


class _RangeGuard:
    """Guard rectangle of one range-select predicate inside a composite query."""

    __slots__ = ("predicate",)

    def __init__(self, predicate: RangeSelect) -> None:
        self.predicate = predicate

    @property
    def relation(self) -> str:
        return self.predicate.relation

    def sync(self, ctx: MaintenanceContext) -> None:
        pass  # the rectangle is static; nothing to track

    def relevant(self, applied: AppliedUpdate) -> bool:
        window = self.predicate.window
        return bool(
            _in_window(window, applied.inserted_xs, applied.inserted_ys).any()
            or _in_window(window, applied.removed_xs, applied.removed_ys).any()
            or _in_window(window, applied.moved_old_xs, applied.moved_old_ys).any()
            or _in_window(window, applied.moved_new_xs, applied.moved_new_ys).any()
        )


class _JoinGuard:
    """Conservative guard of a join predicate: every update is relevant.

    A kNN-join's output can change with any mutation of either relation (an
    outer update changes the row set; an inner update can displace any row's
    neighbors), so composite queries containing a join re-execute whenever a
    joined relation is touched.
    """

    __slots__ = ("relation",)

    def __init__(self, relation: str) -> None:
        self.relation = relation

    def sync(self, ctx: MaintenanceContext) -> None:
        pass

    def relevant(self, applied: AppliedUpdate) -> bool:
        return True


class RefreshState:
    """Two-predicate subscriptions: guard-filtered engine re-execution.

    The composite query classes (two selects, select+join, range+join, two
    joins) combine constituent predicates whose *individual* guard regions
    are cheap to track even where the combined result is not incrementally
    repairable.  A batch that triggers none of the updated relation's guards
    provably leaves every constituent — and therefore the composite answer —
    unchanged and is skipped outright; a triggered guard re-executes the
    query through the engine's plan cache and emits the row diff.
    """

    __slots__ = ("query", "_guards", "_rows")

    def __init__(self, query: Query, ctx: MaintenanceContext) -> None:
        self.query = query
        self._guards: list[_SelectGuard | _RangeGuard | _JoinGuard] = []
        for predicate in query.predicates:
            if isinstance(predicate, KnnSelect):
                self._guards.append(_SelectGuard(predicate))
            elif isinstance(predicate, RangeSelect):
                self._guards.append(_RangeGuard(predicate))
            else:
                self._guards.append(_JoinGuard(predicate.outer))
                self._guards.append(_JoinGuard(predicate.inner))
        self._rows: tuple = ()
        self.refresh(ctx)

    def rows(self) -> tuple:
        """Canonical rows of the composite result (see :func:`result_rows`)."""
        return self._rows

    def refresh(self, ctx: MaintenanceContext) -> None:
        """Re-execute the query and re-sync every guard."""
        self._rows = result_rows(ctx.run(self.query))
        for guard in self._guards:
            guard.sync(ctx)

    def apply(self, applied: AppliedUpdate, relation: str, ctx: MaintenanceContext) -> str:
        """Skip provably unaffected batches; re-execute otherwise."""
        guards = [g for g in self._guards if g.relation == relation]
        if not any(guard.relevant(applied) for guard in guards):
            return SKIPPED
        self._rows = result_rows(ctx.run(self.query))
        for guard in guards:
            guard.sync(ctx)
        return REFRESHED


#: Union of the concrete maintenance-state types.
MaintenanceState = (
    KnnSelectState
    | RangeSelectState
    | KnnJoinState
    | AlgebraAggregateState
    | AlgebraRefreshState
    | RefreshState
)


def make_state(query_class: str, query: Query, ctx: MaintenanceContext) -> "MaintenanceState":
    """Build the maintenance state for a planned query's class.

    Algebra trees pick between the two algebra states structurally:
    local-decomposable aggregate shapes (whose grid frame is known) maintain
    per-cell counts incrementally; everything else falls back to
    compositionally-guarded re-execution.
    """
    if query_class == "algebra":
        assert query.tree is not None
        optimized, _trail = rewritten_tree(query.tree)
        local = local_decomposition(optimized)
        if local is not None and local[1] is not None:
            agg, relation = local[1], local[3]
            if not isinstance(agg, GridAggregate) or ctx.bounds(relation) is not None:
                return AlgebraAggregateState(query, ctx)
        return AlgebraRefreshState(query, ctx)
    if query_class == "single-select":
        return KnnSelectState(query.predicates[0], ctx)  # type: ignore[arg-type]
    if query_class == "single-range":
        return RangeSelectState(query.predicates[0], ctx)  # type: ignore[arg-type]
    if query_class == "single-join":
        return KnnJoinState(query.predicates[0], ctx)  # type: ignore[arg-type]
    return RefreshState(query, ctx)
