"""Brute-force oracle: what every benchmarked op *should* have returned.

The expected rows are computed from the relations' store columns alone — no
index, no locality search, no kernel tier, no planner — so a defect in any
layer the benchmark times shows up as a mismatch.  kNN ranks by the
library-wide ``(distance, pid)`` order; results compare as the canonical row
keys of :func:`repro.stream.delta.result_rows`.

``repro.algebra.reference`` and ``repro.locality.brute`` are the repository's
own references.  Their per-row Python sorts are too slow to check a 5 % op
sample inside a run (a kNN-join row sorts the whole inner relation), so the
join shapes are vectorized here and :func:`self_test` pins this module to
those references on a small input — and proves a wrong result is caught.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.algebra.reference import reference_evaluate, reference_rows
from repro.algebra.tree import AlgebraNode, GridAggregate, KnnJoinOp
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.locality.brute import brute_force_knn
from repro.storage.pointstore import PointStore

__all__ = [
    "knn_pids",
    "knn_rows",
    "knn_join",
    "Memo",
    "window_pids",
    "expected_rows",
    "algebra_rows",
    "replay_deltas",
    "stores_equal",
    "self_test",
]

Stores = Mapping[str, PointStore]


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
def _rank(dists: np.ndarray, pids: np.ndarray, k: int) -> np.ndarray:
    """Positions of the first ``k`` entries in ``(distance, pid)`` order.

    Everything farther than the k-th smallest distance cannot be in the
    answer, so only that head (ties included) is fully sorted.
    """
    if len(dists) > k:
        kth = np.partition(dists, k - 1)[k - 1]
        head = np.nonzero(dists <= kth)[0]
    else:
        head = np.arange(len(dists))
    order = np.lexsort((pids[head], dists[head]))[:k]
    return head[order]


def knn_rows(store: PointStore, x: float, y: float, k: int) -> np.ndarray:
    """Store rows of the ``k`` nearest points to ``(x, y)``, nearest first."""
    dists = np.hypot(store.xs - x, store.ys - y)
    return _rank(dists, store.pids, k)


def knn_pids(store: PointStore, x: float, y: float, k: int) -> list[int]:
    """Pids of the ``k`` nearest points to ``(x, y)``, nearest first."""
    return store.pids[knn_rows(store, x, y, k)].tolist()


def knn_join(outer: PointStore, inner: PointStore, k: int) -> dict[int, list[int]]:
    """``outer pid -> pids of its k nearest inner points`` (nearest first)."""
    return {
        int(pid): knn_pids(inner, float(x), float(y), k)
        for pid, x, y in zip(outer.pids.tolist(), outer.xs.tolist(), outer.ys.tolist())
    }


class Memo:
    """Remembers what the oracle derived from unchanged store snapshots.

    Ops of a read-only workload join the same relations with the same ``k``
    (and materialize the same point lists for the reference evaluator) over
    and over; those parts of the answer cannot change while the snapshots do
    not.  Entries hold the stores themselves, so an ``id`` is never reused
    while its entry lives.
    """

    def __init__(self) -> None:
        self._joins: dict[tuple[int, int, int], tuple[PointStore, PointStore, dict]] = {}
        self._points: dict[int, tuple[PointStore, list[Point]]] = {}

    def points(self, store: PointStore) -> list[Point]:
        entry = self._points.get(id(store))
        if entry is None:
            entry = self._points[id(store)] = (store, list(store.iter_points()))
        return entry[1]

    def join(self, outer: PointStore, inner: PointStore, k: int) -> dict[int, list[int]]:
        key = (id(outer), id(inner), k)
        entry = self._joins.get(key)
        if entry is None:
            entry = self._joins[key] = (outer, inner, knn_join(outer, inner, k))
        return entry[2]


def window_pids(store: PointStore, window: Rect) -> set[int]:
    """Pids inside the closed rectangle."""
    mask = (
        (store.xs >= window.xmin)
        & (store.xs <= window.xmax)
        & (store.ys >= window.ymin)
        & (store.ys <= window.ymax)
    )
    return set(store.pids[mask].tolist())


# ----------------------------------------------------------------------
# The paper's query classes
# ----------------------------------------------------------------------
def expected_rows(kind: str, args: tuple, stores: Stores, memo: Memo | None = None) -> tuple:
    """Canonical row keys of one query-class op (see the workloads' op args)."""
    join = memo.join if memo is not None else knn_join
    if kind == "two-selects":
        relation, (f1, k1), (f2, k2) = args
        store = stores[relation]
        first = set(knn_pids(store, f1.x, f1.y, k1))
        return tuple(sorted(first.intersection(knn_pids(store, f2.x, f2.y, k2))))
    if kind == "knn-select":
        relation, focal, k = args
        return tuple(sorted(knn_pids(stores[relation], focal.x, focal.y, k)))
    if kind == "range-and-knn-select":
        relation, focal, k, window = args
        store = stores[relation]
        inside = window_pids(store, window)
        return tuple(sorted(p for p in knn_pids(store, focal.x, focal.y, k) if p in inside))
    if kind == "select-inner-of-join":
        outer, inner, k_join, focal, k_select = args
        selected = set(knn_pids(stores[inner], focal.x, focal.y, k_select))
        joined = join(stores[outer], stores[inner], k_join)
        return tuple(sorted((a, b) for a, bs in joined.items() for b in bs if b in selected))
    if kind == "select-outer-of-join":
        outer, inner, k_join, focal, k_select = args
        rows = knn_rows(stores[outer], focal.x, focal.y, k_select)
        joined = knn_join(stores[outer].take(rows), stores[inner], k_join)
        return tuple(sorted((a, b) for a, bs in joined.items() for b in bs))
    if kind == "range-inner-of-join":
        outer, inner, k_join, window = args
        inside = window_pids(stores[inner], window)
        joined = join(stores[outer], stores[inner], k_join)
        return tuple(sorted((a, b) for a, bs in joined.items() for b in bs if b in inside))
    if kind == "chained-joins":
        a, b, c, k_ab, k_bc = args
        ab = join(stores[a], stores[b], k_ab)
        bc = join(stores[b], stores[c], k_bc)
        return tuple(
            sorted((pa, pb, pc) for pa, bs in ab.items() for pb in bs for pc in bc[pb])
        )
    if kind == "unchained-joins":
        a, c, b, k_ab, k_cb = args
        ab = join(stores[a], stores[b], k_ab)
        by_b: dict[int, list[int]] = {}
        for pc, bs in join(stores[c], stores[b], k_cb).items():
            for pb in bs:
                by_b.setdefault(pb, []).append(pc)
        return tuple(
            sorted((pa, pb, pc) for pa, bs in ab.items() for pb in bs for pc in by_b.get(pb, ()))
        )
    raise ValueError(f"oracle has no rule for op kind {kind!r}")


# ----------------------------------------------------------------------
# Algebra trees
# ----------------------------------------------------------------------
def algebra_rows(
    tree: AlgebraNode, stores: Stores, bounds: Mapping[str, Rect], memo: Memo | None = None
) -> tuple:
    """Canonical rows of a tree: the repository's reference evaluator, except
    that a grid aggregate over a kNN join ranks neighbours with numpy."""
    memo = memo if memo is not None else Memo()
    if isinstance(tree, GridAggregate) and isinstance(tree.child, KnnJoinOp):
        return _grid_over_join(tree, stores, bounds, memo)
    relations = {name: memo.points(stores[name]) for name in tree.relations()}
    return reference_rows(tree, relations, bounds)


def _grid_over_join(
    tree: GridAggregate, stores: Stores, bounds: Mapping[str, Rect], memo: Memo
) -> tuple:
    join = tree.child
    outer_relations = {name: memo.points(stores[name]) for name in join.outer.relations()}
    outer_rows, _width = reference_evaluate(join.outer, outer_relations, bounds)
    inner = stores[join.inner.relation]
    frame = bounds[tree.target_relation()]
    cps = tree.cells_per_side
    cw, ch = frame.width / cps, frame.height / cps
    counts: dict[tuple[int, int], int] = {}
    for row in outer_rows:
        focal = row[-1]
        for r in knn_rows(inner, focal.x, focal.y, join.k).tolist():
            ix = min(max(int((inner.xs[r] - frame.xmin) / cw), 0), cps - 1)
            iy = min(max(int((inner.ys[r] - frame.ymin) / ch), 0), cps - 1)
            counts[(ix, iy)] = counts.get((ix, iy), 0) + 1
    scale = 1.0 / (cw * ch) if tree.measure == "density" else 1
    return tuple(sorted((cell, n * scale) for cell, n in counts.items()))


# ----------------------------------------------------------------------
# Stream and durable end-state checks
# ----------------------------------------------------------------------
def replay_deltas(initial: tuple, deltas) -> set:
    """Apply ``(added, removed)`` deltas, in push order, to an initial row set."""
    rows = set(initial)
    for delta in deltas:
        rows.difference_update(delta.removed)
        rows.update(delta.added)
    return rows


def stores_equal(left: PointStore, right: PointStore) -> bool:
    """Same points (pid, x, y), regardless of row order."""
    if len(left) != len(right):
        return False
    lo, ro = np.argsort(left.pids), np.argsort(right.pids)
    return bool(
        np.array_equal(left.pids[lo], right.pids[ro])
        and np.array_equal(left.xs[lo], right.xs[ro])
        and np.array_equal(left.ys[lo], right.ys[ro])
    )


# ----------------------------------------------------------------------
# Self-test
# ----------------------------------------------------------------------
def self_test() -> None:
    """Pin the oracle to the repository's references; prove a wrong result
    is counted as a failure.  Raises ``AssertionError`` on any disagreement."""
    from repro.algebra.tree import RangeFilter, Scan
    from perf.harness import count_failures

    rng = np.random.default_rng(7)
    def relation(n: int, start: int) -> PointStore:
        return PointStore(rng.uniform(0, 100, n), rng.uniform(0, 100, n), np.arange(start, start + n))

    stores = {"a": relation(40, 0), "b": relation(150, 1000)}
    points = {name: list(store.iter_points()) for name, store in stores.items()}
    focal = Point(40.0, 60.0)
    reference = brute_force_knn(points["b"], focal, 7)
    if knn_pids(stores["b"], focal.x, focal.y, 7) != reference.pid_array.tolist():
        raise AssertionError("numpy kNN disagrees with repro.locality.brute")
    frame = Rect(0.0, 0.0, 100.0, 100.0)
    bounds = {"a": frame, "b": frame}
    tree = GridAggregate(
        KnnJoinOp(RangeFilter(Scan("a"), Rect(10.0, 10.0, 90.0, 90.0)), Scan("b"), 3), 4
    )
    if algebra_rows(tree, stores, bounds) != reference_rows(tree, points, bounds):
        raise AssertionError("numpy join-aggregate disagrees with repro.algebra.reference")
    expected = expected_rows("knn-select", ("b", focal, 7), stores)
    if count_failures([(expected, expected)]) != 0:
        raise AssertionError("a correct result was counted as a failure")
    wrong = expected[:-1] + (expected[-1] + 1,)
    if count_failures([(wrong, expected)]) != 1:
        raise AssertionError("an injected wrong result was not counted as a failure")
