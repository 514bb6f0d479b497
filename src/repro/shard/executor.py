"""Sharded execution: per-shard tasks, worker dispatch, per-class coordinators.

A planned query is decomposed into :class:`ShardTask` units — one per shard
of the *driving* relation (the outer relation of a join, the selected
relation of a select) — that a worker executes against the shard runtime,
returning a **mergeable partial result** (per-shard kNN candidates, pair
lists, triplet lists; see :mod:`repro.operators.merge`).  The coordinator
(:func:`sharded_execute`) builds the tasks for the plan's query class, runs
them through the engine's worker pool, and merges the partials into the
exact global answer.

Correct cross-shard semantics come from two mechanisms:

* the driving relation is a true partition, so per-shard join outputs
  concatenate without loss or duplication, and
* every kNN inside a worker goes through
  :func:`repro.shard.batch.sharded_knn_batch` — border expansion over the
  *inner* relation's shards — so a point near a shard boundary still finds
  its true k nearest neighbors in adjacent shards.

Every task carries the dataset versions its plan was derived against;
:func:`execute_shard_task` re-validates them *at execution time* and raises
:class:`~repro.exceptions.StaleShardError` on any mismatch, so a plan is
never served against stale per-shard state (e.g. a process-pool worker whose
forked snapshot predates a mutation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro import kernels
from repro.algebra.compile import rewritten_tree
from repro.algebra.decompose import chain_window, local_decomposition
from repro.algebra.evaluate import (
    evaluate,
    grid_cells,
    grid_counts,
    grid_rows,
    package_output,
    region_counts,
    topk_rows,
)
from repro.algebra.tree import AlgebraNode, GridAggregate, RegionAggregate, TopK
from repro.exceptions import StaleShardError, UnsupportedQueryError
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.locality.knn import get_knn
from repro.locality.neighborhood import Neighborhood
from repro.obs.flight import task_counters
from repro.operators.intersection import intersect_pairs_on_inner, intersect_points
from repro.operators.merge import (
    merge_neighborhoods,
    merge_pair_partials,
    merge_pid_partials,
    merge_triplet_partials,
)
from repro.operators.range_select import range_select_rows
from repro.operators.results import JoinPair, JoinTriplet, pair_key
from repro.core.stats import PruningStats
from repro.planner.plan import PhysicalPlan
from repro.query.predicates import KnnJoin, KnnSelect, RangeSelect
from repro.query.query import Query
from repro.query.results import QueryResult
from repro.shard.batch import sharded_knn_batch
from repro.shard.dataset import ShardedDataset
from repro.shard.knn import sharded_knn, sharded_range_rows
from repro.storage.pointstore import PointStore

__all__ = [
    "ShardTask",
    "execute_shard_task",
    "relation_bounds",
    "sharded_execute",
]

#: ``(relation, version)`` stamps a task was planned against.
VersionStamps = tuple[tuple[str, int], ...]

#: Runs a batch of tasks, preserving order (the engine's worker pool).
TaskRunner = Callable[[Sequence["ShardTask"]], list[object]]


@dataclass(frozen=True)
class ShardTask:
    """One unit of fan-out work: part of a query against one driving shard.

    Attributes
    ----------
    kind:
        Worker dispatch key (``knn`` / ``two_knn`` / ``range`` / ``join`` /
        ``chained`` / ``algebra``).
    relation:
        The driving relation whose shard this task covers.
    shard_id:
        Which shard of the driving relation to execute against.
    payload:
        Kind-specific parameters (picklable, so tasks cross process
        boundaries).
    versions:
        Version stamps of *every* relation the worker will read; validated
        at execution time.
    """

    kind: str
    relation: str
    shard_id: int
    payload: tuple
    versions: VersionStamps


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def execute_shard_task(
    datasets: Mapping[str, ShardedDataset], task: ShardTask
) -> object:
    """Execute one task against the shard runtime (runs inside a worker).

    The version check happens here — at execution time, in the worker — not
    only at planning time: a process worker may hold a forked snapshot older
    than the coordinator's state, and a dataset may have been mutated behind
    the engine's back.  Either way the stamps disagree and the task refuses
    to run.
    """
    for name, version in task.versions:
        sharded = datasets.get(name)
        if sharded is None:
            raise StaleShardError(f"relation {name!r} missing from shard runtime")
        if sharded.version != version or sharded.synced_version != version:
            raise StaleShardError(
                f"relation {name!r} is at version "
                f"{sharded.version} (shards synced at {sharded.synced_version}), "
                f"but the plan expected version {version}"
            )
    driving = datasets[task.relation].shard(task.shard_id)
    if driving is None:  # shard emptied by a racing (version-checked) mutation
        return []
    counters = task_counters()
    if counters is not None:
        # Every kind reads the driving shard's columns end to end (the
        # window-filtered join also masks over all rows first).
        counters.rows_scanned += len(driving.store)

    if task.kind == "knn":
        focal, k = task.payload
        return get_knn(driving.index, focal, k)
    if task.kind == "two_knn":
        (f1, k1), (f2, k2) = task.payload
        return (get_knn(driving.index, f1, k1), get_knn(driving.index, f2, k2))
    if task.kind == "range":
        (window,) = task.payload
        return driving.store.pids[range_select_rows(driving.index, window)]
    if task.kind == "join":
        inner_rel, k, select_pids, inner_window, outer_window = task.payload
        inner = datasets[inner_rel]
        return _join_batched(
            driving, inner, k, select_pids, inner_window, outer_window
        )
    if task.kind == "chained":
        b_rel, c_rel, k_ab, k_bc = task.payload
        b, c = datasets[b_rel], datasets[c_rel]
        return _chained_batched(driving, b, c, k_ab, k_bc)
    if task.kind == "algebra":
        subtree, agg, bounds = task.payload
        batch = evaluate(subtree, _ShardLocalContext(driving, bounds)).batch
        store, rows = batch.column("point")
        if agg is None:
            return store.pids[rows]
        agg_kind, spec = agg
        xs, ys = store.xs[rows], store.ys[rows]
        if agg_kind == "grid":
            return grid_counts(grid_cells(xs, ys, bounds, spec), spec)
        return region_counts(spec, xs, ys)
    raise UnsupportedQueryError(f"unknown shard task kind {task.kind!r}")


class _ShardLocalContext:
    """Eval context over one driving shard, for local-decomposable subtrees.

    The coordinator only dispatches filter chains (range/attribute filters
    over one scan) here, so the kNN entry points are unreachable — a filter
    chain's output over a partition is exactly the union of its per-shard
    outputs, which is what makes the fan-out lossless.  ``bounds`` is the
    *global* relation extent, so per-shard grid cells line up with the
    unsharded decomposition.
    """

    def __init__(self, shard, bounds: Rect | None) -> None:
        self._shard = shard
        self._bounds = bounds

    def store(self, relation: str) -> PointStore:
        return self._shard.store

    def bounds(self, relation: str) -> Rect | None:
        return self._bounds

    def range_rows(self, relation: str, window: Rect) -> np.ndarray:
        return range_select_rows(self._shard.index, window)

    def knn(self, relation, focal, k):  # pragma: no cover - never dispatched
        raise UnsupportedQueryError("kNN subtrees are not shard-local")

    def knn_batch(self, relation, coords, k):  # pragma: no cover - never dispatched
        raise UnsupportedQueryError("kNN subtrees are not shard-local")


def _join_batched(driving, inner, k, select_pids, inner_window, outer_window):
    """Join one driving shard via the batched cross-shard kNN.

    The driving rows are visited in store order, the outer-window filter
    runs as one ``window_mask`` kernel over the columns, and every surviving
    row's neighborhood comes from one :func:`sharded_knn_batch` call over
    the shard's coordinates.
    """
    store = driving.store
    if outer_window is not None:
        mask = kernels.window_mask(
            store.xs,
            store.ys,
            outer_window.xmin,
            outer_window.ymin,
            outer_window.xmax,
            outer_window.ymax,
        )
        rows = np.nonzero(mask)[0]
        counters = task_counters()
        if counters is not None:
            # Driving rows the outer window eliminated before any kNN work.
            counters.candidates_pruned += len(store) - len(rows)
    else:
        rows = np.arange(len(store))
    if not len(rows):
        return []
    coords = np.column_stack((store.xs[rows], store.ys[rows]))
    neighborhoods = sharded_knn_batch(inner, coords, k)
    pairs: list[JoinPair] = []
    for row, nbr in zip(rows.tolist(), neighborhoods):
        e1 = store.point_at(row)
        for e2 in nbr:
            if select_pids is not None and e2.pid not in select_pids:
                continue
            if inner_window is not None and not inner_window.contains_point(e2):
                continue
            pairs.append(JoinPair(e1, e2))
    return pairs


def _chained_batched(driving, b, c, k_ab, k_bc):
    """Chained joins over one driving shard, both hops batched.

    The A→B hop is one batched kNN over the shard's coordinates; the B→C
    hop batches over the *unique* B points found, so each B→C neighborhood
    is computed once per task.
    """
    store = driving.store
    coords = np.column_stack((store.xs, store.ys))
    ab = sharded_knn_batch(b, coords, k_ab)
    unique_b: dict[int, Point] = {}
    for nbr in ab:
        for b_point in nbr:
            if b_point.pid not in unique_b:
                unique_b[b_point.pid] = b_point
    cache: dict[int, Neighborhood] = {}
    if unique_b:
        b_points = list(unique_b.values())
        b_coords = np.array([(p.x, p.y) for p in b_points], dtype=np.float64)
        c_nbrs = sharded_knn_batch(c, b_coords, k_bc)
        cache = {p.pid: nbr for p, nbr in zip(b_points, c_nbrs)}
    triplets: list[JoinTriplet] = []
    for row, nbr in enumerate(ab):
        a = store.point_at(row)
        for b_point in nbr:
            for c_point in cache[b_point.pid]:
                triplets.append(JoinTriplet(a, b_point, c_point))
    return triplets


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
class _Coordinator:
    """Builds, runs and merges the shard tasks of one planned query."""

    def __init__(
        self,
        datasets: Mapping[str, ShardedDataset],
        run_tasks: TaskRunner,
        prefer_fanout: bool,
    ) -> None:
        self.datasets = datasets
        self.run_tasks = run_tasks
        # With a parallel pool, fanning a top-level kNN/range out over every
        # shard wins on latency; on a serial pool the border-expansion search
        # (which prunes most shards) is cheaper than visiting all of them.
        self.prefer_fanout = prefer_fanout
        self.tasks_dispatched = 0
        # Work counters aggregated across the shard tasks (the coordinator
        # knows each driving shard's population, so per-point-kNN work can be
        # charged without shipping counters back from the workers — the same
        # merge-at-the-coordinator idea as IndexStats.aggregate).  Charges
        # are deliberately conservative (lower bounds), so the engine's
        # misprediction check never demotes a sharded plan on overcounted
        # work.  The counters ride back on the QueryResult and feed the
        # wrapping engine's calibration store.
        self.work = PruningStats()

    # -- plumbing -------------------------------------------------------
    def _versions(self, *names: str) -> VersionStamps:
        return tuple(sorted((n, self.datasets[n].version) for n in set(names)))

    def _run(self, tasks: list[ShardTask]) -> list[object]:
        self.tasks_dispatched += len(tasks)
        return self.run_tasks(tasks)

    def _fanout_knn(self, relation: str, focal: Point, k: int) -> Neighborhood:
        """Global kNN: all-shard fan-out, or pruned border expansion."""
        sharded = self.datasets[relation]
        if not self.prefer_fanout:
            self.work.neighborhoods_computed += 1
            return sharded_knn(sharded, focal, k)
        versions = self._versions(relation)
        tasks = [
            ShardTask("knn", relation, sid, (focal, k), versions)
            for sid, _ in sharded.populated()
        ]
        self.work.neighborhoods_computed += len(tasks)
        partials = [p for p in self._run(tasks) if isinstance(p, Neighborhood)]
        return merge_neighborhoods(focal, k, partials)

    def _fanout_range_rows(self, relation: str, window: Rect) -> np.ndarray:
        """Base-store rows inside ``window``, pid-ordered, from every shard
        intersecting it; workers ship pid arrays, not points."""
        sharded = self.datasets[relation]
        if not self.prefer_fanout:
            return sharded_range_rows(sharded, window)
        versions = self._versions(relation)
        tasks = [
            ShardTask("range", relation, sid, (window,), versions)
            for sid, ds in sharded.populated()
            if ds.index.bounds.intersects(window)
        ]
        return merge_pid_partials(sharded.base.store, self._run(tasks))  # type: ignore[arg-type]

    def _fanout_range(self, relation: str, window: Rect) -> list[Point]:
        """Global range select, materialized from the authoritative store."""
        rows = self._fanout_range_rows(relation, window)
        return self.datasets[relation].base.store.materialize(rows)

    def _join_tasks(
        self,
        outer_rel: str,
        inner_rel: str,
        k: int,
        select_pids: frozenset[int] | None = None,
        inner_window: Rect | None = None,
        outer_window: Rect | None = None,
    ) -> list[ShardTask]:
        versions = self._versions(outer_rel, inner_rel)
        payload = (inner_rel, k, select_pids, inner_window, outer_window)
        tasks = []
        for sid, shard in self.datasets[outer_rel].populated():
            tasks.append(ShardTask("join", outer_rel, sid, payload, versions))
            if outer_window is None:
                # Every driving point gets one cross-shard kNN; with an outer
                # window the worker skips points outside it, so nothing is
                # charged (lower bound).
                self.work.neighborhoods_computed += len(shard)
        return tasks

    # -- result helpers -------------------------------------------------
    def _points(self, strategy: str, query_class: str, points: Sequence[Point]) -> QueryResult:
        return QueryResult(
            strategy=strategy,
            query_class=query_class,
            points=tuple(points),
            stats=self.work,
        )

    def _pairs(self, strategy: str, query_class: str, pairs: Sequence[JoinPair]) -> QueryResult:
        return QueryResult(
            strategy=strategy,
            query_class=query_class,
            pairs=tuple(pairs),
            stats=self.work,
        )

    # -- per-query-class execution --------------------------------------
    def execute(self, plan: PhysicalPlan, query: Query) -> QueryResult:
        """Run ``query`` according to ``plan`` and merge the global answer."""
        selects = [p for p in query.predicates if isinstance(p, KnnSelect)]
        joins = [p for p in query.predicates if isinstance(p, KnnJoin)]
        ranges = [p for p in query.predicates if isinstance(p, RangeSelect)]
        cls = plan.query_class
        strategy = f"sharded:{plan.strategy}"

        if cls == "algebra":
            if query.tree is None:
                raise UnsupportedQueryError(
                    "cached algebra plan does not fit this query"
                )
            return self._algebra(strategy, query.tree)
        if cls == "single-select":
            s = selects[0]
            return self._points(
                strategy, cls, tuple(self._fanout_knn(s.relation, s.focal, s.k))
            )
        if cls == "single-range":
            r = ranges[0]
            return self._points(strategy, cls, self._fanout_range(r.relation, r.window))
        if cls == "two-selects":
            return self._two_selects(strategy, selects[0], selects[1])
        if cls == "two-ranges":
            first = self._fanout_range(ranges[0].relation, ranges[0].window)
            second = self._fanout_range(ranges[1].relation, ranges[1].window)
            return self._points(strategy, cls, intersect_points(first, second))
        if cls == "range-and-knn-select":
            s, r = selects[0], ranges[0]
            nbr = self._fanout_knn(s.relation, s.focal, s.k)
            return self._points(strategy, cls, nbr.within(r.window))
        if cls == "single-join":
            j = joins[0]
            partials = self._run(self._join_tasks(j.outer, j.inner, j.k))
            return self._pairs(strategy, cls, merge_pair_partials(partials))  # type: ignore[arg-type]
        if cls == "select-outer-of-join":
            return self._select_outer_join(strategy, selects[0], joins[0])
        if cls == "select-inner-of-join":
            s, j = selects[0], joins[0]
            selection = self._fanout_knn(j.inner, s.focal, s.k)
            partials = self._run(
                self._join_tasks(j.outer, j.inner, j.k, select_pids=selection.pids)
            )
            return self._pairs(strategy, cls, merge_pair_partials(partials))  # type: ignore[arg-type]
        if cls == "range-outer-of-join":
            r, j = ranges[0], joins[0]
            partials = self._run(
                self._join_tasks(j.outer, j.inner, j.k, outer_window=r.window)
            )
            return self._pairs(strategy, cls, merge_pair_partials(partials))  # type: ignore[arg-type]
        if cls == "range-inner-of-join":
            r, j = ranges[0], joins[0]
            partials = self._run(
                self._join_tasks(j.outer, j.inner, j.k, inner_window=r.window)
            )
            return self._pairs(strategy, cls, merge_pair_partials(partials))  # type: ignore[arg-type]
        if cls == "chained-joins":
            return self._chained(strategy, joins[0], joins[1])
        if cls == "unchained-joins":
            return self._unchained(strategy, joins[0], joins[1])
        raise UnsupportedQueryError(f"unknown query class in plan: {cls!r}")

    # -- algebra trees --------------------------------------------------
    def _algebra(self, strategy: str, tree: AlgebraNode) -> QueryResult:
        """Execute an algebra tree against the shard runtime, exactly.

        Local-decomposable trees — filter chains over one scan, optionally
        under a spatial aggregate (and top-k) — fan out one task per driving
        shard: each worker evaluates the chain against its partition and
        ships back either the pids of its surviving rows or its **partial
        aggregate** (per-cell / per-region counts), which the coordinator
        merges by concatenation or summation.  Everything else (kNN filters, joins)
        evaluates coordinator-side through a context whose kNN entry points
        are the exact cross-shard primitives (border expansion / batched
        fan-out), so results match unsharded execution row for row.
        """
        optimized, _trail = rewritten_tree(tree)
        local = local_decomposition(optimized)
        if local is not None:
            return self._algebra_fanout(strategy, local)
        out = evaluate(optimized, _CoordinatorEvalContext(self))
        return QueryResult(
            strategy=strategy,
            query_class="algebra",
            stats=self.work,
            **package_output(out),
        )

    def _algebra_fanout(
        self,
        strategy: str,
        local: "tuple[AlgebraNode, GridAggregate | RegionAggregate | None, TopK | None, str]",
    ) -> QueryResult:
        chain, agg, topk, relation = local
        sharded = self.datasets[relation]
        bounds = relation_bounds(sharded)
        if agg is not None and bounds is None:
            raise UnsupportedQueryError(
                "spatial aggregates need the target relation's bounds; build "
                "the dataset with explicit bounds"
            )
        if agg is None:
            agg_spec = None
        elif isinstance(agg, GridAggregate):
            agg_spec = ("grid", agg.cells_per_side)
        else:
            agg_spec = ("region", agg.regions)
        versions = self._versions(relation)
        window = chain_window(chain)
        tasks = [
            ShardTask("algebra", relation, sid, (chain, agg_spec, bounds), versions)
            for sid, ds in sharded.populated()
            if window is None or ds.index.bounds.intersects(window)
        ]
        partials = self._run(tasks)
        if agg is None:
            store = sharded.base.store
            rows = merge_pid_partials(store, partials)  # type: ignore[arg-type]
            return QueryResult(
                strategy=strategy,
                query_class="algebra",
                points=tuple(store.materialize(rows)),
                stats=self.work,
            )
        counts: dict = {}
        for partial in partials:
            for key, value in partial.items():  # type: ignore[union-attr]
                counts[key] = counts.get(key, 0) + value
        if isinstance(agg, GridAggregate):
            rows = grid_rows(counts, agg, bounds)
        else:
            rows = [(name, counts.get(name, 0)) for name, _rect in agg.regions]
        if topk is not None:
            rows = topk_rows(rows, topk.limit)
        return QueryResult(
            strategy=strategy,
            query_class="algebra",
            records=tuple(rows),
            stats=self.work,
        )

    def _two_selects(
        self, strategy: str, first: KnnSelect, second: KnnSelect
    ) -> QueryResult:
        relation = first.relation
        if not self.prefer_fanout:
            self.work.neighborhoods_computed += 2
            n1 = sharded_knn(self.datasets[relation], first.focal, first.k)
            n2 = sharded_knn(self.datasets[relation], second.focal, second.k)
        else:
            versions = self._versions(relation)
            payload = ((first.focal, first.k), (second.focal, second.k))
            tasks = [
                ShardTask("two_knn", relation, sid, payload, versions)
                for sid, _ in self.datasets[relation].populated()
            ]
            self.work.neighborhoods_computed += 2 * len(tasks)
            partials = self._run(tasks)
            n1 = merge_neighborhoods(first.focal, first.k, [p[0] for p in partials])  # type: ignore[index]
            n2 = merge_neighborhoods(second.focal, second.k, [p[1] for p in partials])  # type: ignore[index]
        return self._points(strategy, "two-selects", intersect_points(n1, n2))

    def _select_outer_join(
        self, strategy: str, select: KnnSelect, join: KnnJoin
    ) -> QueryResult:
        # The selection shrinks the outer relation to kσ points — too few to
        # fan out; the coordinator joins them inline via border expansion.
        selection = self._fanout_knn(join.outer, select.focal, select.k)
        self.work.neighborhoods_computed += len(selection)
        inner = self.datasets[join.inner]
        pairs = [
            JoinPair(e1, e2)
            for e1 in selection
            for e2 in sharded_knn(inner, e1, join.k)
        ]
        pairs.sort(key=pair_key)
        return self._pairs(strategy, "select-outer-of-join", pairs)

    def _chained(self, strategy: str, first: KnnJoin, second: KnnJoin) -> QueryResult:
        chained = Query._chain_order(first, second)
        if chained is None:
            raise UnsupportedQueryError("cached chained plan does not fit these joins")
        ab, bc = chained
        versions = self._versions(ab.outer, ab.inner, bc.inner)
        tasks = []
        for sid, shard in self.datasets[ab.outer].populated():
            tasks.append(
                ShardTask(
                    "chained", ab.outer, sid, (ab.inner, bc.inner, ab.k, bc.k), versions
                )
            )
            # One A→B kNN per driving point; the cached B→C side is not
            # charged (lower bound).
            self.work.neighborhoods_computed += len(shard)
        triplets = merge_triplet_partials(self._run(tasks))  # type: ignore[arg-type]
        return QueryResult(
            strategy=strategy,
            query_class="chained-joins",
            triplets=tuple(triplets),
            stats=self.work,
        )

    def _unchained(self, strategy: str, ab: KnnJoin, cb: KnnJoin) -> QueryResult:
        # Both joins' tasks go to the pool in one batch for full overlap.
        ab_tasks = self._join_tasks(ab.outer, ab.inner, ab.k)
        cb_tasks = self._join_tasks(cb.outer, cb.inner, cb.k)
        results = self._run(ab_tasks + cb_tasks)
        ab_pairs = merge_pair_partials(results[: len(ab_tasks)])  # type: ignore[arg-type]
        cb_pairs = merge_pair_partials(results[len(ab_tasks) :])  # type: ignore[arg-type]
        triplets = intersect_pairs_on_inner(ab_pairs, cb_pairs)
        triplets.sort(key=lambda t: t.pids)
        return QueryResult(
            strategy=strategy,
            query_class="unchained-joins",
            triplets=tuple(triplets),
            stats=self.work,
        )


def relation_bounds(sharded: ShardedDataset) -> Rect | None:
    """The relation's global extent: declared bounds, else shard union."""
    if sharded.base.bounds is not None:
        return sharded.base.bounds
    extent: Rect | None = None
    for _sid, ds in sharded.populated():
        b = ds.index.bounds
        extent = b if extent is None else extent.union(b)
    return extent


class _CoordinatorEvalContext:
    """Eval context answering from the shard runtime, coordinator-side.

    Stores and bounds come from the authoritative base dataset; kNN entry
    points are the exact cross-shard primitives (border expansion and the
    batched fan-out), whose shard-addressed neighborhoods the evaluator
    re-addresses in the base store by pid, and range selects fan out per
    shard — so a tree that is not local-decomposable still returns exactly
    the unsharded rows.
    """

    def __init__(self, coordinator: "_Coordinator") -> None:
        self._c = coordinator

    def store(self, relation: str) -> PointStore:
        return self._c.datasets[relation].base.store

    def bounds(self, relation: str) -> Rect | None:
        return relation_bounds(self._c.datasets[relation])

    def knn(self, relation: str, focal: Point, k: int) -> Neighborhood:
        return self._c._fanout_knn(relation, focal, k)

    def knn_batch(self, relation: str, coords: np.ndarray, k: int) -> list[Neighborhood]:
        self._c.work.neighborhoods_computed += len(coords)
        return sharded_knn_batch(self._c.datasets[relation], coords, k)

    def range_rows(self, relation: str, window: Rect) -> np.ndarray:
        return self._c._fanout_range_rows(relation, window)


def sharded_execute(
    plan: PhysicalPlan,
    query: Query,
    datasets: Mapping[str, ShardedDataset],
    run_tasks: TaskRunner,
    prefer_fanout: bool = True,
) -> tuple[QueryResult, int]:
    """Execute a planned query against sharded relations.

    Returns ``(result, tasks_dispatched)``.  The result holds the same rows
    as unsharded execution of the same plan — merged per-shard partials are
    exact, not approximate — in a canonical order (kNN results in
    ``(distance, pid)`` order, pair/triplet results sorted by pid keys).
    """
    coordinator = _Coordinator(datasets, run_tasks, prefer_fanout)
    result = coordinator.execute(plan, query)
    return result, coordinator.tasks_dispatched
