"""Tree evaluation: execute a (rewritten) algebra tree against an engine context.

Evaluation is **columnar**.  An intermediate result is a :class:`RowBatch`:
one ``int64`` row-index array per point column, each indexing into the
:class:`~repro.storage.pointstore.PointStore` of the relation that column
came from.  Every operator is one vectorized step over those arrays:

* ``RangeFilter(Scan)`` → one rows-returning index range-select (block
  pruning instead of a full scan);
* ``KnnFilter(Scan)`` → one index kNN (the paper's kNN-select);
* other range / attribute / kNN filters → a :mod:`repro.kernels` mask (or
  ``knn_head`` ranking) over the tested column's gathered coordinates, or a
  code comparison against the store's payload column;
* ``KnnJoinOp`` → one batched kNN over the focal column's coordinates (focal
  rows deduplicated when the rewrite engine set ``batch_inner``), fanned out
  with ``np.repeat``;
* aggregates → vectorized cell ids / window masks and counts.

No :class:`~repro.geometry.point.Point` exists inside the evaluator.
:func:`package_output` materializes points only for the rows that leave the
engine; an aggregate tree materializes none.

The :class:`EvalContext` protocol abstracts where stores, rows and
neighborhoods come from, so the same evaluator runs unsharded
(:class:`DatasetContext`), against the sharded runtime (exact cross-shard
kNN — see :mod:`repro.shard.executor`), and inside stream refreshes.
Per-node work is accumulated into ``node_costs`` — the engine records those
under each node's signature, which is how calibration learns
**per-operator** profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Protocol, Sequence

import numpy as np

from repro import kernels
from repro.core.stats import PruningStats
from repro.exceptions import UnsupportedQueryError
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.locality.batch import get_knn_batch
from repro.locality.knn import get_knn
from repro.locality.neighborhood import Neighborhood
from repro.operators.range_select import range_select_rows
from repro.operators.results import JoinPair, JoinTriplet
from repro.storage.pointstore import PointStore
from repro.algebra.tree import (
    AlgebraNode,
    AttrFilter,
    GridAggregate,
    KnnFilter,
    KnnJoinOp,
    RangeFilter,
    RegionAggregate,
    Scan,
    TopK,
)

__all__ = [
    "EvalContext",
    "DatasetContext",
    "EvalOutput",
    "RowBatch",
    "chain_mask",
    "evaluate",
    "grid_cells",
    "grid_counts",
    "grid_rows",
    "package_output",
    "region_counts",
    "topk_rows",
]

#: One aggregate result row: ``(group key, value)``.
Row = tuple

_NO_ROWS = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class RowBatch:
    """Point rows held as columns: one row-index array per point column.

    ``rows[c][i]`` is the row, in ``stores[c]``, of result row ``i``'s
    ``c``-th point; all arrays have equal length.
    """

    stores: tuple[PointStore, ...]
    rows: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.rows[0])

    def column(self, on: str) -> tuple[PointStore, np.ndarray]:
        """The column a filter tests: the first (``"outer"``) or the last."""
        col = 0 if on == "outer" else -1
        return self.stores[col], self.rows[col]

    def select(self, keep: np.ndarray) -> "RowBatch":
        """The rows picked by a boolean mask (or index array), every column."""
        return RowBatch(self.stores, tuple(rows[keep] for rows in self.rows))


class EvalContext(Protocol):
    """What tree evaluation may ask of its engine/runtime.

    Row indices a context hands out — directly from :meth:`range_rows`, or
    as the members of a :class:`Neighborhood` — are read against
    :meth:`store` of the same relation.  Neighborhoods computed over some
    other store (a shard's, or merged across shards) are accepted too: the
    evaluator re-addresses their members by pid.
    """

    def store(self, relation: str) -> PointStore:
        """The relation's column store."""
        ...

    def bounds(self, relation: str) -> Rect | None:
        """The relation's declared bounds (grid-cell decomposition frame)."""
        ...

    def knn(self, relation: str, focal: Point, k: int) -> Neighborhood:
        """Exact k-neighborhood over the whole relation."""
        ...

    def knn_batch(self, relation: str, coords: np.ndarray, k: int) -> list[Neighborhood]:
        """Exact k-neighborhoods of many query coordinates, in input order."""
        ...

    def range_rows(self, relation: str, window: Rect) -> np.ndarray:
        """Rows of :meth:`store` inside ``window`` (index-pruned)."""
        ...


class DatasetContext:
    """The unsharded :class:`EvalContext`: answers straight from the indexes."""

    def __init__(self, datasets: Mapping[str, "object"]) -> None:
        self.datasets = datasets
        #: Abstract work counters shared by every fast path in one evaluation.
        self.stats = PruningStats()

    def store(self, relation: str) -> PointStore:
        """The dataset's store (the one its index rows point into)."""
        return self.datasets[relation].store

    def bounds(self, relation: str) -> Rect | None:
        """Declared dataset bounds, falling back to the index's bounds."""
        dataset = self.datasets[relation]
        if dataset.bounds is not None:
            return dataset.bounds
        try:
            return dataset.index.bounds
        except AttributeError:  # pragma: no cover - every index exposes bounds
            return None

    def knn(self, relation: str, focal: Point, k: int) -> Neighborhood:
        """One exact index kNN (counted as one neighborhood)."""
        self.stats.neighborhoods_computed += 1
        return get_knn(self.datasets[relation].index, focal, k)

    def knn_batch(self, relation: str, coords: np.ndarray, k: int) -> list[Neighborhood]:
        """Batched exact index kNN (one neighborhood per coordinate)."""
        self.stats.neighborhoods_computed += len(coords)
        return get_knn_batch(self.datasets[relation].index, coords, k)

    def range_rows(self, relation: str, window: Rect) -> np.ndarray:
        """One index range-select (block-pruned window scan)."""
        return range_select_rows(self.datasets[relation].index, window)


@dataclass
class EvalOutput:
    """What a tree produced plus the per-node work ledger."""

    #: The point rows; ``None`` for aggregate output.
    batch: RowBatch | None
    #: Aggregate ``(key, value)`` rows of native Python values; empty for
    #: point output.
    records: list[Row]
    #: Abstract work units per node, keyed by the node object (structural
    #: equality merges repeated identical subtrees — deliberately).
    node_costs: dict[AlgebraNode, float] = field(default_factory=dict)

    @property
    def width(self) -> int:
        """Point columns per row; 0 marks aggregate output."""
        return 0 if self.batch is None else len(self.batch.rows)


def evaluate(tree: AlgebraNode, ctx: EvalContext) -> EvalOutput:
    """Execute ``tree`` against ``ctx`` and return its rows.

    Per-row work lands in the output's ``node_costs``; the neighborhood
    counters the six-class executors report are charged by the context's
    kNN entry points, so the engine's calibration and EXPLAIN feedback work
    unchanged.
    """
    return _Evaluator(ctx).run(tree)


class _Evaluator:
    """Single-evaluation state: the context plus the per-node work ledger."""

    def __init__(self, ctx: EvalContext) -> None:
        self.ctx = ctx
        self.node_costs: dict[AlgebraNode, float] = {}

    def run(self, tree: AlgebraNode) -> EvalOutput:
        if tree.width() == 0:
            return EvalOutput(None, self._aggregate(tree), self.node_costs)
        return EvalOutput(self._points(tree), [], self.node_costs)

    def _charge(self, node: AlgebraNode, units: float) -> None:
        self.node_costs[node] = self.node_costs.get(node, 0.0) + float(units)

    # -- point-producing operators --------------------------------------
    def _points(self, node: AlgebraNode) -> RowBatch:
        if isinstance(node, Scan):
            store = self.ctx.store(node.relation)
            self._charge(node, len(store))
            return RowBatch((store,), (np.arange(len(store), dtype=np.int64),))
        if isinstance(node, (RangeFilter, AttrFilter)):
            return self._filter(node)
        if isinstance(node, KnnFilter):
            return self._knn(node)
        if isinstance(node, KnnJoinOp):
            return self._join(node)
        raise UnsupportedQueryError(f"unknown algebra node: {type(node).__name__}")

    def _filter(self, node: RangeFilter | AttrFilter) -> RowBatch:
        if isinstance(node, RangeFilter) and isinstance(node.child, Scan):
            # Fast path: the index prunes blocks disjoint from the window.
            relation = node.child.relation
            rows = self.ctx.range_rows(relation, node.window)
            self._charge(node, len(rows))
            return RowBatch((self.ctx.store(relation),), (rows,))
        batch = self._points(node.child)
        self._charge(node, len(batch))
        return batch.select(_filter_mask(node, *batch.column(node.on)))

    def _knn(self, node: KnnFilter) -> RowBatch:
        if isinstance(node.child, Scan):
            # Fast path: one index kNN instead of scanning the relation.
            relation = node.child.relation
            nbr = self.ctx.knn(relation, node.focal, node.k)
            self._charge(node, 1.0)
            store = self.ctx.store(relation)
            return RowBatch((store,), (_member_rows(store, [nbr]),))
        batch = self._points(node.child)
        self._charge(node, len(batch))
        store, rows = batch.column(node.on)
        # The k nearest among the *distinct* points of the tested column,
        # ranked by the library-wide (hypot distance, pid) order.  Only a
        # join can repeat a row, so single-column batches are distinct as is.
        candidates = rows if len(batch.rows) == 1 else _distinct(rows)
        nearest, _dists = kernels.knn_head(
            store.xs, store.ys, store.pids, candidates, node.focal.x, node.focal.y, node.k
        )
        return batch.select(np.isin(rows, nearest))

    def _join(self, node: KnnJoinOp) -> RowBatch:
        outer = self._points(node.outer)
        assert isinstance(node.inner, Scan)
        relation = node.inner.relation
        inner_store = self.ctx.store(relation)
        stores = outer.stores + (inner_store,)
        if not len(outer):
            self._charge(node, 0.0)
            return RowBatch(stores, outer.rows + (_NO_ROWS,))
        focal_store, focals = outer.stores[-1], outer.rows[-1]
        if node.batch_inner:
            # Chained-join precomputation: one neighborhood per *distinct*
            # focal, shared by every row that repeats it.
            focals, inverse = np.unique(focals, return_inverse=True)
        neighborhoods = self.ctx.knn_batch(relation, focal_store.coords(focals), node.k)
        self._charge(node, len(focals))
        members = _member_rows(inner_store, neighborhoods)
        counts = np.fromiter(
            (len(nbr) for nbr in neighborhoods), dtype=np.int64, count=len(neighborhoods)
        )
        if node.batch_inner:
            # Row i takes the member segment of its focal, inverse[i].
            starts = (np.cumsum(counts) - counts)[inverse]
            counts = counts[inverse]
            shift = starts - (np.cumsum(counts) - counts)
            members = members[np.repeat(shift, counts) + np.arange(counts.sum())]
        fanned = tuple(np.repeat(rows, counts) for rows in outer.rows)
        return RowBatch(stores, fanned + (members,))

    # -- aggregates -----------------------------------------------------
    def _aggregate(self, node: AlgebraNode) -> list[Row]:
        if isinstance(node, TopK):
            rows = self._aggregate(node.child)
            self._charge(node, len(rows))
            return topk_rows(rows, node.limit)
        if not isinstance(node, (GridAggregate, RegionAggregate)):
            raise UnsupportedQueryError(f"unknown algebra node: {type(node).__name__}")
        batch = self._points(node.child)
        store, rows = batch.stores[-1], batch.rows[-1]
        xs, ys = store.xs[rows], store.ys[rows]
        if isinstance(node, RegionAggregate):
            self._charge(node, len(batch) * len(node.regions))
            return list(region_counts(node.regions, xs, ys).items())
        self._charge(node, len(batch))
        bounds = self.ctx.bounds(node.target_relation())
        if bounds is None:
            raise UnsupportedQueryError(
                "GridAggregate needs the target relation's bounds; build the "
                "dataset with explicit bounds"
            )
        cells = grid_cells(xs, ys, bounds, node.cells_per_side)
        return grid_rows(grid_counts(cells, node.cells_per_side), node, bounds)


def _distinct(rows: np.ndarray) -> np.ndarray:
    """The distinct values of a row-index array, ascending.

    Sort-and-compare: ``np.unique`` without extra outputs takes a hash path
    that is an order of magnitude slower on index arrays of this size.
    """
    ordered = np.sort(rows)
    if not len(ordered):
        return ordered
    first = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def _member_rows(store: PointStore, neighborhoods: Sequence[Neighborhood]) -> np.ndarray:
    """Rows of ``store`` holding the members of ``neighborhoods``, concatenated.

    Neighborhoods over ``store`` already carry them; anything else (a
    shard's store, a cross-shard merge) is re-addressed by pid.
    """
    if all(nbr.store is store for nbr in neighborhoods):
        rows = np.concatenate([nbr.rows for nbr in neighborhoods])
        return rows.astype(np.int64, copy=False)
    return store.rows_aligned(np.concatenate([nbr.pid_array for nbr in neighborhoods]))


def _in_window(window: Rect, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    return kernels.window_mask(xs, ys, window.xmin, window.ymin, window.xmax, window.ymax)


def _filter_mask(
    node: RangeFilter | AttrFilter, store: PointStore, rows: np.ndarray
) -> np.ndarray:
    """Which of ``rows`` (of ``store``) pass one range / attribute filter."""
    if isinstance(node, RangeFilter):
        return _in_window(node.window, store.xs[rows], store.ys[rows])
    return store.payload_equals(node.key, node.value, rows)


def chain_mask(chain: AlgebraNode, store: PointStore, rows: np.ndarray) -> np.ndarray:
    """Which of ``rows`` pass a whole range/attribute filter chain over a scan.

    The stream maintainer's membership test: the same per-filter masks the
    evaluator applies, conjoined over one set of candidate rows.
    """
    mask = np.ones(len(rows), dtype=bool)
    node = chain
    while not isinstance(node, Scan):
        mask &= _filter_mask(node, store, rows)
        node = node.child
    return mask


def package_output(out: EvalOutput) -> dict[str, tuple]:
    """Canonicalize an evaluation's rows into ``QueryResult`` field values.

    Returns a single-entry dict naming the populated field: ``points``
    (width 1, sorted by pid), ``pairs`` (width 2, sorted by pid key),
    ``triplets`` (width 3, sorted by pid triple), or ``records``
    (aggregate rows as produced; joins deeper than three as pid-sorted
    point tuples).  This is the materialization boundary: the rows are
    ordered on their pid columns and only then turned into points.  Shared
    by the unsharded runner and the sharded coordinator so both layers
    canonicalize identically.
    """
    batch = out.batch
    if batch is None:
        return {"records": tuple(out.records)}
    pids = [store.pids[rows] for store, rows in zip(batch.stores, batch.rows)]
    order = np.lexsort(pids[::-1])  # first column is the primary key
    columns = [
        store.materialize(rows[order]) for store, rows in zip(batch.stores, batch.rows)
    ]
    if len(columns) == 1:
        return {"points": tuple(columns[0])}
    if len(columns) == 2:
        return {"pairs": tuple(map(JoinPair, *columns))}
    if len(columns) == 3:
        return {"triplets": tuple(map(JoinTriplet, *columns))}
    return {"records": tuple(zip(*columns))}


# ----------------------------------------------------------------------
# Shared aggregate helpers (the sharded coordinator and the stream
# maintainer reuse these so every layer canonicalizes identically)
# ----------------------------------------------------------------------
def grid_cells(
    xs: np.ndarray, ys: np.ndarray, bounds: Rect, cells_per_side: int
) -> np.ndarray:
    """Flat grid cell id ``ix * cells_per_side + iy`` of every coordinate.

    Same decomposition and clipping as ``GridIndex``: coordinates outside
    ``bounds`` land in the nearest border cell.
    """

    def axis(values: np.ndarray, low: float, extent: float) -> np.ndarray:
        size = extent / cells_per_side
        if size <= 0:
            return np.zeros(len(values), dtype=np.int64)
        # Clipping before the truncation gives the same cell as truncating
        # first (both ends of the range are whole numbers) and keeps far
        # outliers inside int64.
        return np.clip((values - low) / size, 0, cells_per_side - 1).astype(np.int64)

    return axis(xs, bounds.xmin, bounds.width) * cells_per_side + axis(
        ys, bounds.ymin, bounds.height
    )


def grid_counts(cells: np.ndarray, cells_per_side: int) -> dict[tuple[int, int], int]:
    """Per-cell counts of :func:`grid_cells` ids, keyed ``(ix, iy)``, non-empty only."""
    ids, counts = np.unique(cells, return_counts=True)
    return {
        divmod(cell, cells_per_side): count
        for cell, count in zip(ids.tolist(), counts.tolist())
    }


def region_counts(
    regions: Sequence[tuple[str, Rect]], xs: np.ndarray, ys: np.ndarray
) -> dict[str, int]:
    """How many of the coordinates fall in each named region (zeros included)."""
    return {
        name: int(np.count_nonzero(_in_window(rect, xs, ys))) for name, rect in regions
    }


def grid_rows(
    counts: Mapping[tuple[int, int], int], node: GridAggregate, bounds: Rect
) -> list[Row]:
    """Canonical ``((ix, iy), value)`` rows: non-empty cells, sorted by cell."""
    if node.measure == "density":
        area = (bounds.width / node.cells_per_side) * (bounds.height / node.cells_per_side)
        scale = 1.0 / area if area > 0 else 0.0
        return [
            (cell, counts[cell] * scale) for cell in sorted(counts) if counts[cell]
        ]
    return [(cell, counts[cell]) for cell in sorted(counts) if counts[cell]]


def topk_rows(rows: Sequence[Row], limit: int) -> list[Row]:
    """Highest-valued aggregate rows: descending value, ascending key ties."""
    return sorted(rows, key=lambda row: (-row[1], row[0]))[:limit]
