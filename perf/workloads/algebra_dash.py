"""``algebra_dash``: a geofence dashboard of composed operator trees."""

from __future__ import annotations

import statistics
from typing import Any, Callable, Iterator

import numpy as np

from repro.algebra import (
    AttrFilter,
    DatasetContext,
    GridAggregate,
    KnnFilter,
    KnnJoinOp,
    RangeFilter,
    RegionAggregate,
    Scan,
    TopK,
    compile_tree,
    evaluate,
    rewritten_tree,
)
from repro.engine import SpatialEngine
from repro.geometry import Point, Rect
from repro.locality import get_knn_batch
from repro.operators import range_select
from repro.query import Query

from perf import oracle
from perf.harness import median_seconds
from perf.spans import Recorder
from perf.workloads._common import (
    BOUNDS,
    Focals,
    QueryOp,
    QueryWorkload,
    cycle,
    kind_p50_ms,
    span_p50,
    square,
)

CELLS = 16

#: The five tree shapes of figure 33, equal weights.
SHAPES = ("hotspot-topk", "density-grid", "region-rollup", "join-aggregate", "filter-chain")


def build_tree(shape: str, center: Point, half: float, k: int):
    """One dashboard tree over the window of half-width ``half`` at ``center``."""
    window = square(center, half)
    fenced = RangeFilter(Scan("vehicles"), window)
    if shape == "hotspot-topk":
        # The redundant wider window is there for the rewrite engine to fuse.
        nested = RangeFilter(RangeFilter(Scan("vehicles"), square(center, 2.0 * half)), window)
        return TopK(GridAggregate(nested, CELLS), 10), window
    if shape == "density-grid":
        return GridAggregate(AttrFilter(fenced, "kind", "bus"), CELLS, measure="density"), window
    if shape == "region-rollup":
        mid = (window.xmin + window.xmax) / 2.0
        regions = (
            ("west", Rect(window.xmin, window.ymin, mid, window.ymax)),
            ("east", Rect(mid, window.ymin, window.xmax, window.ymax)),
        )
        return RegionAggregate(fenced, regions), window
    if shape == "join-aggregate":
        return GridAggregate(KnnJoinOp(fenced, Scan("depots"), 2), CELLS), window
    return AttrFilter(KnnFilter(fenced, center, k), "kind", "taxi"), window


class AlgebraDash(QueryWorkload):
    name = "algebra_dash"
    why = (
        "five figure-33 tree shapes, per-op random windows, vehicles 60k with payloads: algebra.evaluate "
        "and list[Point] materialisation dominate; the six-class path is bypassed"
    )
    sizes = {"vehicles": 60_000, "depots": 2_000}
    smoke_sizes = {"vehicles": 3_000, "depots": 200}
    relations = {"vehicles": "vehicles", "depots": "depots"}
    warmup_ops = 50
    pattern_len = len(SHAPES)
    count_ops = 200

    def payload(self, relation: str) -> Callable[[Point], Any] | None:
        if relation == "vehicles":
            return lambda p: {"kind": "bus" if p.pid % 3 else "taxi"}
        return None

    def _make(self, rng: np.random.Generator, focals: Focals, shape: str) -> QueryOp:
        """An op whose ``args`` are ``(tree, window)``: the oracle evaluates
        the tree itself."""
        # Every kNN-join row costs a neighbourhood, so that shape gets a
        # smaller fence than the scan-and-count shapes.
        low, high = (500.0, 900.0) if shape == "join-aggregate" else (2_000.0, 4_000.0)
        tree, window = build_tree(
            shape, focals.next(), float(rng.uniform(low, high)), int(rng.choice((16, 32, 64)))
        )
        return QueryOp(Query.from_tree(tree), (tree, window))

    def ops(self, state: Any) -> Iterator[tuple[str, QueryOp]]:
        rng = np.random.default_rng(self.seed)
        focals = Focals(self.data.points["vehicles"], rng)
        return cycle(SHAPES, lambda shape: self._make(rng, focals, shape))

    def warm_ops(self) -> list[tuple[str, QueryOp]]:
        shapes = []
        for shape in SHAPES:
            for k in (16, 32, 64) if shape == "filter-chain" else (16,):
                tree, window = build_tree(shape, BOUNDS.center, 1_000.0, k)
                shapes.append((shape, QueryOp(Query.from_tree(tree), (tree, window))))
        return shapes

    def expected(self, kind: str, op: QueryOp, stores: dict) -> tuple:
        frames = {name: BOUNDS for name in stores}
        return oracle.algebra_rows(op.args[0], stores, frames, self.memo)

    # -- traced run -------------------------------------------------------
    def replay(
        self, rec: Recorder, engine: SpatialEngine, kind: str, op: QueryOp, result: Any, parent: dict
    ) -> None:
        tree, window = op.args
        datasets = engine.datasets
        with rec.span("algebra.rewrite", "algebra", parent, replay=True):
            optimized, _trail = rewritten_tree(tree)
        with rec.span("algebra.evaluate", "algebra", parent, replay=True) as evaluated:
            evaluate(optimized, DatasetContext(datasets))
        # What the evaluator asks of the layers below it: the fenced scan
        # and, for the join shape, one batched kNN over the fenced rows.
        with rec.span("operators.range_select", "operators", evaluated, replay=True):
            fenced = range_select(datasets["vehicles"].index, window)
        if kind == "join-aggregate" and fenced:
            coords = np.array([(p.x, p.y) for p in fenced], dtype=np.float64)
            with rec.span("locality.get_knn_batch", "locality", evaluated, replay=True):
                get_knn_batch(datasets["depots"].index, coords, 2)
        self._scanned.append(sum(units for _sig, units in result.node_costs))

    def trace(self, state: SpatialEngine, seconds: float) -> dict[str, float]:
        self._scanned: list[float] = []
        metrics = super().trace(state, seconds)
        rec, engine = self.recorder, state
        for shape in SHAPES:
            metrics[f"algebra.{shape}.p50_ms"] = kind_p50_ms(rec, shape)
        metrics["algebra.rewrite_us"] = span_p50(rec, "algebra.rewrite", 1e6)
        metrics["algebra.evaluate_ms"] = span_p50(rec, "algebra.evaluate", 1e3)
        metrics["operators.range_select_us"] = span_p50(rec, "operators.range_select", 1e6)
        metrics["locality.get_knn_batch_ms"] = span_p50(rec, "locality.get_knn_batch", 1e3)
        scanned = self._scanned[: self.count_ops]
        rows_out = metrics["query.result_rows_per_op"] * len(scanned)
        metrics["algebra.rows_scanned_per_row_out"] = sum(scanned) / max(1.0, rows_out)
        evaluated = {s["op"]: s["duration"] for s in rec.named("algebra.evaluate")}
        metrics["engine.run_minus_core_ms"] = 1e3 * statistics.median(
            root["duration"] - evaluated[root["op"]] for root in rec.roots()
        )
        cost_model = engine.optimizer.cost_model
        metrics["algebra.compile_us"] = 1e6 * statistics.median(
            median_seconds(lambda: compile_tree(op.args[0], engine.datasets, cost_model), 20)
            for _shape, op in self.warm_ops()
        )
        metrics["obs.enabled_vs_disabled_ratio"] = self.obs_ratio(engine, 25 if self.smoke else 100)
        return metrics
