"""``select_mix``: cheap two-predicate selects through an unsharded engine."""

from __future__ import annotations

import statistics
from typing import Any, Iterator

import numpy as np

from repro.core import two_knn_selects_optimized
from repro.engine import SpatialEngine
from repro.geometry import Point
from repro.locality import build_locality, get_knn
from repro.operators import intersect_points, knn_select, range_select

from perf.harness import median_seconds
from perf.spans import Recorder
from perf.workloads._common import (
    BOUNDS,
    Focals,
    QueryOp,
    QueryWorkload,
    cycle,
    kind_p50_ms,
    query_for,
    span_p50,
    square,
)

#: k is drawn from these, so plan-cache signatures (k bucketed to powers of
#: two) number 6 x 6 + 6 — the cache (256 entries) holds all of them.
KS = (16, 32, 64, 128, 256, 512)

#: Seven two-selects (second focal alternately near and far from the first,
#: which flips Procedure 5's pruning) to three range-and-kNN selects.
PATTERN = (
    "two-selects",
    "range-and-knn-select",
    "two-selects",
    "two-selects",
    "range-and-knn-select",
    "two-selects",
    "two-selects",
    "range-and-knn-select",
    "two-selects",
    "two-selects",
)


class SelectMix(QueryWorkload):
    name = "select_mix"
    why = (
        "~1 ms two-kNN-select and range+kNN ops over pois 100k: nothing to batch, so per-query fixed "
        "cost (engine, plan lookup, obs, single-focal locality) weighs as much as the distance math"
    )
    sizes = {"pois": 100_000}
    smoke_sizes = {"pois": 4_000}
    relations = {"pois": "pois"}
    warmup_ops = 200
    pattern_len = len(PATTERN)
    count_ops = 1_000

    def _make(self, rng: np.random.Generator, focals: Focals, near: list[bool], kind: str) -> QueryOp:
        focal = focals.next()
        k = int(rng.choice(KS))
        if kind == "two-selects":
            near[0] = not near[0]
            reach = 60.0 if near[0] else 6_000.0
            dx, dy = rng.normal(0.0, reach, 2)
            second = Point(
                float(np.clip(focal.x + dx, BOUNDS.xmin, BOUNDS.xmax)),
                float(np.clip(focal.y + dy, BOUNDS.ymin, BOUNDS.ymax)),
            )
            args = ("pois", (focal, k), (second, int(rng.choice(KS))))
        else:
            args = ("pois", focal, k, square(focal, float(rng.uniform(100.0, 800.0))))
        return QueryOp(query_for(kind, args), args)

    def ops(self, state: Any) -> Iterator[tuple[str, QueryOp]]:
        rng = np.random.default_rng(self.seed)
        focals = Focals(self.data.points["pois"], rng)
        near = [False]
        return cycle(PATTERN, lambda kind: self._make(rng, focals, near, kind))

    def warm_ops(self) -> list[tuple[str, QueryOp]]:
        focal = Point(BOUNDS.center.x, BOUNDS.center.y)
        shapes = []
        for k1 in KS:
            args = ("pois", focal, k1, square(focal, 500.0))
            shapes.append(("range-and-knn-select", QueryOp(query_for("range-and-knn-select", args), args)))
            for k2 in KS:
                args = ("pois", (focal, k1), (focal, k2))
                shapes.append(("two-selects", QueryOp(query_for("two-selects", args), args)))
        return shapes

    # -- traced run -------------------------------------------------------
    def replay(
        self, rec: Recorder, engine: SpatialEngine, kind: str, op: QueryOp, result: Any, parent: dict
    ) -> None:
        index = engine.dataset("pois").index
        if kind == "two-selects":
            _rel, (f1, k1), (f2, k2) = op.args
            with rec.span("core.two_selects", "core", parent, replay=True) as core:
                two_knn_selects_optimized(index, f1, k1, f2, k2)
            # Procedure 5 ranks the smaller-k select in full first.
            focal, k = (f1, k1) if k1 <= k2 else (f2, k2)
            with rec.span("locality.get_knn", "locality", core, replay=True):
                get_knn(index, focal, k)
        else:
            _rel, focal, k, _window = op.args
            with rec.span("operators.knn_select", "operators", parent, replay=True) as select:
                knn_select(index, focal, k)
            with rec.span("locality.get_knn", "locality", select, replay=True):
                get_knn(index, focal, k)

    def trace(self, state: SpatialEngine, seconds: float) -> dict[str, float]:
        metrics = super().trace(state, seconds)
        rec, engine = self.recorder, state
        index = engine.dataset("pois").index
        metrics["query.two-selects.p50_ms"] = kind_p50_ms(rec, "two-selects")
        metrics["query.range-and-knn-select.p50_ms"] = kind_p50_ms(rec, "range-and-knn-select")
        metrics["core.two_selects_us"] = span_p50(rec, "core.two_selects", 1e6)
        metrics["locality.get_knn_us"] = span_p50(rec, "locality.get_knn", 1e6)
        core_by_op = {s["op"]: s["duration"] for s in rec.named("core.two_selects")}
        metrics["engine.run_minus_core_ms"] = 1e3 * statistics.median(
            root["duration"] - core_by_op[root["op"]]
            for root in rec.roots()
            if root["op"] in core_by_op
        )
        # Direct calls on a sample of the workload's own ops.
        stream = self.ops(engine)
        sample = [next(stream) for _ in range(60)]
        twos = [op.args for kind, op in sample if kind == "two-selects"]
        ranges = [op.args for kind, op in sample if kind == "range-and-knn-select"]
        metrics["locality.blocks_per_knn"] = statistics.fmean(
            len(build_locality(index, f1, k1).blocks) for _r, (f1, k1), _second in twos
        )
        pairs = [(get_knn(index, f1, k1), get_knn(index, f2, k2)) for _r, (f1, k1), (f2, k2) in twos]
        metrics["operators.intersect_us"] = 1e6 * statistics.median(
            median_seconds(lambda: intersect_points(first, second), 3) for first, second in pairs
        )
        metrics["operators.range_select_us"] = 1e6 * statistics.median(
            median_seconds(lambda: range_select(index, window), 3) for _r, _f, _k, window in ranges
        )
        metrics["obs.enabled_vs_disabled_ratio"] = self.obs_ratio(engine, 300 if not self.smoke else 60)
        return metrics
