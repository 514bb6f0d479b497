"""``join_mix``: the five join classes of the paper through an unsharded engine."""

from __future__ import annotations

import statistics
from typing import Any, Iterator

import numpy as np

from repro.core import (
    chained_joins_nested,
    outer_select_join_pushdown,
    select_join_baseline,
    select_join_block_marking,
    select_join_counting,
)
from repro.core.select_join.range_inner import range_inner_join_block_marking
from repro.core.two_joins.unchained import unchained_joins_auto
from repro.engine import SpatialEngine
from repro.locality import get_knn, get_knn_batch
from repro.operators import knn_join_pairs, range_select

from perf.harness import median_seconds
from perf.spans import Recorder
from perf.workloads._common import (
    Focals,
    QueryOp,
    QueryWorkload,
    cycle,
    kind_p50_ms,
    query_for,
    span_p50,
    square,
)

#: Weights 2 : 3 : 2 : 2 : 1.  Relation sizes and k values were chosen so the
#: per-class medians sit within 3x of each other (21 / 23 / 29 / 22 / 57 ms at
#: the seed); the slowest class is 10 % of ops, so the p95 falls inside its
#: distribution and not in a gap between classes.
PATTERN = (
    "select-inner-of-join",
    "select-outer-of-join",
    "range-inner-of-join",
    "chained-joins",
    "select-inner-of-join",
    "select-outer-of-join",
    "unchained-joins",
    "chained-joins",
    "range-inner-of-join",
    "select-outer-of-join",
)

CLASSES = tuple(dict.fromkeys(PATTERN))


def _coords(points) -> np.ndarray:
    return np.array([(p.x, p.y) for p in points], dtype=np.float64)


class JoinMix(QueryWorkload):
    name = "join_mix"
    why = (
        "20-60 ms ops over the five join classes (sites 800, depots 4k, fleets 300, pois 40k): batched "
        "locality + kernels + the paper's core algorithms do the work; per-query overhead is noise"
    )
    sizes = {"sites": 800, "depots": 4_000, "fleets": 300, "pois": 40_000}
    smoke_sizes = {"sites": 60, "depots": 300, "fleets": 30, "pois": 1_500}
    relations = {"sites": "sites", "depots": "depots", "fleets": "fleets", "pois": "pois"}
    warmup_ops = 20
    pattern_len = len(PATTERN)
    count_ops = 30

    def _make(self, focals: dict[str, Focals], rng: np.random.Generator, kind: str) -> QueryOp:
        if kind == "select-inner-of-join":
            args = ("sites", "depots", 4, focals["depots"].next(), 32)
        elif kind == "select-outer-of-join":
            args = ("sites", "depots", 4, focals["sites"].next(), min(400, self.n["sites"] // 2))
        elif kind == "range-inner-of-join":
            half = float(rng.uniform(2_000.0, 4_000.0))
            args = ("fleets", "depots", 4, square(focals["depots"].next(), half))
        elif kind == "chained-joins":
            args = ("fleets", "depots", "pois", 8, 4)
        else:
            args = ("fleets", "sites", "depots", 2, 2)
        return QueryOp(query_for(kind, args), args)

    def ops(self, state: Any) -> Iterator[tuple[str, QueryOp]]:
        rng = np.random.default_rng(self.seed)
        focals = {name: Focals(self.data.points[name], rng) for name in ("sites", "depots")}
        return cycle(PATTERN, lambda kind: self._make(focals, rng, kind))

    def warm_ops(self) -> list[tuple[str, QueryOp]]:
        stream = self.ops(None)
        return [next(stream) for _ in PATTERN]

    # -- traced run -------------------------------------------------------
    def replay(
        self, rec: Recorder, engine: SpatialEngine, kind: str, op: QueryOp, result: Any, parent: dict
    ) -> None:
        ds = engine.dataset
        if kind == "select-inner-of-join":
            outer, inner, k_join, focal, k_select = op.args
            with rec.span("core.select_inner", "core", parent, replay=True) as core:
                _select_inner(result.strategy, ds(outer), ds(inner), focal, k_join, k_select)
            # Locality work the result rows needed: the selection, and the
            # neighbourhoods of the outer points that survived pruning.
            survivors = _coords({pair.outer.pid: pair.outer for pair in result.pairs}.values())
            with rec.span("locality.get_knn", "locality", core, replay=True):
                get_knn(ds(inner).index, focal, k_select)
            if len(survivors):
                with rec.span("locality.get_knn_batch", "locality", core, replay=True):
                    get_knn_batch(ds(inner).index, survivors, k_join)
        elif kind == "select-outer-of-join":
            outer, inner, k_join, focal, k_select = op.args
            with rec.span("core.outer_pushdown", "core", parent, replay=True) as core:
                outer_select_join_pushdown(ds(outer).index, ds(inner).index, focal, k_join, k_select)
            with rec.span("locality.get_knn", "locality", core, replay=True):
                selected = get_knn(ds(outer).index, focal, k_select)
            with rec.span("locality.get_knn_batch", "locality", core, replay=True):
                get_knn_batch(ds(inner).index, _coords(selected), k_join)
        elif kind == "range-inner-of-join":
            outer, inner, k_join, window = op.args
            with rec.span("core.range_inner_bm", "core", parent, replay=True) as core:
                range_inner_join_block_marking(ds(outer).index, ds(inner).index, window, k_join)
            survivors = _coords({pair.outer.pid: pair.outer for pair in result.pairs}.values())
            if len(survivors):
                with rec.span("locality.get_knn_batch", "locality", core, replay=True):
                    get_knn_batch(ds(inner).index, survivors, k_join)
        elif kind == "chained-joins":
            a, b, c, k_ab, k_bc = op.args
            # The engine serves chained ops from a shared, warm B->C cache;
            # the replay keeps its own across ops for the same reason.
            cache = self._chained_cache.setdefault((b, c, k_bc), {})
            if not cache:
                chained_joins_nested(
                    ds(a).points, ds(b).index, ds(c).index, k_ab, k_bc, neighborhood_cache=cache
                )
            with rec.span("core.chained_nested", "core", parent, replay=True) as core:
                chained_joins_nested(
                    ds(a).points, ds(b).index, ds(c).index, k_ab, k_bc, neighborhood_cache=cache
                )
            with rec.span("locality.get_knn_batch", "locality", core, replay=True):
                get_knn_batch(ds(b).index, _coords(ds(a).points), k_ab)
        else:
            a, c, b, k_ab, k_cb = op.args
            with rec.span("core.unchained_bm", "core", parent, replay=True) as core:
                unchained_joins_auto(ds(a).index, ds(c).index, ds(b).index, k_ab, k_cb)
            with rec.span("locality.get_knn_batch", "locality", core, replay=True):
                get_knn_batch(ds(b).index, _coords(ds(a).points), k_ab)
                get_knn_batch(ds(b).index, _coords(ds(c).points), k_cb)

    def trace(self, state: SpatialEngine, seconds: float) -> dict[str, float]:
        self._chained_cache: dict[tuple, dict] = {}
        metrics = super().trace(state, seconds)
        rec, engine = self.recorder, state
        for kind in CLASSES:
            metrics[f"query.{kind}.p50_ms"] = kind_p50_ms(rec, kind)
        for span in ("outer_pushdown", "range_inner_bm", "chained_nested", "unchained_bm"):
            metrics[f"core.{span}_ms"] = span_p50(rec, f"core.{span}", 1e3)
        metrics["locality.get_knn_us"] = span_p50(rec, "locality.get_knn", 1e6)
        metrics["locality.get_knn_batch_ms"] = span_p50(rec, "locality.get_knn_batch", 1e3)
        core_by_op = {s["op"]: s["duration"] for s in rec.spans if s["name"].startswith("core.")}
        metrics["engine.run_minus_core_ms"] = 1e3 * statistics.median(
            root["duration"] - core_by_op[root["op"]] for root in rec.roots()
        )
        # Direct calls on the workload's own ops: both select-inner strategies
        # (the engine runs whichever the planner picked), the plain join, the
        # window scan.
        stream = self.ops(engine)
        sample = [next(stream) for _ in range(len(PATTERN) * (1 if self.smoke else 2))]
        inners = [op.args for kind, op in sample if kind == "select-inner-of-join"]
        ds = engine.dataset
        for strategy in ("counting", "block_marking"):
            metrics[f"core.{strategy}_ms"] = 1e3 * statistics.median(
                median_seconds(
                    lambda: _select_inner(strategy, ds(outer), ds(inner), focal, k_join, k_select), 1
                )
                for outer, inner, k_join, focal, k_select in inners
            )
        metrics["operators.knn_join_ms"] = 1e3 * median_seconds(
            lambda: knn_join_pairs(ds("sites").points, ds("depots").index, 4), 3
        )
        windows = [op.args[3] for kind, op in sample if kind == "range-inner-of-join"]
        metrics["operators.range_select_us"] = 1e6 * statistics.median(
            median_seconds(lambda: range_select(ds("depots").index, window), 3) for window in windows
        )
        metrics["obs.enabled_vs_disabled_ratio"] = self.obs_ratio(engine, len(PATTERN) * (1 if self.smoke else 3))
        return metrics


def _select_inner(strategy: str, outer, inner, focal, k_join: int, k_select: int):
    """The select-inner-of-join algorithm the engine dispatches for ``strategy``."""
    if strategy == "counting":
        return select_join_counting(outer.store, inner.index, focal, k_join, k_select)
    if strategy == "block_marking":
        return select_join_block_marking(outer.index, inner.index, focal, k_join, k_select)
    return select_join_baseline(outer.points, inner.index, focal, k_join, k_select)
