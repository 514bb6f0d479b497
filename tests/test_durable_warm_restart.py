"""Warm restart: a reopened engine serves its first query already warm.

The planner-state half of the durable tier (``repro.durable.state``), pinned
on a calibration workload — clustered data shaped so the static
cost model mispredicts and the feedback loop must demote its way to the
right plan.  A *cold* engine pays that convergence (mispredictions,
demotions, plan re-derivations).  A durable engine that converged **before**
the restart must not pay it again: after :meth:`DurableEngine.open`, the
first query is a plan-cache hit against warmed plans, statistics come from
the registration-time warm (no recompute at query time), the calibration
store holds every pre-restart observation, and repeated serving stays
demotion- and misprediction-free.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.durable import DurableEngine
from repro.engine.session import SpatialEngine
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.query.predicates import KnnJoin, KnnSelect
from repro.query.query import Query
from repro.stream.delta import result_rows

EXTENT = Rect(0.0, 0.0, 40_000.0, 40_000.0)
FOCAL = Point(20_000.0, 20_000.0)
CELLS = 64  # fine grid: many blocks for the mispredicted plan to examine
CONVERGENCE_RUNS = 5  # three strategies → at most a few demotions


def disk(n: int, radius: float, seed: int, start_pid: int) -> list[Point]:
    rng = np.random.default_rng(seed)
    radii = radius * np.sqrt(rng.uniform(0, 1, size=n))
    angles = rng.uniform(0, 2 * math.pi, size=n)
    return [
        Point(
            float(FOCAL.x + r * math.cos(a)),
            float(FOCAL.y + r * math.sin(a)),
            start_pid + i,
        )
        for i, (r, a) in enumerate(zip(radii, angles))
    ]


def workload() -> tuple[list[Point], list[Point], Query]:
    """The canonical mispredicted shape at smoke scale.

    A dense outer cluster around the selection focal (the static heuristic
    picks Block-Marking) over an inner cluster tighter than a block diagonal
    (the Non-Contributing bound never fires, so that choice prunes nothing).
    """
    outer = disk(400, 2_500.0 * math.sqrt(400 / 16_000.0), seed=3100, start_pid=0)
    inner = disk(400, 400.0, seed=3101, start_pid=10_000_000)
    query = Query(
        KnnJoin(outer="outer", inner="inner", k=3),
        KnnSelect(relation="inner", focal=FOCAL, k=8),
    )
    return outer, inner, query


def register(engine, outer: list[Point], inner: list[Point]) -> None:
    engine.register(name="outer", points=outer, bounds=EXTENT, cells_per_side=CELLS)
    engine.register(name="inner", points=inner, bounds=EXTENT, cells_per_side=CELLS)


def counter_value(snapshot: dict, name: str) -> float:
    values = [c["value"] for c in snapshot["counters"] if c["name"] == name]
    assert values, f"counter {name} not in snapshot"
    return sum(values)


@pytest.fixture(scope="module")
def converged_root(tmp_path_factory):
    """A durable root whose engine converged on the workload, then closed."""
    root = tmp_path_factory.mktemp("warm") / "root"
    outer, inner, query = workload()
    engine = DurableEngine.create(root, checkpoint_interval=0)
    register(engine, outer, inner)
    for _ in range(CONVERGENCE_RUNS):
        engine.run(query)
    pre = {
        "result": result_rows(engine.run(query)),
        "observations": engine.calibration.observations,
        "calibration_keys": engine.calibration.keys(),
        "signatures": engine.plan_cache.signatures(),
    }
    assert pre["observations"] > 0 and pre["signatures"]
    engine.checkpoint()  # persists data generation + planner state
    engine.close()
    return root, pre


def test_cold_engine_pays_convergence():
    """The contrast baseline: a cold engine mispredicts on this workload."""
    outer, inner, query = workload()
    cold = SpatialEngine()
    register(cold, outer, inner)
    for _ in range(CONVERGENCE_RUNS):
        cold.run(query)
    assert cold.mispredictions > 0
    assert cold.demotions > 0


def test_reopened_engine_serves_first_query_warm(converged_root):
    root, pre = converged_root
    warm = DurableEngine.open(root)
    try:
        # Planner state restored wholesale at open.
        assert warm.warmed_plans == len(pre["signatures"])
        assert warm.plan_cache.signatures() == pre["signatures"]
        assert warm.calibration.observations == pre["observations"]
        assert warm.calibration.keys() == pre["calibration_keys"]

        # First query: plan-cache hit, no plan derivation, no stats
        # recompute beyond the registration-time warm.
        snapshot = warm.metrics_snapshot()
        hits = counter_value(snapshot, "plan_cache_hits_total")
        misses = counter_value(snapshot, "plan_cache_misses_total")
        stats_misses = counter_value(snapshot, "stats_cache_misses_total")
        _, _, query = workload()
        first = result_rows(warm.run(query))
        assert first == pre["result"]
        after = warm.metrics_snapshot()
        assert counter_value(after, "plan_cache_hits_total") == hits + 1
        assert counter_value(after, "plan_cache_misses_total") == misses
        assert counter_value(after, "stats_cache_misses_total") == stats_misses

        # Serving stays converged: no relearning, no demotions.
        for _ in range(CONVERGENCE_RUNS):
            warm.run(query)
        assert warm.mispredictions == 0
        assert warm.demotions == 0
    finally:
        warm.close()


def test_reopened_engine_recovered_the_data_too(converged_root):
    root, pre = converged_root
    warm = DurableEngine.open(root)
    try:
        for relation, report in warm.last_recovery.items():
            assert report.generation == 1, relation  # the checkpointed one
            assert report.replayed_batches == 0, relation
        assert len(warm.dataset("outer").store) == 400
        assert len(warm.dataset("inner").store) == 400
    finally:
        warm.close()


def test_algebra_plans_warm_restart(tmp_path):
    """Persisted algebra plans re-plan to cache hits after reopen.

    Algebra signatures key on tree *shape* (node kinds, relations, k's,
    grid resolution), not on literal windows — so the durable warm replays
    them through :meth:`Query.from_signature` placeholder trees and the
    first post-restart run of the real query is a plan-cache hit.
    """
    from repro.algebra import (
        GridAggregate,
        KnnJoinOp,
        RangeFilter,
        Scan,
        TopK,
    )

    root = tmp_path / "algebra-root"
    outer, inner, _ = workload()
    window = Rect(FOCAL.x - 3_000.0, FOCAL.y - 3_000.0, FOCAL.x + 3_000.0, FOCAL.y + 3_000.0)
    queries = [
        Query.from_tree(TopK(GridAggregate(RangeFilter(Scan("outer"), window), 8), 5)),
        Query.from_tree(KnnJoinOp(RangeFilter(Scan("outer"), window), Scan("inner"), 3)),
    ]

    engine = DurableEngine.create(root, checkpoint_interval=0)
    register(engine, outer, inner)
    pre = []
    for query in queries:
        engine.run(query)
        pre.append(result_rows(engine.run(query)))
    signatures = engine.plan_cache.signatures()
    algebra_sigs = [s for s in signatures if any("algebra" in str(e) for e in s[1])]
    assert len(algebra_sigs) == len(queries)
    engine.checkpoint()
    engine.close()

    warm = DurableEngine.open(root)
    try:
        assert warm.warmed_plans == len(signatures)
        assert warm.plan_cache.signatures() == signatures
        snapshot = warm.metrics_snapshot()
        hits = counter_value(snapshot, "plan_cache_hits_total")
        misses = counter_value(snapshot, "plan_cache_misses_total")
        for query, expected in zip(queries, pre):
            assert result_rows(warm.run(query)) == expected
        after = warm.metrics_snapshot()
        assert counter_value(after, "plan_cache_hits_total") == hits + len(queries)
        assert counter_value(after, "plan_cache_misses_total") == misses
    finally:
        warm.close()
