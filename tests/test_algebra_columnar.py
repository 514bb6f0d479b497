"""Unit tests for the columnar algebra evaluator.

What the property suite cannot pin down: *where* points get materialized
(only at the API edge — never for aggregates), *what* the result rows are
made of (native Python values, so canonical rows, pickles and JSON are byte
for byte the reference evaluator's), *which* work units each operator
charges, and the ``(hypot distance, pid)`` tie-break in every tree shape.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

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
    evaluate,
    reference_rows,
)
from repro.algebra.evaluate import grid_cells, grid_counts
from repro.engine.session import SpatialEngine
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.query.dataset import Dataset
from repro.query.query import Query
from repro.shard.engine import ShardedEngine
from repro.shard.executor import ShardTask, execute_shard_task
from repro.storage.pointstore import PointStore
from repro.storage.update import UpdateBatch
from repro.stream import StreamEngine
from repro.stream.delta import result_rows

BOUNDS = Rect(0.0, 0.0, 1000.0, 1000.0)
CELLS = 16
CENTER = Point(500.0, 500.0)


def relations() -> tuple[list[Point], list[Point]]:
    """2000 vehicles (bus/taxi payloads) and 100 depots, fixed seed."""
    rng = np.random.default_rng(7)
    vx, vy = rng.uniform(0.0, 1000.0, (2, 2000))
    dx, dy = rng.uniform(0.0, 1000.0, (2, 100))
    vehicles = [
        Point(float(x), float(y), i, {"kind": "bus" if i % 3 else "taxi"})
        for i, (x, y) in enumerate(zip(vx, vy))
    ]
    depots = [Point(float(x), float(y), 10_000 + i) for i, (x, y) in enumerate(zip(dx, dy))]
    return vehicles, depots


def square(center: Point, half: float) -> Rect:
    return Rect(center.x - half, center.y - half, center.x + half, center.y + half)


def dash_trees(half: float = 150.0, k: int = 16) -> dict[str, object]:
    """The five dashboard shapes of the ``algebra_dash`` benchmark workload."""
    window = square(CENTER, half)
    fenced = RangeFilter(Scan("vehicles"), window)
    nested = RangeFilter(RangeFilter(Scan("vehicles"), square(CENTER, 2.0 * half)), window)
    mid = (window.xmin + window.xmax) / 2.0
    regions = (
        ("west", Rect(window.xmin, window.ymin, mid, window.ymax)),
        ("east", Rect(mid, window.ymin, window.xmax, window.ymax)),
    )
    return {
        "hotspot-topk": TopK(GridAggregate(nested, CELLS), 10),
        "density-grid": GridAggregate(AttrFilter(fenced, "kind", "bus"), CELLS, measure="density"),
        "region-rollup": RegionAggregate(fenced, regions),
        "join-aggregate": GridAggregate(KnnJoinOp(fenced, Scan("depots"), 2), CELLS),
        "filter-chain": AttrFilter(KnnFilter(fenced, CENTER, k), "kind", "taxi"),
    }


AGGREGATES = ("hotspot-topk", "density-grid", "region-rollup", "join-aggregate")


def register(engine, vehicles, depots):
    engine.register(name="vehicles", points=vehicles, bounds=BOUNDS)
    engine.register(name="depots", points=depots, bounds=BOUNDS)
    return engine


def reference(tree, vehicles, depots) -> tuple:
    return reference_rows(
        tree,
        {"vehicles": vehicles, "depots": depots},
        {"vehicles": BOUNDS, "depots": BOUNDS},
    )


@pytest.fixture(scope="module")
def data():
    return relations()


@pytest.fixture(scope="module")
def engine(data):
    return register(SpatialEngine(), *data)


@pytest.fixture
def materialized(monkeypatch) -> list[int]:
    """Rows handed to ``PointStore.materialize`` / ``point_at`` while active."""
    seen: list[int] = []
    real_materialize, real_point_at = PointStore.materialize, PointStore.point_at

    def materialize(self, rows):
        seen.extend(int(r) for r in rows)
        return real_materialize(self, rows)

    def point_at(self, row):
        seen.append(int(row))
        return real_point_at(self, row)

    monkeypatch.setattr(PointStore, "materialize", materialize)
    monkeypatch.setattr(PointStore, "point_at", point_at)
    return seen


# ----------------------------------------------------------------------
# The materialization boundary
# ----------------------------------------------------------------------
class TestMaterializationBoundary:
    @pytest.mark.parametrize("shape", AGGREGATES)
    def test_aggregate_trees_materialize_no_point(self, engine, data, materialized, shape):
        tree = dash_trees()[shape]
        result = engine.run(Query.from_tree(tree))
        assert materialized == []
        assert result_rows(result) == reference(tree, *data)

    def test_point_trees_materialize_exactly_their_result_rows(self, engine, materialized):
        result = engine.run(Query.from_tree(dash_trees()["filter-chain"]))
        assert len(result.points) > 0
        assert len(materialized) == len(result.points)
        del materialized[:]
        join = KnnJoinOp(RangeFilter(Scan("vehicles"), square(CENTER, 60.0)), Scan("depots"), 2)
        pairs = engine.run(Query.from_tree(join)).pairs
        assert len(pairs) > 0
        assert len(materialized) == 2 * len(pairs)

    def test_evaluation_output_is_row_indices(self, engine):
        tree = KnnJoinOp(RangeFilter(Scan("vehicles"), square(CENTER, 60.0)), Scan("depots"), 2)
        out = evaluate(tree, DatasetContext(engine.datasets))
        assert out.width == 2 and out.records == []
        outer, inner = out.batch.rows
        assert outer.dtype == inner.dtype == np.int64 and len(outer) == len(inner) == len(out.batch)
        assert out.batch.stores == (
            engine.dataset("vehicles").store,
            engine.dataset("depots").store,
        )
        aggregate = evaluate(GridAggregate(tree, CELLS), DatasetContext(engine.datasets))
        assert aggregate.width == 0 and aggregate.batch is None

    def test_sharded_fanout_aggregates_materialize_no_point(self, data, materialized):
        sharded = register(ShardedEngine(num_shards=3, backend="serial", seed=1), *data)
        try:
            for shape in ("hotspot-topk", "density-grid", "region-rollup"):
                tree = dash_trees()[shape]
                del materialized[:]
                result = sharded.run(Query.from_tree(tree))
                assert materialized == [], shape
                assert result_rows(result) == reference(tree, *data), shape
        finally:
            sharded.close()

    def test_stream_aggregate_state_materializes_no_point(self, data, materialized):
        vehicles, depots = data
        stream = register(StreamEngine(SpatialEngine()), vehicles, depots)
        trees = [dash_trees()[shape] for shape in ("hotspot-topk", "density-grid", "region-rollup")]
        del materialized[:]
        subs = [stream.subscribe(Query.from_tree(tree)) for tree in trees]
        moves = [(p.pid, 500.0 + (p.pid % 7), 480.0 + (p.pid % 11)) for p in vehicles[:40]]
        inserts = [Point(505.0, 505.0, 50_000, {"kind": "bus"}), Point(5.0, 5.0, 50_001)]
        stream.push("vehicles", UpdateBatch(inserts=inserts, removes=[41, 42], moves=moves))
        assert materialized == []
        live = {p.pid: p for p in vehicles if p.pid not in (41, 42)}
        live.update({p.pid: p for p in inserts})
        for pid, x, y in moves:
            live[pid] = Point(x, y, pid, live[pid].payload)
        for tree, sub in zip(trees, subs):
            assert tuple(sorted(sub.result())) == reference(tree, list(live.values()), depots)


# ----------------------------------------------------------------------
# Native result values
# ----------------------------------------------------------------------
def assert_native(value) -> None:
    """``value`` is built only from exact int / float / str / tuple objects."""
    if type(value) is tuple:
        for item in value:
            assert_native(item)
    else:
        assert type(value) in (int, float, str), type(value)


class TestNativeValues:
    @pytest.mark.parametrize("shape", AGGREGATES)
    def test_records_are_byte_for_byte_the_reference_rows(self, engine, data, shape):
        tree = dash_trees()[shape]
        records = engine.run(Query.from_tree(tree)).records
        assert_native(records)
        expected = reference(tree, *data)
        canonical = tuple(sorted(records))
        assert canonical == expected
        assert pickle.dumps(canonical) == pickle.dumps(expected)
        assert json.dumps(canonical) == json.dumps(expected)

    def test_node_costs_and_deep_join_keys_are_native(self, engine, data):
        deep = KnnJoinOp(
            KnnJoinOp(
                KnnJoinOp(RangeFilter(Scan("vehicles"), square(CENTER, 40.0)), Scan("depots"), 2),
                Scan("vehicles"),
                2,
            ),
            Scan("depots"),
            1,
        )
        result = engine.run(Query.from_tree(deep))
        rows = result_rows(result)
        assert rows and rows == reference(deep, *data)
        assert_native(rows)
        for _signature, cost in result.node_costs:
            assert type(cost) is float
        clone = pickle.loads(pickle.dumps(result))
        assert result_rows(clone) == rows

    def test_shard_partials_are_counts_and_pid_arrays(self, data):
        sharded = register(ShardedEngine(num_shards=3, backend="serial", seed=1), *data)
        try:
            relation = sharded.sharded_dataset("vehicles")
            datasets = {"vehicles": relation}
            versions = (("vehicles", relation.version),)
            chain = RangeFilter(Scan("vehicles"), square(CENTER, 300.0))
            regions = (("all", BOUNDS),)
            for sid, shard in relation.populated():
                def run(agg):
                    task = ShardTask("algebra", "vehicles", sid, (chain, agg, BOUNDS), versions)
                    return execute_shard_task(datasets, task)

                cells = run(("grid", CELLS))
                assert_native(tuple(cells.items()))
                named = run(("region", regions))
                assert_native(tuple(named.items()))
                pids = run(None)
                assert isinstance(pids, np.ndarray) and pids.dtype == np.int64
                assert sum(cells.values()) == named["all"] == len(pids)
                window = ShardTask("range", "vehicles", sid, (chain.window,), versions)
                assert sorted(execute_shard_task(datasets, window).tolist()) == sorted(pids.tolist())
                assert set(pids.tolist()) <= set(shard.store.pids.tolist())
        finally:
            sharded.close()


# ----------------------------------------------------------------------
# Work units
# ----------------------------------------------------------------------
#: ``(node kind, units)`` per operator, as the row-at-a-time evaluator charged
#: them on :func:`relations` (recorded at the parent commit).
PARENT_NODE_COSTS = {
    "hotspot-topk": [("range", 178.0), ("grid_agg", 178.0), ("topk", 35.0)],
    "density-grid": [("range", 178.0), ("attr", 178.0), ("grid_agg", 116.0)],
    "region-rollup": [("range", 178.0), ("region_agg", 356.0)],
    "join-aggregate": [("range", 178.0), ("join", 178.0), ("grid_agg", 356.0)],
    "filter-chain": [("range", 178.0), ("knn", 178.0), ("attr", 16.0)],
}


@pytest.mark.parametrize("shape", sorted(PARENT_NODE_COSTS))
def test_node_costs_match_the_row_at_a_time_evaluator(engine, shape):
    result = engine.run(Query.from_tree(dash_trees()[shape]))
    charged = [(signature[0], units) for signature, units in result.node_costs]
    assert charged == PARENT_NODE_COSTS[shape]
    assert result.stats.neighborhoods_computed == (178 if shape == "join-aggregate" else 0)


# ----------------------------------------------------------------------
# kNN tie-break
# ----------------------------------------------------------------------
def test_knn_tie_break_is_hypot_then_pid_in_every_tree_shape():
    """Squared distances separate these two points; their distances tie.

    ``hypot`` gives both points distance 5.0 from the origin, so the
    library-wide ``(distance, pid)`` order picks pid 1 — from the index
    path, the filtered-subset path, a join, and the reference alike.
    """
    near = Point(3.0, 4.0, 2)
    tied = Point(3.0 + 2.0**-51, 4.0, 1)
    assert (tied.x**2 + tied.y**2) > (near.x**2 + near.y**2)
    filler = [Point(60.0 + i, 70.0 + i, 10 + i) for i in range(10)]
    points = [near, tied] + filler
    focals = [Point(0.0, 0.0, 500)]
    bounds = Rect(0.0, 0.0, 100.0, 100.0)
    origin = Point(0.0, 0.0)
    trees = [
        KnnFilter(Scan("a"), origin, 1),
        KnnFilter(RangeFilter(Scan("a"), Rect(0.0, 0.0, 10.0, 10.0)), origin, 1),
        KnnJoinOp(Scan("f"), Scan("a"), 1),
    ]
    expected = [(1,), (1,), ((500, 1),)]
    engines = [SpatialEngine(), ShardedEngine(num_shards=2, backend="serial", seed=1)]
    try:
        for engine in engines:
            engine.register(name="a", points=points, bounds=bounds)
            engine.register(name="f", points=focals, bounds=bounds)
        for tree, rows in zip(trees, expected):
            assert reference_rows(tree, {"a": points, "f": focals}) == rows, tree.label()
            for engine in engines:
                got = result_rows(engine.run(Query.from_tree(tree)))
                assert got == rows, (type(engine).__name__, tree.label())
    finally:
        engines[1].close()


# ----------------------------------------------------------------------
# Vectorized grid cells
# ----------------------------------------------------------------------
def scalar_cell(x: float, y: float, bounds: Rect, cps: int) -> tuple[int, int]:
    """The per-point formula the vectorized cell ids must reproduce."""
    cw, ch = bounds.width / cps, bounds.height / cps
    ix = int((x - bounds.xmin) / cw) if cw > 0 else 0
    iy = int((y - bounds.ymin) / ch) if ch > 0 else 0
    return min(max(ix, 0), cps - 1), min(max(iy, 0), cps - 1)


@pytest.mark.parametrize("cps", [1, 3, 7, 16])
def test_grid_cells_clamp_and_edges_match_the_scalar_formula(cps):
    bounds = Rect(-50.0, 10.0, 150.0, 90.0)
    edges_x = [bounds.xmin + i * bounds.width / cps for i in range(cps + 1)]
    edges_y = [bounds.ymin + i * bounds.height / cps for i in range(cps + 1)]
    xs = np.array(edges_x + [-1e6, -50.000001, 149.999999, 150.000001, 1e300, 0.0])
    ys = np.array(edges_y + [1e6, 9.999999, 90.0, 89.999999, -1e300, 55.5])
    xs, ys = np.meshgrid(xs, ys)
    xs, ys = xs.ravel(), ys.ravel()
    cells = grid_cells(xs, ys, bounds, cps)
    assert [divmod(c, cps) for c in cells.tolist()] == [
        scalar_cell(x, y, bounds, cps) for x, y in zip(xs.tolist(), ys.tolist())
    ]
    counts = grid_counts(cells, cps)
    assert sum(counts.values()) == len(xs) and 0 not in counts.values()


def test_grid_cells_of_a_degenerate_frame_collapse_to_one_cell():
    flat = Rect(5.0, 0.0, 5.0, 10.0)
    cells = grid_cells(np.array([1.0, 5.0, 9.0]), np.array([0.0, 5.0, 10.0]), flat, 4)
    assert [divmod(c, 4) for c in cells.tolist()] == [(0, 0), (0, 2), (0, 3)]


def test_dataset_built_from_columns_never_needs_points(materialized):
    """Columns in, aggregate out: no point object exists at any stage."""
    rng = np.random.default_rng(3)
    store = PointStore(
        rng.uniform(0.0, 1000.0, 500),
        rng.uniform(0.0, 1000.0, 500),
        np.arange(500, dtype=np.int64),
        {row: {"kind": "bus"} for row in range(0, 500, 2)},
    )
    engine = SpatialEngine()
    engine.register(Dataset("vehicles", store, bounds=BOUNDS))
    tree = GridAggregate(
        AttrFilter(RangeFilter(Scan("vehicles"), square(CENTER, 400.0)), "kind", "bus"), 4
    )
    records = engine.run(Query.from_tree(tree)).records
    assert materialized == []
    inside = square(CENTER, 400.0)
    expected = sum(
        1
        for row in range(0, 500, 2)
        if inside.xmin <= store.xs[row] <= inside.xmax and inside.ymin <= store.ys[row] <= inside.ymax
    )
    assert sum(count for _cell, count in records) == expected
