"""Property tests: random algebra trees agree with the brute-force reference.

The algebra's end-to-end soundness argument: Hypothesis composes random
operator trees (depth ≤ 3 above the scans — filter chains, kNN joins,
spatial aggregates, top-k, in every legal combination) over uniform /
clustered / duplicate-coordinate (lattice) data with payload attributes,
and every layer must reproduce the independent reference evaluator's rows.
The strategies deliberately reach the evaluator's edge cases: points outside
the declared bounds (clamped into border cells), coordinates exactly on grid
cell and window edges, points with no payload or a non-mapping payload,
``k`` at or above the candidate count, and fences that contain nothing.
The layers:

* the unsharded engine (rewrite rules + compiled plan + index evaluator),
* the serial sharded engine (local decomposition, partial aggregation and
  coordinator merge),
* the process-backed sharded engine (workers over shared-memory segments),
* the stream engine (incremental maintenance after every update batch,
  plus delta-replay composition onto the initial snapshot).
"""

from __future__ import annotations

import multiprocessing

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra import (
    AlgebraNode,
    AttrFilter,
    GridAggregate,
    KnnFilter,
    KnnJoinOp,
    RangeFilter,
    RegionAggregate,
    Scan,
    TopK,
    reference_rows,
)
from repro.engine.session import SpatialEngine
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.query.query import Query
from repro.shard.engine import ShardedEngine
from repro.storage.update import UpdateBatch
from repro.stream import StreamEngine
from repro.stream.delta import result_rows

BOUNDS = Rect(0.0, 0.0, 100.0, 100.0)
KINDS = ("red", "blue")

UNIFORM = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False)
LATTICE = st.integers(min_value=0, max_value=6).map(float)
#: Beyond the declared bounds on every side: grid cells and index blocks clamp.
OUTSIDE = st.floats(min_value=-15.0, max_value=115.0, allow_nan=False, allow_infinity=False)
#: Every cell edge of every grid resolution the trees use (2..8 per side);
#: window corners are drawn from the same set, so points sit exactly on both.
EDGES = st.sampled_from(sorted({i * 100.0 / c for c in range(2, 9) for i in range(c + 1)}))
#: Payloads beyond the well-formed mapping: absent, not a mapping, missing the
#: key, or holding an unhashable value — none of which may ever match.
ODD_PAYLOADS = (None, "red", ("kind", "red"), {"other": "red"}, {"kind": ["red"]})

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process backend requires the fork start method",
)


@st.composite
def coordinates(draw, flavor: str):
    if flavor == "lattice":
        return (draw(LATTICE), draw(LATTICE))
    if flavor == "outside":
        return (draw(OUTSIDE), draw(OUTSIDE))
    if flavor == "edges":
        return (draw(EDGES), draw(EDGES))
    if flavor == "clustered":
        cx, cy = draw(st.sampled_from([(20.0, 20.0), (70.0, 60.0), (40.0, 85.0)]))
        off = st.floats(min_value=-9.0, max_value=9.0, allow_nan=False)
        return (
            min(max(cx + draw(off), 0.0), 100.0),
            min(max(cy + draw(off), 0.0), 100.0),
        )
    return (draw(UNIFORM), draw(UNIFORM))


@st.composite
def windows(draw):
    kind = draw(st.sampled_from(["free", "free", "edges", "beyond", "empty"]))
    if kind == "empty":  # a fence beyond every point any flavor generates
        return Rect(200.0, 200.0, 230.0, 230.0)
    if kind == "beyond":  # a strip holding only points outside the bounds
        return draw(
            st.sampled_from(
                [Rect(100.5, -20.0, 120.0, 120.0), Rect(-20.0, -20.0, 120.0, -0.5)]
            )
        )
    if kind == "edges":
        xs = draw(st.lists(EDGES, min_size=2, max_size=2, unique=True))
        ys = draw(st.lists(EDGES, min_size=2, max_size=2, unique=True))
        return Rect(min(xs), min(ys), max(xs), max(ys))
    x0, y0 = draw(OUTSIDE), draw(OUTSIDE)  # may lie wholly beyond the bounds
    w = draw(st.floats(min_value=1.0, max_value=60.0, allow_nan=False))
    h = draw(st.floats(min_value=1.0, max_value=60.0, allow_nan=False))
    return Rect(x0, y0, min(x0 + w, 120.0), min(y0 + h, 120.0))


@st.composite
def point_filters(draw, child: AlgebraNode, max_filters: int = 2):
    """A chain of 0..max_filters per-point filters over ``child``."""
    for _ in range(draw(st.integers(0, max_filters))):
        which = draw(st.sampled_from(["range", "attr", "knn"]))
        if which == "range":
            child = RangeFilter(child, draw(windows()))
        elif which == "attr":
            child = AttrFilter(
                child, "kind", draw(st.sampled_from(KINDS + ("green",)))
            )
        else:
            fx, fy = draw(coordinates("uniform"))
            # 64 exceeds every relation: k at or above the subset size.
            k = draw(st.one_of(st.integers(1, 8), st.just(64)))
            child = KnnFilter(child, Point(fx, fy), k)
    return child


@st.composite
def algebra_trees(draw):
    """A random tree: filter chain, optionally joined, aggregated, top-k'd."""
    tree: AlgebraNode = draw(point_filters(Scan("a")))
    shape = draw(st.sampled_from(["points", "join", "grid", "region", "join_agg"]))
    if shape in ("join", "join_agg"):
        tree = KnnJoinOp(tree, Scan("b"), draw(st.sampled_from([1, 2, 3, 4, 12])))
        if draw(st.booleans()):
            tree = RangeFilter(tree, draw(windows()), on=draw(st.sampled_from(["point", "outer"])))
        if shape == "join" and draw(st.booleans()):
            # Chained second join — inner must be a bare scan (structural rule).
            tree = KnnJoinOp(tree, Scan("a"), draw(st.integers(1, 3)))
    if shape in ("grid", "join_agg"):
        tree = GridAggregate(
            tree,
            draw(st.integers(2, 8)),
            measure=draw(st.sampled_from(["count", "density"])),
        )
    elif shape == "region":
        n = draw(st.integers(1, 3))
        tree = RegionAggregate(
            tree, tuple((f"r{i}", draw(windows())) for i in range(n))
        )
    if tree.width() == 0 and draw(st.booleans()):
        tree = TopK(tree, draw(st.integers(1, 6)))
    return tree


@st.composite
def datasets(draw):
    flavor = draw(
        st.sampled_from(["uniform", "lattice", "clustered", "outside", "edges"])
    )
    n_a = draw(st.integers(8, 30))
    odd = draw(st.booleans())
    pts_a = []
    for i in range(n_a):
        payload = {"kind": KINDS[i % 2]}
        if odd and draw(st.booleans()):
            payload = draw(st.sampled_from(ODD_PAYLOADS))
        pts_a.append(Point(*draw(coordinates(flavor)), i, payload))
    n_b = draw(st.integers(3, 8))
    pts_b = [
        Point(*draw(coordinates("uniform")), 100_000 + i, {"kind": KINDS[i % 2]})
        for i in range(n_b)
    ]
    return pts_a, pts_b


@st.composite
def scenarios(draw):
    pts_a, pts_b = draw(datasets())
    trees = draw(st.lists(algebra_trees(), min_size=1, max_size=3))
    return pts_a, pts_b, trees


def _register(engine, pts_a, pts_b):
    # A 4x4 grid even over these small relations, so block pruning (and the
    # clamping of out-of-bounds points into border blocks) is really in play.
    engine.register(name="a", points=pts_a, bounds=BOUNDS, cells_per_side=4)
    engine.register(name="b", points=pts_b, bounds=BOUNDS, cells_per_side=4)
    return engine


def _reference(tree, pts_a, pts_b):
    return reference_rows(
        tree, {"a": pts_a, "b": pts_b}, {"a": BOUNDS, "b": BOUNDS}
    )


@given(scenario=scenarios())
@settings(max_examples=40, deadline=None)
def test_algebra_matches_reference_unsharded(scenario):
    pts_a, pts_b, trees = scenario
    engine = _register(SpatialEngine(), pts_a, pts_b)
    for tree in trees:
        got = result_rows(engine.run(Query.from_tree(tree)))
        assert got == _reference(tree, pts_a, pts_b), tree.label()


@given(scenario=scenarios())
@settings(max_examples=20, deadline=None)
def test_algebra_matches_reference_serial_sharded(scenario):
    pts_a, pts_b, trees = scenario
    engine = _register(ShardedEngine(num_shards=3, backend="serial", seed=1), pts_a, pts_b)
    for tree in trees:
        got = result_rows(engine.run(Query.from_tree(tree)))
        assert got == _reference(tree, pts_a, pts_b), tree.label()


@needs_fork
@given(scenario=scenarios())
@settings(max_examples=5, deadline=None)
def test_algebra_matches_reference_process_shm(scenario):
    pts_a, pts_b, trees = scenario
    proc = ShardedEngine(num_shards=2, backend="process", max_workers=2, seed=1)
    try:
        _register(proc, pts_a, pts_b)
        for tree in trees:
            got = result_rows(proc.run(Query.from_tree(tree)))
            assert got == _reference(tree, pts_a, pts_b), tree.label()
    finally:
        proc.close()


@st.composite
def stream_scenarios(draw):
    pts_a, pts_b = draw(datasets())
    trees = draw(st.lists(algebra_trees(), min_size=1, max_size=2))
    batches = []
    next_pid = [1000]
    for _ in range(draw(st.integers(1, 3))):
        relation = draw(st.sampled_from(["a", "a", "b"]))
        # Updates land outside the bounds and on cell/window edges too.
        placed = coordinates(draw(st.sampled_from(["uniform", "outside", "edges"])))
        inserts = []
        for _ in range(draw(st.integers(0, 4))):
            x, y = draw(placed)
            pid = next_pid[0] + (100_000 if relation == "b" else 0)
            next_pid[0] += 1
            inserts.append(Point(x, y, pid, {"kind": draw(st.sampled_from(KINDS))}))
        remove_idx = draw(st.lists(st.integers(0, 10_000), max_size=2))
        moves = draw(st.lists(st.tuples(st.integers(0, 10_000), placed), max_size=3))
        batches.append((relation, inserts, remove_idx, moves))
    return pts_a, pts_b, trees, batches


@given(scenario=stream_scenarios())
@settings(max_examples=20, deadline=None)
def test_algebra_stream_maintenance_matches_reference(scenario):
    pts_a, pts_b, trees, batches = scenario
    stream = _register(StreamEngine(SpatialEngine()), pts_a, pts_b)
    queries = [Query.from_tree(tree) for tree in trees]
    subs = [stream.subscribe(q) for q in queries]
    replayed = [set(sub.result()) for sub in subs]

    # Model of the live relations, mirrored batch by batch.
    model = {
        "a": {p.pid: p for p in pts_a},
        "b": {p.pid: p for p in pts_b},
    }

    for relation, inserts, remove_idx, moves in batches:
        live = model[relation]
        used = {p.pid for p in inserts}
        removes = []
        for idx in remove_idx:
            if len(live) - len(removes) <= 1:
                break
            pid = sorted(live)[idx % len(live)]
            if pid not in used:
                used.add(pid)
                removes.append(pid)
        move_ops = []
        for idx, (x, y) in moves:
            pid = sorted(live)[idx % len(live)]
            if pid not in used:
                used.add(pid)
                move_ops.append((pid, x, y))
        deltas = stream.push(
            relation, UpdateBatch(inserts=inserts, removes=removes, moves=move_ops)
        )
        for p in inserts:
            live[p.pid] = p
        for pid in removes:
            del live[pid]
        for pid, x, y in move_ops:
            live[pid] = Point(x, y, pid, live[pid].payload)

        rel = {name: list(pts.values()) for name, pts in model.items()}
        for i, (tree, sub) in enumerate(zip(trees, subs)):
            expected = reference_rows(tree, rel, {"a": BOUNDS, "b": BOUNDS})
            assert tuple(sorted(sub.result())) == expected, tree.label()
            if sub.id in deltas:
                replayed[i] -= set(deltas[sub.id].removed)
                replayed[i] |= set(deltas[sub.id].added)
            assert replayed[i] == set(sub.result()), tree.label()
