"""S6 property test: every kernel backend agrees across engines and queries.

Compiled-vs-numpy parity, end to end: for every backend the dispatcher can
activate (pure numpy always; numba when the CI leg installs it), all six
query classes must produce byte-identical row sets over uniform / lattice
(exact distance ties) / clustered / duplicate-coordinate data — through the
unsharded engine, the serial sharded engine, and the process-backed sharded
engine whose workers read the relation via attached shared-memory segments.
"""

from __future__ import annotations

import multiprocessing

import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.engine.session import SpatialEngine
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.query.predicates import KnnJoin, KnnSelect, RangeSelect
from repro.query.query import Query
from repro.shard.engine import ShardedEngine
from repro.stream.delta import result_rows

UNIFORM = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False)
LATTICE = st.integers(min_value=0, max_value=6).map(float)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process backend requires the fork start method",
)


@st.composite
def scenarios(draw):
    """A two-relation dataset in one of four flavors, plus query parameters."""
    flavor = draw(st.sampled_from(["uniform", "lattice", "clustered", "duplicates"]))
    if flavor == "clustered":
        centers = draw(st.lists(st.tuples(UNIFORM, UNIFORM), min_size=1, max_size=3))
        offset = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)
        members = draw(
            st.lists(
                st.tuples(st.integers(0, len(centers) - 1), offset, offset),
                min_size=10,
                max_size=40,
            )
        )
        coords = [(centers[c][0] + dx, centers[c][1] + dy) for c, dx, dy in members]
    else:
        scalar = LATTICE if flavor == "lattice" else UNIFORM
        coords = draw(st.lists(st.tuples(scalar, scalar), min_size=10, max_size=40))
        if flavor == "duplicates":
            # Exact duplicate coordinates under distinct pids: merge order
            # and kNN truncation must break ties on pid, not float luck.
            coords = coords + coords[: max(1, len(coords) // 2)]
    pts_a = [Point(x, y, i) for i, (x, y) in enumerate(coords)]
    n_b = draw(st.integers(min_value=4, max_value=10))
    pts_b = [Point(draw(UNIFORM), draw(UNIFORM), 100_000 + i) for i in range(n_b)]
    k = draw(st.integers(min_value=1, max_value=6))
    focal = Point(draw(UNIFORM), draw(UNIFORM))
    insert = (draw(UNIFORM), draw(UNIFORM))
    return pts_a, pts_b, k, focal, insert


def build_queries(k: int, focal: Point) -> dict[str, Query]:
    window = Rect(focal.x - 20.0, focal.y - 20.0, focal.x + 20.0, focal.y + 20.0)
    return {
        "single-select": Query(KnnSelect(relation="a", focal=focal, k=k)),
        "single-range": Query(RangeSelect(relation="a", window=window)),
        "single-join": Query(KnnJoin(outer="b", inner="a", k=k)),
        "two-selects": Query(
            KnnSelect(relation="a", focal=focal, k=k),
            KnnSelect(relation="a", focal=Point(focal.x + 5.0, focal.y), k=k + 1),
        ),
        "select-inner-of-join": Query(
            KnnSelect(relation="a", focal=focal, k=k + 2),
            KnnJoin(outer="b", inner="a", k=k),
        ),
        "range-inner-of-join": Query(
            RangeSelect(relation="a", window=window),
            KnnJoin(outer="b", inner="a", k=k),
        ),
    }


def _register(engine, pts_a, pts_b):
    engine.register(name="a", points=pts_a)
    engine.register(name="b", points=pts_b)
    return engine


def _run_all(engine, queries) -> dict[str, tuple]:
    return {name: result_rows(engine.run(query)) for name, query in queries.items()}


@given(scenario=scenarios())
@settings(max_examples=20, deadline=None)
def test_backends_agree_unsharded_and_serial_sharded(scenario):
    pts_a, pts_b, k, focal, _ = scenario
    queries = build_queries(k, focal)
    reference: dict[str, tuple] | None = None
    for backend in kernels.available_backends():
        with kernels.use_backend(backend):
            flat = _run_all(_register(SpatialEngine(), pts_a, pts_b), queries)
            sharded_engine = _register(
                ShardedEngine(num_shards=3, backend="serial", seed=1), pts_a, pts_b
            )
            sharded = _run_all(sharded_engine, queries)
        assert sharded == flat, backend
        if reference is None:
            reference = flat
        else:
            # Cross-backend parity: compiled results match the first backend.
            assert flat == reference, backend


@needs_fork
@given(scenario=scenarios())
@settings(max_examples=6, deadline=None)
def test_process_shm_attach_matches_unsharded(scenario):
    pts_a, pts_b, k, focal, insert = scenario
    queries = build_queries(k, focal)
    flat = _register(SpatialEngine(), pts_a, pts_b)
    proc = ShardedEngine(num_shards=2, backend="process", max_workers=2, seed=1)
    try:
        _register(proc, pts_a, pts_b)
        assert _run_all(proc, queries) == _run_all(flat, queries)
        # Mutate after the pool forked: the publisher ships a fresh segment
        # generation and the workers answer through the shm attach path.
        added = Point(insert[0], insert[1], 50_000)
        flat.insert("a", [added])
        proc.insert("a", [added])
        assert _run_all(proc, queries) == _run_all(flat, queries)
        assert proc.pool_respawns == 0
    finally:
        proc.close()
