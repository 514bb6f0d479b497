"""Property tests: streamed maintenance is identical to from-scratch execution.

The delta soundness invariant of ``docs/stream.md``, tested end to end: after
*every* update batch, every subscription's maintained result must be
byte-identical to running the same query from scratch over the relation's
current state — for every query class, over uniform / clustered /
duplicate-heavy (lattice) / BerlinMOD-style data, through the unsharded and
the sharded engine.  Additionally, replaying the emitted deltas onto the
initial snapshot must reproduce the maintained result (deltas compose).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.datagen.berlinmod import berlinmod_snapshot
from repro.engine.session import SpatialEngine
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.query.predicates import KnnJoin, KnnSelect, RangeSelect
from repro.query.query import Query
from repro.shard.engine import ShardedEngine
from repro.storage.update import UpdateBatch
from repro.stream import StreamEngine
from repro.stream.delta import result_rows

# Coordinates: uniform floats, a small integer lattice (duplicate coordinates
# and exact distance ties), and clustered offsets.
UNIFORM = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False)
LATTICE = st.integers(min_value=0, max_value=6).map(float)


@st.composite
def coordinates(draw):
    """One coordinate pair from the active flavor's strategy."""
    flavor = draw(st.sampled_from(["uniform", "lattice"]))
    scalar = UNIFORM if flavor == "uniform" else LATTICE
    return (draw(scalar), draw(scalar))


@st.composite
def update_batches(draw, max_ops: int = 6):
    """An abstract batch: concrete pids are resolved against the live relation.

    Removals and moves are drawn as *indices* (taken modulo the current
    population at apply time), so generation is static and shrinkable while
    batches always name live pids.
    """
    inserts = draw(st.lists(coordinates(), min_size=0, max_size=max_ops))
    remove_idx = draw(st.lists(st.integers(min_value=0, max_value=10_000), max_size=2))
    moves = draw(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=10_000), coordinates()),
            max_size=max_ops,
        )
    )
    return (inserts, remove_idx, moves)


def resolve_batch(spec, store) -> UpdateBatch:
    """Turn an abstract batch spec into a concrete one for the current state."""
    inserts, remove_idx, moves = spec
    alive = store.pids
    used: set[int] = set()
    removes: list[int] = []
    for idx in remove_idx:
        # Guard on the population the batch leaves behind, not the one it
        # starts from: two removals against a 2-point relation would empty it.
        if len(alive) - len(removes) <= 1:
            break
        pid = int(alive[idx % len(alive)])
        if pid not in used:
            used.add(pid)
            removes.append(pid)
    move_ops: list[tuple[int, float, float]] = []
    for idx, (x, y) in moves:
        pid = int(alive[idx % len(alive)])
        if pid not in used:
            used.add(pid)
            move_ops.append((pid, x, y))
    return UpdateBatch(inserts=inserts, removes=removes, moves=move_ops)


@st.composite
def scenarios(draw):
    """A dataset pair plus a short run of update batches for each relation."""
    flavor = draw(st.sampled_from(["uniform", "lattice", "clustered", "berlinmod"]))
    if flavor == "berlinmod":
        n_a = draw(st.integers(min_value=20, max_value=60))
        pts_a = [
            Point(p.x / 400.0, p.y / 400.0, p.pid)
            for p in berlinmod_snapshot(n=n_a, seed=draw(st.integers(0, 5)))
        ]
    elif flavor == "clustered":
        centers = draw(st.lists(st.tuples(UNIFORM, UNIFORM), min_size=1, max_size=3))
        offset = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)
        members = draw(
            st.lists(
                st.tuples(st.integers(0, len(centers) - 1), offset, offset),
                min_size=10,
                max_size=50,
            )
        )
        pts_a = [
            Point(centers[c][0] + dx, centers[c][1] + dy, i)
            for i, (c, dx, dy) in enumerate(members)
        ]
    else:
        scalar = UNIFORM if flavor == "uniform" else LATTICE
        coords = draw(
            st.lists(st.tuples(scalar, scalar), min_size=10, max_size=50)
        )
        pts_a = [Point(x, y, i) for i, (x, y) in enumerate(coords)]
    n_b = draw(st.integers(min_value=4, max_value=12))
    pts_b = [
        Point(draw(UNIFORM), draw(UNIFORM), 100_000 + i) for i in range(n_b)
    ]
    batches = draw(
        st.lists(
            st.tuples(st.sampled_from(["a", "b"]), update_batches()),
            min_size=1,
            max_size=4,
        )
    )
    k = draw(st.integers(min_value=1, max_value=8))
    focal = Point(draw(UNIFORM) / 2.0, draw(UNIFORM) / 2.0)
    return pts_a, pts_b, batches, k, focal


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


def check_scenario(scenario, sharded: bool) -> None:
    pts_a, pts_b, batches, k, focal = scenario
    engine = (
        ShardedEngine(num_shards=2, backend="serial", seed=1)
        if sharded
        else SpatialEngine()
    )
    stream = StreamEngine(engine)
    stream.register(name="a", points=pts_a)
    stream.register(name="b", points=pts_b)
    queries = build_queries(k, focal)
    subs = {name: stream.subscribe(query) for name, query in queries.items()}
    replayed = {name: set(sub.result()) for name, sub in subs.items()}

    for relation, spec in batches:
        batch = resolve_batch(spec, stream.store(relation))
        deltas = stream.push(relation, batch)
        for name, sub in subs.items():
            if sub.id in deltas:
                delta = deltas[sub.id]
                replayed[name] -= set(delta.removed)
                replayed[name] |= set(delta.added)
        # Parity: maintained result == from-scratch engine run, every class.
        nbr = stream.knn("a", focal, k)
        expected_knn = tuple(zip(nbr.distance_array.tolist(), nbr.pid_array.tolist()))
        assert subs["single-select"].result() == expected_knn
        for name, query in queries.items():
            if name == "single-select":
                continue
            assert subs[name].result() == result_rows(stream.engine.run(query)), name
        # Deltas compose: replaying them reproduces each maintained result.
        for name, sub in subs.items():
            assert replayed[name] == set(sub.result()), name


@given(scenario=scenarios())
@settings(max_examples=25, deadline=None)
def test_streamed_parity_unsharded(scenario):
    check_scenario(scenario, sharded=False)


@given(scenario=scenarios())
@settings(max_examples=15, deadline=None)
def test_streamed_parity_sharded(scenario):
    check_scenario(scenario, sharded=True)
