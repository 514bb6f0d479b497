"""Property test: recovery is exact under any batch/checkpoint interleaving.

The durable tier's core claim, exercised end to end with Hypothesis: apply a
random interleaving of update batches and checkpoints to a durable engine,
drop it without a clean close (the planner-state save is the only thing a
close adds — the data path is fsynced per batch), reopen the directory, and
the recovered engine must answer **every** query class identically to a
never-crashed in-memory oracle that applied the same batches — both through
a plain engine and through a sharded one rebuilt from the recovered stores.
Replay counts must also add up: exactly the batches applied since each
relation's last checkpoint are replayed from its WAL.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from test_property_stream_parity import build_queries, resolve_batch, update_batches

from repro.durable import DurableEngine
from repro.engine.session import SpatialEngine
from repro.geometry.point import Point
from repro.shard.engine import ShardedEngine
from repro.stream.delta import result_rows

UNIFORM = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False)


@st.composite
def operations(draw):
    """An interleaving of update batches and checkpoints over relations a/b."""
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("batch"), st.sampled_from(["a", "b"]), update_batches()
                ),
                st.tuples(
                    st.just("checkpoint"), st.sampled_from(["a", "b", None]), st.none()
                ),
            ),
            min_size=1,
            max_size=6,
        )
    )
    return ops


@st.composite
def scenarios(draw):
    coords_a = draw(st.lists(st.tuples(UNIFORM, UNIFORM), min_size=10, max_size=40))
    pts_a = [Point(x, y, i) for i, (x, y) in enumerate(coords_a)]
    n_b = draw(st.integers(min_value=4, max_value=10))
    pts_b = [Point(draw(UNIFORM), draw(UNIFORM), 100_000 + i) for i in range(n_b)]
    ops = draw(operations())
    k = draw(st.integers(min_value=1, max_value=6))
    focal = Point(draw(UNIFORM) / 2.0, draw(UNIFORM) / 2.0)
    return pts_a, pts_b, ops, k, focal


def run_scenario(root: Path, scenario) -> tuple[DurableEngine, SpatialEngine, dict]:
    """Drive oracle and durable engine through the ops; crash; recover."""
    pts_a, pts_b, ops, k, focal = scenario
    oracle = SpatialEngine()
    oracle.register(name="a", points=pts_a)
    oracle.register(name="b", points=pts_b)
    durable = DurableEngine.create(root, checkpoint_interval=0)
    durable.register(name="a", points=pts_a)
    durable.register(name="b", points=pts_b)

    since_checkpoint = {"a": 0, "b": 0}
    for op, relation, spec in ops:
        if op == "checkpoint":
            durable.checkpoint(relation)
            for name in ("a", "b") if relation is None else (relation,):
                since_checkpoint[name] = 0
        else:
            # Resolve against the durable store; both engines hold identical
            # state, so fresh-pid assignment agrees on both sides.
            batch = resolve_batch(spec, durable.dataset(relation).store)
            applied = durable.apply_update(relation, batch)
            oracle.apply_update(relation, batch)
            if applied.size:  # no-op batches are not logged, hence not replayed
                since_checkpoint[relation] += 1

    # Simulate a crash: release the WAL handles (as process death would) but
    # skip close()'s planner-state save.  Every applied batch is already
    # fsynced, so recovery owes us the full post-ops state.
    for dataset in durable.durables.values():
        dataset.close()
    recovered = DurableEngine.open(root)
    return recovered, oracle, since_checkpoint


def check_parity(scenario):
    _, _, _, k, focal = scenario
    queries = build_queries(k, focal)
    with tempfile.TemporaryDirectory() as tmp:
        recovered, oracle, since_checkpoint = run_scenario(Path(tmp) / "root", scenario)
        for relation, report in recovered.last_recovery.items():
            assert report.replayed_batches == since_checkpoint[relation], relation
        for name, query in queries.items():
            assert result_rows(recovered.run(query)) == result_rows(
                oracle.run(query)
            ), name

        # The same rows through a sharded engine: recovery is store-exact,
        # so a sharded serving tier rebuilt from the recovered stores agrees
        # with the oracle too.
        sharded = ShardedEngine(num_shards=2, backend="serial", seed=1)
        for relation in ("a", "b"):
            store = recovered.dataset(relation).store
            sharded.register(
                name=relation, points=store.materialize(range(len(store)))
            )
        for name, query in queries.items():
            assert result_rows(sharded.run(query)) == result_rows(
                oracle.run(query)
            ), f"sharded:{name}"
        sharded.close()
        recovered.close()


@given(scenario=scenarios())
@settings(max_examples=25, deadline=None)
@example(
    # Found by Hypothesis: two batches of two removals shrink relation ``b``
    # 4 -> 2 -> (unguarded) 0.  ``resolve_batch`` must stop at one survivor.
    scenario=(
        [Point(0.0, 0.0, i) for i in range(10)],
        [Point(0.0, 0.0, 100_000 + i) for i in range(4)],
        [
            ("batch", "a", ([], [], [])),
            ("batch", "b", ([], [0, 1], [])),
            ("batch", "b", ([], [0, 1], [])),
        ],
        1,
        Point(0.0, 0.0),
    ),
)
def test_recovered_engine_matches_never_crashed_oracle(scenario):
    check_parity(scenario)
