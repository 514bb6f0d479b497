"""S2 regression: mutation-heavy workloads stop respawning the worker pool.

Under the shared-memory generation protocol the process pool *survives* a
routed mutation: the mutation publishes a new segment generation, counted by
``shard_pool_reuses_total``, and ``shard_pool_respawns_total`` stays flat.
Only on a host whose shm publish raises ``OSError`` does the pool fall back
to the fork snapshot and respawn per mutation; that path is driven here by
fault injection.
"""

from __future__ import annotations

import errno
import glob
import multiprocessing
import os

import pytest

from repro.datagen import uniform_points
from repro.geometry import Point, Rect
from repro.query.predicates import KnnJoin, KnnSelect
from repro.query.query import Query
from repro.shard import shm
from repro.shard.engine import ShardedEngine

BOUNDS = Rect(0.0, 0.0, 1000.0, 1000.0)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process backend requires the fork start method",
)


class _PublishFaults:
    """Wraps ``shm.publish_segment``: records what it creates, fails on demand."""

    def __init__(self, monkeypatch) -> None:
        #: Publishes still allowed before every further one raises ``ENOSPC``
        #: (``None``: never fail).
        self.fail_after: int | None = None
        self.created: list[str] = []
        real = shm.publish_segment

        def publish(token, sharded):
            if self.fail_after is not None:
                if self.fail_after == 0:
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.fail_after -= 1
            handle = real(token, sharded)
            self.created.append(handle.name)
            return handle

        monkeypatch.setattr(shm, "publish_segment", publish)

    def leaked(self) -> list[str]:
        return [name for name in self.created if os.path.exists(f"/dev/shm/{name}")]


@pytest.fixture
def faults(monkeypatch) -> _PublishFaults:
    return _PublishFaults(monkeypatch)


def _engine() -> ShardedEngine:
    engine = ShardedEngine(num_shards=4, backend="process", max_workers=2)
    engine.register(name="a", points=uniform_points(300, BOUNDS, seed=81), bounds=BOUNDS)
    engine.register(
        name="b",
        points=uniform_points(400, BOUNDS, seed=82, start_pid=10_000),
        bounds=BOUNDS,
    )
    return engine


def _serve_cycle(engine: ShardedEngine, i: int) -> None:
    engine.insert("a", [Point(10.0 + i, 10.0 + i)])
    engine.run(Query(KnnJoin(outer="a", inner="b", k=3)))
    engine.run(Query(KnnSelect(relation="b", focal=Point(500.0, 500.0), k=5)))


@needs_fork
def test_mutation_heavy_workload_stops_respawning_under_segments():
    with _engine() as engine:
        engine.run(Query(KnnJoin(outer="a", inner="b", k=3)))  # fork the pool
        assert engine.pool_respawns == 0
        for i in range(6):
            _serve_cycle(engine, i)
        assert engine.pool_respawns == 0  # the pool survived every mutation
        assert engine.pool_reuses >= 6
        snapshot = engine.metrics()
        assert snapshot["pool_respawns"] == 0
        assert snapshot["pool"]["segments"] is True


@needs_fork
@pytest.mark.parametrize("publishes_before_failure", [0, 1])
def test_publish_failure_restores_respawn_per_mutation(faults, publishes_before_failure):
    # 1: relation ``a`` publishes, ``b`` fails — the partly-built publisher
    # must unlink ``a``'s segment before the pool falls back.
    faults.fail_after = publishes_before_failure
    with _engine() as engine:
        engine.run(Query(KnnJoin(outer="a", inner="b", k=3)))
        assert len(faults.created) == publishes_before_failure
        assert faults.leaked() == []
        for i in range(4):
            _serve_cycle(engine, i)
        assert engine.pool_reuses == 0
        assert engine.pool_respawns == 4  # one per mutation
        assert engine.metrics()["pool"]["segments"] is False
    assert faults.leaked() == []


@needs_fork
def test_shm_and_respawn_protocols_agree(faults):
    query = Query(KnnJoin(outer="a", inner="b", k=4))

    def serve() -> list:
        with _engine() as engine:
            for i in range(3):
                _serve_cycle(engine, i)
            return sorted(p.pids for p in engine.run(query).pairs)

    over_shm = serve()
    faults.fail_after = 0
    assert serve() == over_shm


@needs_fork
def test_publish_failure_mid_life_respawns_and_unlinks(faults):
    query = Query(KnnJoin(outer="a", inner="b", k=3))
    with _engine() as reference, _engine() as engine:
        engine.run(query)
        assert engine.metrics()["pool"]["segments"] is True
        faults.fail_after = 0
        engine.insert("a", [Point(10.0, 10.0)])
        assert engine.pool_respawns == 1
        assert engine.pool_reuses == 0
        after = sorted(p.pids for p in engine.run(query).pairs)
        assert engine.metrics()["pool"]["segments"] is False
        faults.fail_after = None
        reference.insert("a", [Point(10.0, 10.0)])
        assert after == sorted(p.pids for p in reference.run(query).pairs)
    assert len(faults.created) >= 2
    assert faults.leaked() == []


@needs_fork
def test_engine_close_releases_all_segments():
    engine = _engine()
    engine.run(Query(KnnSelect(relation="a", focal=Point(1.0, 1.0), k=2)))
    assert engine.pool_respawns == 0
    # Scope to this engine's own generations: other tests may hold live
    # (not-yet-collected) engines whose segments are legitimately present.
    owned = {
        f"/dev/shm/{name}" for name in engine._pool.segment_names().values()
    }
    assert owned and all(glob.glob(path) for path in owned)
    engine.close()
    assert not any(glob.glob(path) for path in owned)


def test_serial_backend_reuses_pool_on_mutation():
    engine = ShardedEngine(num_shards=3, backend="serial")
    engine.register(name="a", points=uniform_points(120, BOUNDS, seed=91), bounds=BOUNDS)
    query = Query(KnnSelect(relation="a", focal=Point(500.0, 500.0), k=4))
    engine.run(query)
    for i in range(3):
        engine.insert("a", [Point(20.0 + i, 20.0 + i)])
        engine.run(query)
    # Serial workers execute against the live objects: nothing to respawn.
    assert engine.pool_respawns == 0
    assert engine.pool_reuses == 3
    engine.close()
