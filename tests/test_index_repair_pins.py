"""The write path's observable outcomes over a fixed tick sequence, pinned.

A 3k-vehicle BerlinMOD fleet behind a stream engine takes 40 pushes: 1 %
move ticks, and one tick that also removes and inserts vehicles.  Every
number below was recorded on the per-cell repair loop of ``GridIndex``
*before* the grid's membership became one CSR pair, so a rewrite of how the
index is repaired must reproduce them exactly:

* how often the dataset repaired vs rebuilt its index,
* a digest of the repaired index's per-block member rows (after the churn
  tick and at the end), and
* the outcome counts of a ``stream_ticks``-shaped subscription set — kNN
  selects, range selects, a kNN join and two algebra trees.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.algebra import GridAggregate, RangeFilter, RegionAggregate, Scan, TopK
from repro.datagen import BerlinModConfig, BerlinModTickStream, berlinmod_snapshot
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.query import Dataset, KnnJoin, KnnSelect, Query, RangeSelect
from repro.stream import StreamEngine

BOUNDS = BerlinModConfig().bounds
PUSHES = 40
CHURN_PUSH = 20


def member_digest(index) -> str:
    """SHA-256 prefix over every block's id and member rows, in block order."""
    h = hashlib.sha256()
    for block in index.blocks:
        h.update(np.int64(block.block_id).tobytes())
        h.update(np.ascontiguousarray(block.member_ids, dtype=np.int32).tobytes())
    return h.hexdigest()[:16]


def subscriptions(vehicles: list[Point]) -> list[Query]:
    rng = np.random.default_rng(14)
    picks = rng.choice(len(vehicles), size=16, replace=False)
    focals = [Point(vehicles[i].x + 60.0, vehicles[i].y - 40.0) for i in picks]
    downtown = Rect.from_center(BOUNDS.center, 8_000.0, 8_000.0)
    mid = BOUNDS.center.x
    return (
        [Query(KnnSelect("vehicles", f, 10)) for f in focals[:12]]
        + [
            Query(RangeSelect("vehicles", Rect.from_center(f, 1_600.0, 1_600.0)))
            for f in focals[12:]
        ]
        + [
            Query(KnnJoin("ambulances", "vehicles", 5)),
            Query.from_tree(TopK(GridAggregate(RangeFilter(Scan("vehicles"), downtown), 16), 10)),
            Query.from_tree(
                RegionAggregate(
                    RangeFilter(Scan("vehicles"), downtown),
                    (
                        ("west", Rect(downtown.xmin, downtown.ymin, mid, downtown.ymax)),
                        ("east", Rect(mid, downtown.ymin, downtown.xmax, downtown.ymax)),
                    ),
                )
            ),
        ]
    )


@pytest.fixture(scope="module")
def run():
    vehicles = berlinmod_snapshot(n=3_000, seed=1_111)
    ambulances = berlinmod_snapshot(n=40, seed=1_112, start_pid=10_000_000)
    stream = StreamEngine()
    stream.register(Dataset("vehicles", vehicles, index_kind="grid", bounds=BOUNDS))
    stream.register(Dataset("ambulances", ambulances, index_kind="grid", bounds=BOUNDS))
    for query in subscriptions(vehicles):
        stream.subscribe(query)
    ticks = BerlinModTickStream(vehicles, bounds=BOUNDS, move_fraction=0.01, seed=11)
    digests = {}
    for push in range(PUSHES):
        ticks.churn_fraction = 0.004 if push == CHURN_PUSH else 0.0
        batch = ticks.tick()
        if push == CHURN_PUSH:
            assert batch.num_inserts and len(batch.remove_pids)
        stream.push("vehicles", batch)
        if push == CHURN_PUSH:
            digests["churn"] = member_digest(stream.engine.dataset("vehicles").index)
    dataset = stream.engine.dataset("vehicles")
    digests["final"] = member_digest(dataset.index)
    yield stream, dataset, digests
    stream.close()


def test_repairs_instead_of_rebuilds(run):
    _stream, dataset, _digests = run
    assert (dataset.index_repairs, dataset.index_rebuilds) == (40, 1)


def test_repaired_member_rows_digest(run):
    _stream, dataset, digests = run
    assert len(dataset) == 3_000
    assert digests == {"churn": "7bfb4152d64ecee1", "final": "0714065cc975ca74"}


def test_stream_outcome_counts(run):
    stream, _dataset, _digests = run
    metrics = stream.metrics()
    outcomes = {
        key: metrics[key] for key in ("skips", "local_repairs", "refreshes", "guard_violations")
    }
    assert outcomes == {
        "skips": 578,
        "local_repairs": 130,
        "refreshes": 52,
        "guard_violations": 52,
    }
