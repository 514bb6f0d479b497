"""A discarded engine is freed by reference counting alone.

Gauges registered by the engine and its caches bind the containers they
measure, not the engine: a closure over ``self`` would make every engine a
reference cycle that only the cyclic collector frees, so discarded engines
(and their datasets and indexes) would stay resident until a
generation-2 collection.
"""

from __future__ import annotations

import gc
import weakref

from repro import Dataset, KnnSelect, Point, Query, SpatialEngine
from repro.datagen import uniform_points
from repro.geometry.rectangle import Rect


def test_engine_is_freed_on_del_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        engine = SpatialEngine()
        cafes = uniform_points(200, Rect(0.0, 0.0, 100.0, 100.0), seed=1)
        engine.register(Dataset("cafes", cafes))
        query = Query(KnnSelect(relation="cafes", focal=Point(50.0, 50.0), k=5))
        assert len(engine.run(query).rows) == 5
        # The gauges still read the live containers.
        gauges = {g["name"]: g["value"] for g in engine.obs.registry.snapshot()["gauges"]}
        assert gauges == {
            "engine_datasets": 1.0,
            "plan_cache_entries": 1.0,
            "stats_cache_entries": 1.0,
        }
        alive = weakref.ref(engine)
        del engine
        assert alive() is None
    finally:
        gc.enable()
