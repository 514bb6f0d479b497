"""``shard_rw``: reads beside writes through a process-backed sharded engine."""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Iterator

import numpy as np

from repro.algebra import GridAggregate, RangeFilter, Scan, TopK
from repro.datagen import BerlinModTickStream
from repro.geometry import Point
from repro.operators.merge import merge_pair_partials
from repro.query import Query
from repro.shard import ShardedEngine
from repro.shard.batch import sharded_knn_batch
from repro.shard.executor import ShardTask
from repro.shard.knn import sharded_knn
from repro.shard.pool import ShardWorkerPool
from repro.shard.shm import attach_segment, publish_segment
from repro.storage import UpdateBatch
from repro.stream.delta import result_rows

from perf import oracle
from perf.harness import Workload, median_seconds
from perf.spans import Recorder, TimedKernels
from perf.workloads._common import (
    BOUNDS,
    Focals,
    QueryOp,
    Relations,
    cycle,
    engine_counters,
    expected_move,
    kernel_means,
    moved_rows,
    plain_slice,
    probe_overhead,
    query_for,
    replay_write,
    span_p50,
    square,
    traced_ops,
    write_metrics,
)

#: 80 % reads, 20 % writes.  The two slow read classes are 10 % each so the
#: p95 falls inside the chained-join distribution.
PATTERN = (
    "knn-select",
    "knn-select",
    "write",
    "knn-select",
    "aggregate",
    "select-inner-of-join",
    "knn-select",
    "write",
    "aggregate",
    "chained-joins",
)
SHARDS = 4
MOVES_PER_WRITE = 100


@dataclass(frozen=True)
class WriteOp:
    batch: UpdateBatch


class ShardRW(Workload):
    name = "shard_rw"
    why = (
        "4 shards, 2 worker processes, shm segments, 80% reads / 20% 100-row writes on sites 600 / "
        "pois 20k: fan-out, pickling, publish->attach, merge; each write evicts plans and forces a re-attach"
    )
    sizes = {"sites": 600, "pois": 20_000}
    smoke_sizes = {"sites": 80, "pois": 1_500}
    warmup_ops = 20
    pattern_len = len(PATTERN)
    count_ops = 60
    workers = min(2, len(os.sched_getaffinity(0)))

    def generate(self) -> None:
        self.data = Relations(self.seed)
        self.data.add("sites", self.n["sites"])
        self.data.add("pois", self.n["pois"])

    def _engine(self, backend: str) -> ShardedEngine:
        engine = ShardedEngine(num_shards=SHARDS, backend=backend, max_workers=self.workers)
        for name in ("sites", "pois"):
            engine.register(self.data.dataset(name))
        return engine

    def setup(self) -> ShardedEngine:
        engine = self._engine("process")
        stream = self.ops(engine)
        for kind, op in (next(stream) for _ in PATTERN):
            if kind != "write":  # forks the pool, caches every read plan
                engine.run(op.query)
        return engine

    def teardown(self, state: ShardedEngine) -> None:
        state.close()

    def _make(self, rng, focals, ticks, kind: str) -> QueryOp | WriteOp:
        if kind == "write":
            return WriteOp(ticks.tick())
        if kind == "knn-select":
            args = ("pois", focals.next(), int(rng.choice((16, 32, 64))))
            return QueryOp(query_for(kind, args), args)
        if kind == "aggregate":
            window = square(focals.next(), float(rng.uniform(2_000.0, 4_000.0)))
            tree = TopK(GridAggregate(RangeFilter(Scan("pois"), window), 16), 10)
            return QueryOp(Query.from_tree(tree), (tree,))
        if kind == "select-inner-of-join":
            args = ("sites", "pois", 4, focals.next(), 64)
        else:
            args = ("sites", "pois", "sites", 2, 2)
        return QueryOp(query_for(kind, args), args)

    def ops(self, state: Any) -> Iterator[tuple[str, Any]]:
        rng = np.random.default_rng(self.seed)
        focals = Focals(self.data.points["pois"], rng)
        ticks = BerlinModTickStream(
            self.data.points["pois"],
            bounds=BOUNDS,
            move_fraction=min(1.0, MOVES_PER_WRITE / self.n["pois"]),
            seed=self.seed,
        )
        return cycle(PATTERN, lambda kind: self._make(rng, focals, ticks, kind))

    def execute(self, state: ShardedEngine, kind: str, args: Any) -> Any:
        if kind == "write":
            return state.apply_update("pois", args.batch)
        return state.run(args.query)

    def capture(self, state: ShardedEngine, kind: str, args: Any, result: Any) -> Any:
        # Stores are immutable snapshots: holding them pins the data version
        # this op ran against, whatever later writes do.  A write keeps only
        # the rows it moved.
        stores = {name: ds.base.store for name, ds in state.datasets.items()}
        if kind == "write":
            return kind, args, result, moved_rows(stores["pois"], args.batch)
        return kind, args, result, stores

    def check(self, captured: Any) -> tuple[Any, Any]:
        kind, op, result, stores = captured
        if kind == "write":
            return (result.size, *stores), expected_move(op.batch)
        if kind == "aggregate":
            frames = {name: BOUNDS for name in stores}
            return result_rows(result), oracle.algebra_rows(op.args[0], stores, frames)
        return result_rows(result), oracle.expected_rows(kind, op.args, stores)

    # -- traced run -------------------------------------------------------
    def trace(self, state: ShardedEngine, seconds: float) -> dict[str, float]:
        engine = state
        stream = self.ops(engine)
        plain = plain_slice(lambda kind, op: self.execute(engine, kind, op), stream, self.count_ops)
        before = after = engine.metrics()
        timed = TimedKernels()
        rec = self.recorder = Recorder(timed)
        fallbacks: list[bool] = []
        dispatches: list[float] = []
        after_write: dict[int, bool] = {}
        last = ""
        for done, kind, op in traced_ops(self, stream, seconds, timed):
            store = engine.sharded_dataset("pois").base.store
            with rec.span(kind, "shard") as root:
                self.execute(engine, kind, op)
            if done == self.count_ops:
                after = engine.metrics()
            if kind == "write":
                fallbacks.append(replay_write(rec, root, "pois", store, op.batch))
            else:
                obs_root = engine.traces(1)[-1].root
                rec.graft(obs_root, root)
                dispatches.append(
                    obs_root.attributes.get("resources", {}).get("kernel_dispatches", 0)
                )
                after_write[root["op"]] = last == "write"
            last = kind
        reads = after["queries_executed"] - before["queries_executed"]
        metrics = engine_counters(before, after)
        metrics.update(kernel_means(timed, rec))
        metrics.update(write_metrics(rec, fallbacks[: self.count_ops - reads], float(MOVES_PER_WRITE)))
        metrics["kernels.dispatches_per_op"] = statistics.fmean(dispatches[:reads])
        metrics["shard.tasks_per_query"] = (
            after["tasks_dispatched"] - before["tasks_dispatched"]
        ) / reads
        metrics["shard.stale_retries"] = after["stale_retries"] - before["stale_retries"]
        metrics["shard.pool_respawns"] = after["pool_respawns"] - before["pool_respawns"]
        metrics.update(self._span_metrics(rec, after_write))
        metrics.update(probe_overhead(rec, plain))
        metrics.update(self._probes(engine))
        return metrics

    def _span_metrics(self, rec: Recorder, after_write: dict[int, bool]) -> dict[str, float]:
        """Fan-out shape and the read-after-write penalty, from the engine's
        public traces as they exist today."""
        tasks_by_fanout: dict[int, list[float]] = {}
        for span in rec.named("shard-task"):
            tasks_by_fanout.setdefault(span["parent"], []).append(span["duration"])
        stragglers = [max(t) / statistics.fmean(t) for t in tasks_by_fanout.values() if len(t) > 1]
        knn = [r for r in rec.roots() if r["name"] == "knn-select"]
        plans = {s["op"]: s["duration"] for s in rec.named("plan")}

        def median_ms(roots, value) -> float:
            values = [value(r) for r in roots]
            return 1e3 * statistics.median(values) if values else 0.0

        fresh = [r for r in knn if after_write[r["op"]]]
        steady = [r for r in knn if not after_write[r["op"]]]
        return {
            "shard.fanout_span_ms": span_p50(rec, "shard-fan-out", 1e3),
            "shard.task_span_sum_ms": 1e3
            * statistics.median(sum(t) for t in tasks_by_fanout.values()),
            "shard.straggler_ratio": statistics.fmean(stragglers) if stragglers else 0.0,
            "shard.read_after_write_ms": median_ms(fresh, lambda r: r["duration"]),
            "shard.read_steady_ms": median_ms(steady, lambda r: r["duration"]),
            # A write evicts every plan over the relation, so the read that
            # follows it plans cold; the others hit the cache.
            "planner.plan_cold_ms": median_ms(fresh, lambda r: plans[r["op"]]),
            "planner.plan_warm_us": 1e3 * median_ms(steady, lambda r: plans[r["op"]]),
        }

    def _probes(self, engine: ShardedEngine) -> dict[str, float]:
        """Direct calls into the shard layer's public functions."""
        pois = engine.sharded_dataset("pois")
        rng = np.random.default_rng(self.seed + 2)
        focals = Focals(self.data.points["pois"], rng)
        out: dict[str, float] = {}

        def register() -> None:
            serial = ShardedEngine(num_shards=SHARDS, backend="serial")
            serial.register(self.data.dataset("pois"))

        out["shard.register_ms"] = 1e3 * median_seconds(register, 3)

        publish_s, attach_s = [], []
        for i in range(5):
            started = perf_counter()
            handle = publish_segment(f"perf-probe-{i}", pois)
            publish_s.append(perf_counter() - started)
            try:
                started = perf_counter()
                runtime = attach_segment(handle.name)
                attach_s.append(perf_counter() - started)
                out["shard.segment_bytes"] = float(runtime.nbytes)
                runtime.close()
            finally:
                handle.unlink()
                handle.close()
        out["shard.publish_segment_ms"] = 1e3 * statistics.median(publish_s)
        out["shard.attach_segment_ms"] = 1e3 * statistics.median(attach_s)

        # One trivial task per worker through a pool of the workload's shape.
        stamps = (("pois", pois.version),)
        tasks = [
            ShardTask("knn", "pois", sid, (Point(20_000.0, 20_000.0), 1), stamps)
            for sid, _ds in list(pois.populated())[: max(2, self.workers)]
        ]
        with ShardWorkerPool(
            "perf-roundtrip", {"pois": pois}, backend="process", max_workers=self.workers
        ) as pool:
            pool.run(tasks)
            out["shard.pool_roundtrip_ms"] = 1e3 * median_seconds(lambda: pool.run(tasks), 20)

        out["shard.sharded_knn_us"] = 1e6 * statistics.median(
            median_seconds(lambda: sharded_knn(pois, focal, 32), 1)
            for focal in (focals.next() for _ in range(40))
        )
        sites = engine.sharded_dataset("sites").base.store
        coords = np.column_stack((sites.xs, sites.ys))
        out["shard.sharded_knn_batch_ms"] = 1e3 * median_seconds(
            lambda: sharded_knn_batch(pois, coords, 4), 3
        )
        pairs = engine.run(query_for("select-inner-of-join", ("sites", "pois", 4, focals.next(), 64))).pairs
        partials = [pairs[i::SHARDS] for i in range(SHARDS)]
        out["operators.merge_pairs_ms"] = 1e3 * median_seconds(lambda: merge_pair_partials(partials), 5)

        # The same ops on the single-threaded backend.
        serial = self._engine("serial")
        try:
            walls = {engine: 0.0, serial: 0.0}
            streams = {engine: self.ops(engine), serial: self.ops(serial)}
            for target in (serial, engine):
                for _ in range(len(PATTERN) * (1 if self.smoke else 3)):
                    kind, op = next(streams[target])
                    started = perf_counter()
                    self.execute(target, kind, op)
                    walls[target] += perf_counter() - started
            out["shard.process_vs_serial_ratio"] = walls[engine] / walls[serial]
        finally:
            serial.close()
        return out
