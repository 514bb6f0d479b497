"""``stream_ticks``: standing queries maintained over a moving fleet."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Iterator

import numpy as np

from repro.algebra import GridAggregate, RangeFilter, RegionAggregate, Scan, TopK
from repro.datagen import BerlinModTickStream
from repro.geometry import Rect
from repro.query import KnnJoin, KnnSelect, Query, RangeSelect
from repro.storage import UpdateBatch
from repro.stream import StreamEngine, Subscription
from repro.stream.delta import result_rows

from perf import oracle
from perf.harness import Workload
from perf.spans import Recorder, TimedKernels
from perf.workloads._common import (
    BOUNDS,
    Focals,
    Relations,
    dispatches_per_root,
    engine_counters,
    kernel_means,
    plain_slice,
    probe_overhead,
    replay_write,
    span_p50,
    square,
    traced_ops,
    write_metrics,
)

KNN_SUBS, RANGE_SUBS = 48, 12
MOVE_FRACTION = 0.01


@dataclass
class StreamState:
    stream: StreamEngine
    subs: list[Subscription]
    #: Each subscription's rows right after subscribing, and every non-empty
    #: delta since — replayed at the end of the run.
    initial: dict[str, tuple]
    deltas: dict[str, list] = field(default_factory=dict)
    subscribe_s: list[float] = field(default_factory=list)
    pushes: int = 0


class StreamTicks(Workload):
    name = "stream_ticks"
    why = (
        "63 standing queries over vehicles 40k, op = push of a 1% tick (400 moves): guard tests, store "
        "swap and index repair dominate; query layers run only on guard violations"
    )
    sizes = {"vehicles": 40_000, "ambulances": 240}
    smoke_sizes = {"vehicles": 3_000, "ambulances": 40}
    warmup_ops = 30
    count_ops = 100

    def generate(self) -> None:
        self.data = Relations(self.seed)
        self.data.add("vehicles", self.n["vehicles"])
        self.data.add("ambulances", self.n["ambulances"])
        rng = np.random.default_rng(self.seed + 3)
        focals = Focals(self.data.points["vehicles"], rng)
        downtown = square(BOUNDS.center, 8_000.0)
        mid = BOUNDS.center.x
        self.queries = (
            [Query(KnnSelect("vehicles", focals.next(), 10)) for _ in range(KNN_SUBS)]
            + [Query(RangeSelect("vehicles", square(focals.next(), 800.0))) for _ in range(RANGE_SUBS)]
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

    def setup(self) -> StreamState:
        stream = StreamEngine()
        stream.register(self.data.dataset("vehicles"))
        stream.register(self.data.dataset("ambulances"))
        subs, walls = [], []
        for query in self.queries:
            started = perf_counter()
            subs.append(stream.subscribe(query))
            walls.append(perf_counter() - started)
        initial = {sub.id: sub.result() for sub in subs}
        return StreamState(stream, subs, initial, subscribe_s=walls)

    def teardown(self, state: StreamState) -> None:
        state.stream.close()

    def ops(self, state: Any) -> Iterator[tuple[str, UpdateBatch]]:
        ticks = BerlinModTickStream(
            self.data.points["vehicles"], bounds=BOUNDS, move_fraction=MOVE_FRACTION, seed=self.seed
        )
        while True:
            yield "push", ticks.tick()

    def execute(self, state: StreamState, kind: str, args: UpdateBatch) -> Any:
        deltas = state.stream.push("vehicles", args)
        for sub_id, delta in deltas.items():  # the client consumes its deltas
            if not delta.is_empty:
                state.deltas.setdefault(sub_id, []).append(delta)
        state.pushes += 1
        return deltas

    def capture(self, state: StreamState, kind: str, args: UpdateBatch, result: Any) -> Any:
        # One kNN subscription per sampled push, in rotation, against the
        # store snapshot this push left behind.
        sub = state.subs[state.pushes % KNN_SUBS]
        return sub.query.predicates[0], sub.result(), state.stream.store("vehicles")

    def check(self, captured: Any) -> tuple[Any, Any]:
        select, rows, store = captured
        expected = oracle.knn_pids(store, select.focal.x, select.focal.y, select.k)
        return [pid for _distance, pid in rows], expected

    def finish(self, state: StreamState) -> list[tuple[Any, Any]]:
        """Replay every subscription's deltas; compare with a fresh run."""
        pairs = []
        for sub in state.subs:
            maintained = sub.result()
            replayed = oracle.replay_deltas(state.initial[sub.id], state.deltas.get(sub.id, ()))
            pairs.append((replayed, set(maintained)))
            fresh = result_rows(state.stream.engine.run(sub.query))
            if sub.query_class == "single-select":  # maintained as (distance, pid) rows
                maintained = tuple(sorted(pid for _distance, pid in maintained))
            pairs.append((maintained, fresh))
        return pairs

    # -- traced run -------------------------------------------------------
    def trace(self, state: StreamState, seconds: float) -> dict[str, float]:
        stream = state.stream
        ops = self.ops(state)
        plain = plain_slice(lambda kind, batch: self.execute(state, kind, batch), ops, self.count_ops)

        before_stream, before_engine = stream.metrics(), stream.engine.metrics()
        after, after_engine = before_stream, before_engine
        timed = TimedKernels()
        rec = self.recorder = Recorder(timed)
        fallbacks: list[bool] = []
        delta_rows: list[int] = []
        for done, kind, batch in traced_ops(self, ops, seconds, timed):
            store = stream.store("vehicles")
            with rec.span(kind, "stream") as root:
                deltas = self.execute(state, kind, batch)
            rec.graft(stream.traces(1)[-1].root, root)
            delta_rows.append(sum(len(delta) for delta in deltas.values()))
            if done == self.count_ops:
                after, after_engine = stream.metrics(), stream.engine.metrics()
            fallbacks.append(
                replay_write(rec, rec.find(root, "apply-update"), "vehicles", store, batch)
            )
        pushes = self.count_ops
        outcomes = {k: after[k] - before_stream[k] for k in ("skips", "local_repairs", "refreshes")}
        offered = sum(outcomes.values())
        metrics = engine_counters(before_engine, after_engine)
        metrics.update(kernel_means(timed, rec))
        metrics.update(
            write_metrics(rec, fallbacks[:pushes], self.n["vehicles"] * MOVE_FRACTION)
        )
        maintain_by_op: dict[int, float] = {}
        for span in rec.named("maintain"):
            maintain_by_op[span["op"]] = maintain_by_op.get(span["op"], 0.0) + span["duration"]
        metrics.update(
            {
                "stream.subscribe_ms": 1e3 * statistics.median(state.subscribe_s),
                "stream.skip_ratio": outcomes["skips"] / offered,
                "stream.local_repair_ratio": outcomes["local_repairs"] / offered,
                "stream.refresh_ratio": outcomes["refreshes"] / offered,
                "stream.guard_violations_per_push": (
                    after["guard_violations"] - before_stream["guard_violations"]
                )
                / pushes,
                "stream.delta_rows_per_push": sum(delta_rows[:pushes]) / pushes,
                "stream.apply_span_ms": span_p50(rec, "apply-update", 1e3),
                "stream.maintain_span_ms": 1e3 * statistics.median(maintain_by_op.values()),
                "kernels.dispatches_per_op": dispatches_per_root(timed, rec, pushes),
                **probe_overhead(rec, plain),
            }
        )
        return metrics
