"""``durable_ingest``: crash recovery, then fsync-per-batch ingest."""

from __future__ import annotations

import multiprocessing
import os
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator

import numpy as np

from repro.datagen import BerlinModTickStream
from repro.durable import (
    DurableEngine,
    WriteAheadLog,
    decode_batch,
    encode_batch,
    load_segment,
    write_segment,
)
from repro.durable.engine import DEFAULT_CHECKPOINT_INTERVAL
from repro.engine import SpatialEngine
from repro.geometry import Point
from repro.query import Dataset
from repro.storage import UpdateBatch
from repro.storage.pointstore import PointStore
from repro.stream.delta import result_rows

from perf import oracle
from perf.harness import OUT_DIR, Workload, median_seconds
from perf.spans import Recorder, TimedKernels
from perf.workloads._common import (
    BOUNDS,
    QueryOp,
    Relations,
    dispatches_per_root,
    engine_counters,
    expected_move,
    kernel_means,
    moved_rows,
    plain_slice,
    probe_overhead,
    query_for,
    replay_write,
    span_p50,
    traced_ops,
    write_metrics,
)

MOVE_FRACTION = 0.01
#: One read-your-writes select per this many ops.
READ_EVERY = 50
#: Batches the crashed process acknowledged after its last checkpoint.
UNCHECKPOINTED = 200


def _crash(root: str, xs, ys, pids, seed: int, batches: int, expected: str) -> None:
    """Child process: create the root, acknowledge ``batches`` updates, save
    what was acknowledged, and die without closing anything."""
    store = PointStore(xs, ys, pids)
    engine = SpatialEngine()
    engine.register(Dataset("vehicles", store, bounds=BOUNDS))
    durable = DurableEngine.create(Path(root), engine)
    ticks = BerlinModTickStream(
        list(store.iter_points()), bounds=BOUNDS, move_fraction=MOVE_FRACTION, seed=seed
    )
    for _ in range(batches):
        durable.apply_update("vehicles", ticks.tick())
    acknowledged = engine.dataset("vehicles").store
    np.savez(expected, xs=acknowledged.xs, ys=acknowledged.ys, pids=acknowledged.pids)
    os._exit(0)


@dataclass
class DurableState:
    durable: DurableEngine
    root: Path


class DurableIngest(Workload):
    name = "durable_ingest"
    why = (
        "400-move batches, WAL append + fsync each, default checkpoints, a read-your-writes select "
        "per 50 ops; set-up is crash recovery: the stream_ticks write path plus the price of durability"
    )
    sizes = {"vehicles": 40_000}
    smoke_sizes = {"vehicles": 3_000}
    warmup_ops = 30
    pattern_len = READ_EVERY
    count_ops = 500

    def generate(self) -> None:
        """Inputs, and the crashed root every set-up recovers a copy of."""
        self.data = Relations(self.seed)
        self.data.add("vehicles", self.n["vehicles"])
        self.work = OUT_DIR / f"durable-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.crashed = self.work / "crashed"
        self._copies = 0
        store = PointStore.from_points(self.data.points["vehicles"])
        expected = self.work / "acknowledged.npz"
        child = multiprocessing.get_context("spawn").Process(
            target=_crash,
            args=(
                str(self.crashed), store.xs, store.ys, store.pids,
                self.seed, DEFAULT_CHECKPOINT_INTERVAL + UNCHECKPOINTED, str(expected),
            ),
        )
        child.start()
        child.join(timeout=120)
        if child.exitcode is None:  # hung: stop it and wait before reporting
            child.kill()
            child.join()
        if child.exitcode != 0:
            raise RuntimeError(f"crash child exited with {child.exitcode}")
        with np.load(expected) as columns:
            self.acknowledged = PointStore(columns["xs"], columns["ys"], columns["pids"])

    def prepare(self) -> None:
        self._copies += 1
        self._next_root = self.work / f"root-{self._copies}"
        shutil.copytree(self.crashed, self._next_root)

    def setup(self) -> DurableState:
        """The timed set-up *is* crash recovery."""
        return DurableState(DurableEngine.open(self._next_root), self._next_root)

    def teardown(self, state: DurableState) -> None:
        state.durable.close()
        shutil.rmtree(state.root, ignore_errors=True)

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def ops(self, state: Any) -> Iterator[tuple[str, Any]]:
        ticks = BerlinModTickStream(
            self.data.points["vehicles"], bounds=BOUNDS, move_fraction=MOVE_FRACTION, seed=self.seed + 1
        )
        batch = None
        count = 0
        while True:
            count += 1
            if count % READ_EVERY == 0 and batch is not None:
                # Read your writes: the point the last batch moved first must
                # be its own nearest neighbour.
                focal = Point(float(batch.move_xs[0]), float(batch.move_ys[0]))
                args = ("vehicles", focal, 8)
                yield "knn-select", QueryOp(query_for("knn-select", args), args)
            else:
                batch = ticks.tick()
                yield "push", batch

    def execute(self, state: DurableState, kind: str, args: Any) -> Any:
        if kind == "push":
            return state.durable.apply_update("vehicles", args)
        return state.durable.run(args.query)

    def capture(self, state: DurableState, kind: str, args: Any, result: Any) -> Any:
        store = state.durable.dataset("vehicles").store
        return kind, args, result, moved_rows(store, args) if kind == "push" else store

    def check(self, captured: Any) -> tuple[Any, Any]:
        kind, args, result, store = captured
        if kind == "push":
            return (result.size, *store), expected_move(args)
        return result_rows(result), oracle.expected_rows(kind, args.args, {"vehicles": store})

    def finish(self, state: DurableState) -> list[tuple[Any, Any]]:
        """Recovery surfaced every acknowledged batch; a reopen after the run
        surfaces every batch of the run."""
        recovered = DurableEngine.open(self._fresh_copy())
        try:
            pairs = [(oracle.stores_equal(recovered.dataset("vehicles").store, self.acknowledged), True)]
        finally:
            root = recovered.root
            recovered.close()
            shutil.rmtree(root)
        before = state.durable.dataset("vehicles").store
        state.durable.close()
        state.durable = DurableEngine.open(state.root)
        pairs.append((oracle.stores_equal(state.durable.dataset("vehicles").store, before), True))
        return pairs

    def _fresh_copy(self) -> Path:
        self.prepare()
        return self._next_root

    # -- traced run -------------------------------------------------------
    def trace(self, state: DurableState, seconds: float) -> dict[str, float]:
        durable = state.durable
        ops = self.ops(state)
        plain = plain_slice(lambda kind, args: self.execute(state, kind, args), ops, self.count_ops)
        before = counted = durable.metrics()
        timed = TimedKernels()
        rec = self.recorder = Recorder(timed)
        fallbacks: list[bool] = []
        wal_bytes: list[int] = []
        with WriteAheadLog.create(self.work / "scratch.log") as scratch_wal:
            for done, kind, args in traced_ops(self, ops, seconds, timed):
                store = durable.dataset("vehicles").store
                with rec.span(kind, "durable") as root:
                    self.execute(state, kind, args)
                if done == self.count_ops:
                    counted = durable.metrics()
                if kind != "push":
                    rec.graft(durable.traces(1)[-1].root, root)
                    continue
                batch = args
                fallbacks.append(
                    replay_write(rec, root, "vehicles", store, args, through_engine=True)
                )
                with rec.span("durable.wal_append", "durable", root, replay=True) as appended:
                    wal_bytes.append(scratch_wal.append(args))
                with rec.span("durable.encode", "durable", appended, replay=True):
                    encode_batch(args)
        metrics = engine_counters(before, counted)
        metrics.update(kernel_means(timed, rec))
        pushes_counted = self.count_ops - self.count_ops // READ_EVERY
        metrics.update(
            write_metrics(rec, fallbacks[:pushes_counted], self.n["vehicles"] * MOVE_FRACTION)
        )
        pushes = [r["duration"] for r in rec.roots() if r["name"] == "push"]
        metrics.update(
            {
                "kernels.dispatches_per_op": dispatches_per_root(timed, rec, self.count_ops),
                "durable.wal_append_ms": span_p50(rec, "durable.wal_append", 1e3),
                "durable.encode_us": span_p50(rec, "durable.encode", 1e6),
                "durable.push_minus_apply_ms": 1e3 * statistics.median(pushes)
                - span_p50(rec, "engine.apply_update", 1e3),
                "durable.wal_bytes_per_update": statistics.fmean(wal_bytes),
                **probe_overhead(rec, plain),
            }
        )
        metrics.update(self._probes(state, batch))
        return metrics

    def _probes(self, state: DurableState, batch: UpdateBatch) -> dict[str, float]:
        """Direct calls into the durable layer's public functions."""
        durable = state.durable
        store = durable.dataset("vehicles").store
        payload = encode_batch(batch)
        segment = self.work / "probe.seg"
        out = {
            "durable.decode_us": 1e6 * median_seconds(lambda: decode_batch(payload), 20),
            "durable.write_segment_ms": 1e3 * median_seconds(lambda: write_segment(segment, store), 3),
            "durable.load_segment_ms": 1e3 * median_seconds(lambda: load_segment(segment), 5),
            "durable.checkpoint_ms": 1e3 * median_seconds(lambda: durable.checkpoint("vehicles"), 3),
        }
        # Recovery of the crashed root minus its segment load, per WAL record.
        root = self._fresh_copy()
        started = perf_counter()
        recovered = DurableEngine.open(root)
        opened = perf_counter() - started
        replayed = recovered.last_recovery["vehicles"].replayed_batches
        recovered.close()
        shutil.rmtree(root)
        out["durable.replay_ms_per_batch"] = (
            1e3 * max(0.0, opened - out["durable.load_segment_ms"] / 1e3) / max(1, replayed)
        )
        # Bytes on disk per 24-byte live row, right after a checkpoint.
        on_disk = sum(p.stat().st_size for p in (state.root / "vehicles").iterdir())
        out["durable.write_amp"] = on_disk / (24.0 * len(store))
        return out
