"""Shared pieces of the workloads: inputs, op → query mapping, and the traced
loop every query-serving workload uses."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.datagen import BerlinModConfig, berlinmod_snapshot, build_street_network
from repro.engine import SpatialEngine
from repro.geometry import Point, Rect
from repro.index import GridIndex
from repro.index.stats import IndexStats
from repro.obs import Observability
from repro.query import Dataset, KnnJoin, KnnSelect, Query, RangeSelect
from repro.storage.update import StoreChange, UpdateBatch
from repro.stream.delta import result_rows

from perf import oracle
from perf.harness import Workload, median_seconds
from perf.spans import Recorder, TimedKernels

#: The paper's 40 000 x 40 000 extent; every relation shares it (and so the
#: grid decomposition, which the unchained-join block marking relies on).
BOUNDS: Rect = BerlinModConfig().bounds


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
class Relations:
    """BerlinMOD-like relations over one street network, from one seed.

    The city (street network) is the same for every seed; the seed decides
    who drives where, and every op parameter drawn later.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.network = build_street_network(BOUNDS, seed=0)
        self.points: dict[str, list[Point]] = {}

    def add(self, name: str, n: int, payload: Callable[[Point], Any] | None = None) -> None:
        """Generate relation ``name`` (pids disjoint from every other relation)."""
        index = len(self.points)
        points = berlinmod_snapshot(
            n=n,
            seed=self.seed * 101 + index,
            start_pid=index * 10_000_000,
            network=self.network,
        )
        if payload is not None:
            points = [Point(p.x, p.y, p.pid, payload(p)) for p in points]
        self.points[name] = points

    def dataset(self, name: str) -> Dataset:
        """A fresh grid-indexed dataset over the relation's points."""
        return Dataset(name, self.points[name], index_kind="grid", bounds=BOUNDS)


class Focals:
    """Seeded focal points where the data is: a relation point plus jitter."""

    def __init__(self, points: Sequence[Point], rng: np.random.Generator) -> None:
        self._xs = np.array([p.x for p in points])
        self._ys = np.array([p.y for p in points])
        self._rng = rng

    def next(self, jitter: float = 150.0) -> Point:
        i = int(self._rng.integers(len(self._xs)))
        dx, dy = self._rng.normal(0.0, jitter, 2)
        return Point(
            float(np.clip(self._xs[i] + dx, BOUNDS.xmin, BOUNDS.xmax)),
            float(np.clip(self._ys[i] + dy, BOUNDS.ymin, BOUNDS.ymax)),
        )


def square(center: Point, half: float) -> Rect:
    """The window of half-width ``half`` around ``center``, clipped to the extent."""
    return Rect(
        max(BOUNDS.xmin, center.x - half),
        max(BOUNDS.ymin, center.y - half),
        min(BOUNDS.xmax, center.x + half),
        min(BOUNDS.ymax, center.y + half),
    )


# ----------------------------------------------------------------------
# Ops of the six query classes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueryOp:
    """One read op: the query to run and the args the oracle needs."""

    query: Query
    args: tuple


def query_for(kind: str, args: tuple) -> Query:
    """The :class:`Query` of one op (arg layout as in ``oracle.expected_rows``)."""
    if kind == "two-selects":
        relation, (f1, k1), (f2, k2) = args
        return Query(KnnSelect(relation, f1, k1), KnnSelect(relation, f2, k2))
    if kind == "knn-select":
        relation, focal, k = args
        return Query(KnnSelect(relation, focal, k))
    if kind == "range-and-knn-select":
        relation, focal, k, window = args
        return Query(KnnSelect(relation, focal, k), RangeSelect(relation, window))
    if kind in ("select-inner-of-join", "select-outer-of-join"):
        outer, inner, k_join, focal, k_select = args
        selected = inner if kind == "select-inner-of-join" else outer
        return Query(KnnJoin(outer, inner, k_join), KnnSelect(selected, focal, k_select))
    if kind == "range-inner-of-join":
        outer, inner, k_join, window = args
        return Query(KnnJoin(outer, inner, k_join), RangeSelect(inner, window))
    if kind == "chained-joins":
        a, b, c, k_ab, k_bc = args
        return Query(KnnJoin(a, b, k_ab), KnnJoin(b, c, k_bc))
    if kind == "unchained-joins":
        a, c, b, k_ab, k_cb = args
        return Query(KnnJoin(a, b, k_ab), KnnJoin(c, b, k_cb))
    raise ValueError(f"no query for op kind {kind!r}")


def cycle(pattern: Sequence[str], make: Callable[[str], Any]) -> Iterator[tuple[str, Any]]:
    """Endless op stream in a fixed kind pattern, so the class mix (and with
    it where the p95 falls) does not depend on how many ops a run completes."""
    while True:
        for kind in pattern:
            yield kind, make(kind)


# ----------------------------------------------------------------------
# Query-serving workloads over one SpatialEngine
# ----------------------------------------------------------------------
class QueryWorkload(Workload):
    """Read-only ops through ``SpatialEngine.run``; state is the engine."""

    #: Relation name -> size key in ``sizes``.
    relations: dict[str, str] = {}

    def generate(self) -> None:
        self.data = Relations(self.seed)
        for name, size_key in self.relations.items():
            self.data.add(name, self.n[size_key], self.payload(name))
        self.memo = oracle.Memo()

    def payload(self, relation: str) -> Callable[[Point], Any] | None:
        return None

    def setup(self) -> SpatialEngine:
        engine = SpatialEngine()
        for name in self.relations:
            engine.register(self.data.dataset(name))
        for kind, op in self.warm_ops():
            engine.run(op.query)
        return engine

    def warm_ops(self) -> list[tuple[str, QueryOp]]:
        """One op per plan shape: set-up ends with every plan cached."""
        raise NotImplementedError

    def execute(self, state: SpatialEngine, kind: str, args: QueryOp) -> Any:
        return state.run(args.query)

    def capture(self, state: SpatialEngine, kind: str, args: QueryOp, result: Any) -> Any:
        stores = {name: ds.store for name, ds in state.datasets.items()}
        return kind, args, result, stores

    def check(self, captured: Any) -> tuple[Any, Any]:
        kind, op, result, stores = captured
        return result_rows(result), self.expected(kind, op, stores)

    def expected(self, kind: str, op: QueryOp, stores: dict) -> tuple:
        return oracle.expected_rows(kind, op.args, stores, self.memo)

    # -- traced run -------------------------------------------------------
    def replay(
        self, rec: Recorder, engine: SpatialEngine, kind: str, op: QueryOp, result: Any, parent: dict
    ) -> None:
        """Re-execute the op's inner calls directly, as spans under ``parent``
        (the engine's ``execute`` span)."""
        raise NotImplementedError

    def trace(self, state: SpatialEngine, seconds: float) -> dict[str, float]:
        engine = state
        stream = self.ops(engine)
        plain = plain_slice(lambda _kind, op: engine.run(op.query), stream, self.count_ops)
        before = counted = engine.metrics()
        timed = TimedKernels()
        rec = self.recorder = Recorder(timed)
        resources: list[dict] = []
        rows: list[int] = []
        for done, kind, op in traced_ops(self, stream, seconds, timed):
            with rec.span(kind, "engine") as root:
                result = engine.run(op.query)
            obs_root = engine.traces(1)[-1].root
            rec.graft(obs_root, root)
            resources.append(obs_root.attributes.get("resources", {}))
            rows.append(len(result))
            if done == self.count_ops:
                counted = engine.metrics()
            self.replay(rec, engine, kind, op, result, rec.find(root, "execute"))
        del resources[self.count_ops :], rows[self.count_ops :]
        metrics = engine_counters(before, counted)
        metrics.update(kernel_means(timed, rec))
        metrics.update(probe_overhead(rec, plain))
        metrics["kernels.dispatches_per_op"] = _mean(r.get("kernel_dispatches", 0) for r in resources)
        metrics["engine.rows_scanned_per_op"] = _mean(r.get("rows_scanned", 0) for r in resources)
        metrics["engine.candidates_pruned_per_op"] = _mean(
            r.get("candidates_pruned", 0) for r in resources
        )
        metrics["query.result_rows_per_op"] = _mean(rows)
        metrics.update(self.engine_probes(engine))
        return metrics

    def obs_ratio(self, engine: SpatialEngine, ops: int) -> float:
        """Wall of an op slice under the default bundle / under
        ``Observability.disabled()`` (same stores, same ops, alternating)."""
        silent = SpatialEngine(obs=Observability.disabled())
        for relation in self.relations:
            silent.register(Dataset(relation, engine.dataset(relation).store, bounds=BOUNDS))
        stream = self.ops(engine)
        queries = [next(stream)[1].query for _ in range(ops)]
        for _kind, op in self.warm_ops():
            silent.run(op.query)
        # Whichever engine runs a query second finds the store's materialized
        # points warm, so the order alternates.
        walls = {engine: 0.0, silent: 0.0}
        for i, query in enumerate(queries):
            for target in (engine, silent) if i % 2 else (silent, engine):
                started = perf_counter()
                target.run(query)
                walls[target] += perf_counter() - started
        self._obs_ratio = walls[engine] / walls[silent]
        return self._obs_ratio

    def adjust_shares(self, shares: dict[str, float]) -> None:
        """Observability runs inside ``engine.run``'s own time; move the part
        of the engine share the enabled/disabled comparison measured to obs."""
        moved = min(max(0.0, 1.0 - 1.0 / self._obs_ratio), shares.get("engine", 0.0))
        shares["engine"] = shares.get("engine", 0.0) - moved
        shares["obs"] = moved

    def engine_probes(self, engine: SpatialEngine) -> dict[str, float]:
        """Direct timings every SpatialEngine workload can take on its own data."""
        name = max(self.relations, key=lambda r: len(self.data.points[r]))
        store = engine.dataset(name).store
        shapes = [op for _kind, op in self.warm_ops()]
        out = {
            "index.build_ms": 1e3 * median_seconds(lambda: Dataset(name, store, bounds=BOUNDS).index, 3),
            "index.stats_ms": 1e3
            * median_seconds(lambda: IndexStats.from_index(engine.dataset(name).index), 5),
            "engine.register_ms": 1e3
            * median_seconds(
                lambda: SpatialEngine().register(Dataset(name, store, bounds=BOUNDS)), 3
            ),
            "planner.plan_warm_us": 1e6
            * statistics.median(
                median_seconds(lambda: engine.plan(op.query), 50) for op in shapes
            ),
            "query.signature_us": 1e6
            * statistics.median(
                median_seconds(lambda: op.query.signature(engine.datasets), 50) for op in shapes
            ),
            "obs.snapshot_ms": 1e3 * median_seconds(engine.metrics_snapshot, 5),
            "engine.fixed_overhead_us": 1e6 * _fixed_overhead(),
        }
        # Cold planning: a fresh engine over the same stores, one miss per shape.
        cold = SpatialEngine()
        for relation in self.relations:
            cold.register(Dataset(relation, engine.dataset(relation).store, bounds=BOUNDS))
        out["planner.plan_cold_ms"] = 1e3 * statistics.median(
            median_seconds(lambda: cold.plan(op.query), 1) for op in shapes
        )
        return out


def _fixed_overhead() -> float:
    """``run`` of a k=1 select on a 16-point relation: the engine with
    (almost) nothing under it."""
    tiny = SpatialEngine()
    tiny.register(name="tiny", points=[(float(i % 4), float(i // 4)) for i in range(16)])
    query = Query(KnnSelect("tiny", Point(1.5, 1.5), 1))
    tiny.run(query)
    return median_seconds(lambda: tiny.run(query), 300)


# ----------------------------------------------------------------------
# Write ops: a batch of moves, replayed against scratch copies
# ----------------------------------------------------------------------
def moved_rows(store, batch: UpdateBatch) -> tuple[list[float], list[float]]:
    """Where the store holds the points ``batch`` moved (for the oracle)."""
    rows = store.rows_aligned(batch.move_pids)
    return store.xs[rows].tolist(), store.ys[rows].tolist()


def expected_move(batch: UpdateBatch) -> tuple:
    """What a move batch must leave behind: its size and target coordinates."""
    return len(batch.move_pids), batch.move_xs.tolist(), batch.move_ys.tolist()


def _scratch(relation: str, before) -> Dataset:
    """A dataset over the snapshot whose index has been through one repair,
    like the live one's (a freshly built index repairs about a third slower,
    which would make every replay over-cover the call it re-enacts)."""
    scratch = Dataset(relation, before, bounds=BOUNDS)
    scratch.index
    still = (int(before.pids[0]), float(before.xs[0]), float(before.ys[0]))
    scratch.apply_update(UpdateBatch(moves=[still]))
    return scratch


def replay_write(
    rec: Recorder,
    parent: dict,
    relation: str,
    before,
    batch: UpdateBatch,
    through_engine: bool = False,
) -> bool:
    """Re-enact a write's engine, storage and index work under ``parent``.

    ``before`` is the relation's store snapshot the real write started from
    (stores are immutable, so holding it is free).  Scratch datasets and
    indexes are built outside the spans.  With ``through_engine`` the chain
    starts at ``SpatialEngine.apply_update`` (cache invalidation, statistics)
    — for callers whose real write has no engine span of its own.  Returns
    whether the index declined the localized repair.
    """
    if through_engine:
        engine = SpatialEngine()
        engine.register(_scratch(relation, before))
        with rec.span("engine.apply_update", "engine", parent, replay=True) as parent:
            engine.apply_update(relation, batch)
    scratch = _scratch(relation, before)
    with rec.span("storage.apply_update", "storage", parent, replay=True) as applied:
        scratch.apply_update(batch)
    index = GridIndex(before, bounds=BOUNDS).repaired(before, StoreChange())
    rows = before.rows_aligned(batch.move_pids)
    known = rows >= 0
    moved = before.moved(rows[known], batch.move_xs[known], batch.move_ys[known])
    with rec.span("index.repaired", "index", applied, replay=True):
        repaired = index.repaired(moved, StoreChange(moved_rows=rows[known]))
    return repaired is None


def write_metrics(rec: Recorder, fallbacks: list[bool], rows_per_update: float) -> dict[str, float]:
    """The storage/index metrics every writing workload reports."""
    return {
        "storage.apply_update_ms": span_p50(rec, "storage.apply_update", 1e3),
        "storage.rows_per_update": rows_per_update,
        "index.repair_ms": span_p50(rec, "index.repaired", 1e3),
        "index.repair_fallback_ratio": _mean(fallbacks),
    }


# ----------------------------------------------------------------------
# Metric arithmetic over a recorder
# ----------------------------------------------------------------------
def _mean(values) -> float:
    values = list(values)
    return float(sum(values)) / len(values) if values else 0.0


def traced_ops(
    workload: Workload, stream, seconds: float, timed: TimedKernels
) -> Iterator[tuple[int, str, Any]]:
    """The traced slice: ``(ops so far, kind, args)`` with the timed kernel
    table installed, until ``seconds / 2`` have passed *and* the workload's
    ``count_ops`` ops — the ones its counts are taken over — were made."""
    timed.install()
    try:
        deadline = perf_counter() + seconds * 0.5
        done = 0
        while perf_counter() < deadline or done < workload.count_ops:
            done += 1
            yield (done, *next(stream))
    finally:
        timed.uninstall()


def plain_slice(execute, stream, ops: int) -> dict[str, list[float]]:
    """Untraced per-kind walls of the next ``ops`` ops (the tracing-overhead base)."""
    walls: dict[str, list[float]] = {}
    for _ in range(ops):
        kind, args = next(stream)
        started = perf_counter()
        execute(kind, args)
        walls.setdefault(kind, []).append(perf_counter() - started)
    return walls


def probe_overhead(rec: Recorder, plain: dict[str, list[float]]) -> dict[str, float]:
    """Traced wall / untraced wall, weighting each op kind as the traced
    slice saw it."""
    traced = untraced = 0.0
    for root in rec.roots():
        base = plain.get(root["name"])
        if base:
            traced += root["duration"]
            untraced += statistics.fmean(base)
    return {"obs.probe_overhead_ratio": traced / untraced if untraced else 0.0}


def kind_p50_ms(rec: Recorder, kind: str) -> float:
    """Median root-span duration of one op kind, in ms (0 if never run)."""
    walls = [s["duration"] for s in rec.roots() if s["name"] == kind]
    return 1e3 * statistics.median(walls) if walls else 0.0


def span_p50(rec: Recorder, name: str, scale: float) -> float:
    """Median duration of every span called ``name`` (0 if none)."""
    walls = [s["duration"] for s in rec.named(name)]
    return scale * statistics.median(walls) if walls else 0.0


def kernel_means(timed: TimedKernels, rec: Recorder) -> dict[str, float]:
    """Mean microseconds per dispatch of each kernel, over the calls made
    inside real ops (replays excluded)."""
    index, starts, cumulative = timed.columns()
    if not len(starts):
        return {}
    seconds = np.diff(cumulative)
    inside = np.zeros(len(starts), dtype=bool)
    for root in rec.roots():
        lo, hi = np.searchsorted(starts, (root["start"], root["end"]))
        inside[lo:hi] = True
    out = {}
    for i, name in enumerate(timed.names):
        mask = inside & (index == i)
        if mask.any():
            out[f"kernels.{name}_us"] = 1e6 * float(seconds[mask].mean())
    return out


def dispatches_per_root(timed: TimedKernels, rec: Recorder, ops: int) -> float:
    """Kernel dispatches inside the first ``ops`` real ops (replays excluded), per op."""
    _index, starts, _cumulative = timed.columns()
    roots = rec.roots()[:ops]
    inside = sum(
        int(np.searchsorted(starts, r["end"]) - np.searchsorted(starts, r["start"])) for r in roots
    )
    return inside / len(roots) if roots else 0.0


def engine_counters(before: dict, after: dict) -> dict[str, float]:
    """Planner counters of ``engine.metrics()`` over a slice of ops."""
    ops = after["queries_executed"] - before["queries_executed"]
    cache = {k: after["plan_cache"][k] - before["plan_cache"][k] for k in ("hits", "misses")}
    calibration = {
        k: after["calibration"][k] - before["calibration"][k]
        for k in ("demotions", "mispredictions")
    }
    lookups = cache["hits"] + cache["misses"]
    return {
        "planner.plan_cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "planner.demotions_per_1k_ops": 1e3 * calibration["demotions"] / ops if ops else 0.0,
        "planner.mispredictions_per_1k_ops": (
            1e3 * calibration["mispredictions"] / ops if ops else 0.0
        ),
    }
