"""The :class:`ShardedEngine`: plan once, fan out across shards, merge.

The sharded engine wraps a :class:`~repro.engine.session.SpatialEngine` for
everything PR 1 already amortizes — the signature-keyed plan cache, the
per-version statistics cache, EXPLAIN records — and replaces *execution*:
each registered relation is spatially partitioned into per-shard datasets
with their own indexes (:class:`~repro.shard.dataset.ShardedDataset`), and a
planned query fans out across the shards of its driving relation on a worker
pool (:class:`~repro.shard.pool.ShardWorkerPool`), with cross-shard kNN
semantics handled by border expansion and a global merge/re-rank
(:mod:`repro.shard.knn`, :mod:`repro.operators.merge`).

The inner engine never builds a monolithic index: it is constructed with
``eager_build=False`` and a ``stats_compute`` override that aggregates
per-shard statistics (:meth:`IndexStats.aggregate`), so the planner sees
relation-level statistics without the O(n) full-index walk.

Consistency model.  Mutations route to the owning shard and invalidate the
inner engine's caches; the worker pool is *refreshed*, not discarded: under
the shared-memory generation protocol (:mod:`repro.shard.shm`) the mutated
relation is published as a new segment generation and process workers attach
it zero-copy, so the pool — and the fork-inherited snapshot it amortizes —
survives the mutation (``shard_pool_reuses_total``).  Only when the host
cannot publish a segment (or the registration set itself changes) is the pool
discarded and re-forked (``shard_pool_respawns_total``).  Every dispatched
task carries the dataset versions its plan was derived against and
re-validates them at execution time; a
:class:`~repro.exceptions.StaleShardError` makes the engine resync, re-plan
and retry — a plan is never served against stale per-shard state, even when
the base dataset was mutated behind the engine's back.
"""

from __future__ import annotations

import itertools
import os
import threading
from time import perf_counter
from typing import Callable, Iterable, Mapping, Sequence

from repro import kernels
from repro.engine.executor import ReadWriteLock
from repro.engine.explain import Explain
from repro.engine.session import SpatialEngine
from repro.exceptions import StaleShardError, UnsupportedQueryError
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.index.stats import IndexStats
from repro.kernels import dispatch
from repro.obs import Observability
from repro.obs.events import Event
from repro.obs.flight import ResourceUsage, record_usage
from repro.obs.metrics import LATENCY_BUCKETS
from repro.obs.trace import Span, Trace
from repro.planner.optimizer import Optimizer
from repro.planner.plan import PhysicalPlan
from repro.query.dataset import Dataset, IndexKind
from repro.query.query import Query
from repro.query.results import QueryResult
from repro.shard.dataset import ShardedDataset
from repro.shard.executor import sharded_execute
from repro.shard.partitioner import ShardMap
from repro.shard.pool import ShardWorkerPool, available_cpus
from repro.storage.update import AppliedUpdate, UpdateBatch

__all__ = ["ShardedEngine"]

_TOKENS = itertools.count()


class ShardedEngine:
    """A sharded, data-parallel serving engine over spatial relations.

    Parameters
    ----------
    num_shards:
        Default shard count for registered relations.  ``None`` asks the
        optimizer to choose per relation from its size and the worker count
        (:meth:`Optimizer.choose_shard_count`).
    strategy:
        Default partitioning strategy: ``"sample"`` (population-balanced,
        right for clustered data) or ``"grid"`` (equal-area tiles).
    backend:
        Worker-pool backend — ``"auto"`` (default), ``"serial"``,
        ``"thread"`` or ``"process"``; see :mod:`repro.shard.pool`.
    max_workers:
        Worker-pool width (default: available CPU count, affinity-aware).
    optimizer / plan_cache_size:
        Forwarded to the wrapped :class:`SpatialEngine`.
    seed:
        Sampling seed for the ``"sample"`` partitioner.
    prefer_fanout:
        Force the coordinator's fan-out decision for top-level kNN/range
        selects: ``True`` always fans out over every shard, ``False``
        always answers coordinator-side via border expansion, ``None``
        (default) follows the pool's parallelism.  Pinning this makes the
        distributed trace shape identical across backends — the
        trace-stitching invariant tests rely on it.
    slow_query_threshold:
        When given, overrides the bundle's slow-query log latency threshold
        (seconds); queries at or above it are recorded in
        :meth:`slow_queries`.
    obs:
        The observability bundle (:class:`~repro.obs.Observability`),
        *shared* with the wrapped planning engine so coordinator counters,
        per-shard aggregates and the plan/statistics-cache instruments land
        in one registry.  A fresh per-engine bundle is created when omitted.
    """

    def __init__(
        self,
        num_shards: int | None = None,
        strategy: str = "sample",
        backend: str = "auto",
        max_workers: int | None = None,
        optimizer: Optimizer | None = None,
        plan_cache_size: int = 256,
        seed: int = 0,
        prefer_fanout: bool | None = None,
        slow_query_threshold: float | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.num_shards = num_shards
        self.strategy = strategy
        self.backend = backend
        self.max_workers = max_workers
        self.seed = seed
        self.prefer_fanout = prefer_fanout
        #: The observability bundle, shared with the wrapped engine.
        self.obs = obs if obs is not None else Observability(name="sharded-engine")
        if slow_query_threshold is not None:
            self.obs.slow.threshold_seconds = slow_query_threshold
        self._engine = SpatialEngine(
            optimizer=optimizer,
            plan_cache_size=plan_cache_size,
            eager_build=False,
            stats_compute=self._aggregate_stats,
            obs=self.obs,
        )
        self._sharded: dict[str, ShardedDataset] = {}
        self._rw = ReadWriteLock()
        self._pool: ShardWorkerPool | None = None
        self._pool_lock = threading.Lock()
        self._mutation_listeners: list[Callable[[str], None]] = []
        # Per-relation (rebuilds, repairs) totals over the shard datasets at
        # the last sample — diffed after every routed mutation / recovery so
        # shard-level index activity lands in metrics and events.
        self._index_activity: dict[str, tuple[int, int]] = {}
        registry = self.obs.registry
        self._queries = registry.counter("sharded_queries_total")
        self._batches = registry.counter("sharded_batches_total")
        self._tasks = registry.counter("sharded_tasks_total")
        self._stale = registry.counter("sharded_stale_retries_total")
        self._fanout_latency = registry.histogram(
            "sharded_fanout_latency_seconds", LATENCY_BUCKETS
        )
        self._pool_respawns = registry.counter("shard_pool_respawns_total")
        self._pool_reuses = registry.counter("shard_pool_reuses_total")
        registry.gauge(
            "sharded_pool_workers",
            fn=lambda: self._pool.max_workers if self._pool is not None else 0,
        )

    @property
    def queries_executed(self) -> int:
        """Queries executed (view over ``sharded_queries_total``)."""
        return int(self._queries.value)

    @property
    def batches_executed(self) -> int:
        """Batches executed via :meth:`run_many` (view over ``sharded_batches_total``)."""
        return int(self._batches.value)

    @property
    def tasks_dispatched(self) -> int:
        """Per-shard tasks fanned out (view over ``sharded_tasks_total``)."""
        return int(self._tasks.value)

    @property
    def stale_retries(self) -> int:
        """Executions retried after racing a mutation (view over
        ``sharded_stale_retries_total``)."""
        return int(self._stale.value)

    @property
    def pool_respawns(self) -> int:
        """Worker pools discarded and re-forked (view over
        ``shard_pool_respawns_total``)."""
        return int(self._pool_respawns.value)

    @property
    def pool_reuses(self) -> int:
        """Mutations absorbed by publishing a segment generation instead of
        respawning the pool (view over ``shard_pool_reuses_total``)."""
        return int(self._pool_reuses.value)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        dataset: Dataset | None = None,
        *,
        name: str | None = None,
        points: Iterable[Point | tuple[float, float]] | None = None,
        index_kind: IndexKind = "grid",
        bounds: Rect | None = None,
        num_shards: int | None = None,
        strategy: str | None = None,
        shard_map: ShardMap | None = None,
        **index_options: object,
    ) -> ShardedDataset:
        """Register a relation, splitting it into per-shard datasets.

        Accepts the same inputs as :meth:`SpatialEngine.register` plus the
        sharding controls.  Per-shard indexes are built eagerly and the
        aggregated statistics warmed before the method returns; the
        monolithic index of the base dataset is never built.
        """
        if dataset is None:
            if name is None or points is None:
                raise UnsupportedQueryError(
                    "register() needs a Dataset or both name= and points="
                )
            dataset = Dataset.from_points(
                name, points, index_kind=index_kind, bounds=bounds, **index_options
            )
        with self._rw.write():
            sharded = ShardedDataset(
                dataset,
                num_shards=self._resolve_shard_count(dataset, num_shards),
                strategy=strategy or self.strategy,
                shard_map=shard_map,
                seed=self.seed,
            )
            self._sharded[dataset.name] = sharded
            self._engine.register(dataset)
            self._engine.stats(dataset.name)  # warm the aggregated statistics
            # Baseline the shard-index activity counters *after* the initial
            # per-shard builds so registration itself is not reported as a
            # rebuild storm; later diffs are routed-mutation activity only.
            self._index_activity[dataset.name] = self._index_totals(dataset.name)
            self.obs.registry.gauge(
                "sharded_shards",
                fn=lambda name=dataset.name: (
                    self._sharded[name].num_shards if name in self._sharded else 0
                ),
                relation=dataset.name,
            )
            self._invalidate_pool()
        return sharded

    def _resolve_shard_count(self, dataset: Dataset, num_shards: int | None) -> int:
        if num_shards is not None:
            return num_shards
        if self.num_shards is not None:
            return self.num_shards
        n = len(dataset)
        size_only = IndexStats(
            num_points=n,
            num_blocks=1,
            num_nonempty_blocks=1,
            mean_points_per_nonempty_block=float(n),
            max_points_per_block=n,
            occupied_area_fraction=1.0,
            total_area=1.0,
        )
        # Cost the candidates against the pool's *effective* width, not the
        # shard count itself — otherwise every candidate looks fully
        # parallel and large relations over-shard far beyond the hardware.
        effective_workers = self.max_workers or min(32, available_cpus())
        return self._engine.optimizer.choose_shard_count(
            size_only, max_workers=effective_workers
        )

    def unregister(self, name: str) -> None:
        """Remove a relation, its shards and every cache entry touching it."""
        with self._rw.write():
            if name not in self._sharded:
                raise UnsupportedQueryError(f"no dataset registered as {name!r}")
            del self._sharded[name]
            self._index_activity.pop(name, None)
            self._engine.unregister(name)
            self._invalidate_pool()

    def sharded_dataset(self, name: str) -> ShardedDataset:
        """The sharded view of the relation called ``name``."""
        try:
            return self._sharded[name]
        except KeyError:
            raise UnsupportedQueryError(f"no dataset registered as {name!r}") from None

    @property
    def datasets(self) -> Mapping[str, ShardedDataset]:
        """Read-only view of the registered relations (name → sharded dataset)."""
        return dict(self._sharded)

    def __contains__(self, name: str) -> bool:
        return name in self._sharded

    def __len__(self) -> int:
        return len(self._sharded)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def _aggregate_stats(self, dataset: Dataset) -> IndexStats:
        """``stats_compute`` hook for the wrapped engine's statistics cache."""
        return self.sharded_dataset(dataset.name).aggregated_stats()

    def stats(self, name: str) -> IndexStats:
        """Cached relation-level statistics aggregated from the shards.

        Runs under the read lock: a statistics compute must never observe a
        half-mutated shard set (the write side holds mutations exclusive).
        """
        with self._rw.read():
            self._require(name)
            return self._engine.stats(name)

    def shard_stats(self, name: str) -> dict[int, IndexStats]:
        """Per-shard statistics of one relation (shard id → stats)."""
        with self._rw.read():
            return self.sharded_dataset(name).shard_stats()

    # ------------------------------------------------------------------
    # Incremental updates (routed to the owning shard)
    # ------------------------------------------------------------------
    def insert(self, name: str, points: Iterable[Point | tuple[float, float]]) -> int:
        """Insert points, rebuilding only the owning shards' indexes."""
        with self._rw.write():
            added = self.sharded_dataset(name).insert(points)
            if added:
                self._on_mutation(name)
        if added:
            self._notify_mutation(name)
        return added

    def remove(self, name: str, pids: Iterable[int]) -> int:
        """Remove points (by pid), rebuilding only the owning shards' indexes."""
        with self._rw.write():
            removed = self.sharded_dataset(name).remove(pids)
            if removed:
                self._on_mutation(name)
        if removed:
            self._notify_mutation(name)
        return removed

    def move(self, name: str, moves: Iterable[tuple[int, float, float]]) -> int:
        """Relocate points, routing each move to the shards it touches.

        Same-shard moves repair that shard's index in place; cross-shard
        moves transfer the point between the two shard datasets (see
        :meth:`ShardedDataset.move`).  Only the touched shards rebuild.
        """
        with self._rw.write():
            moved = self.sharded_dataset(name).move(moves)
            if moved:
                self._on_mutation(name)
        if moved:
            self._notify_mutation(name)
        return moved

    def apply_update(self, name: str, batch: UpdateBatch) -> AppliedUpdate:
        """Apply one insert/remove/move batch, routed to the owning shards.

        The streaming entry point: one write-lock acquisition and one cache
        invalidation for the whole batch.  Returns the effective mutation
        (see :meth:`ShardedDataset.apply_update`).
        """
        with self._rw.write():
            applied = self.sharded_dataset(name).apply_update(batch)
            if applied.size:
                self._on_mutation(name)
        if applied.size:
            self._notify_mutation(name)
        return applied

    def add_mutation_listener(self, listener: Callable[[str], None]) -> None:
        """Register a callback fired after every engine-routed mutation.

        Mirrors :meth:`SpatialEngine.add_mutation_listener`: the stream
        layer's subscription registry hooks in here so direct mutations mark
        the affected standing queries stale.  Listeners run outside the
        engine's locks.
        """
        self._mutation_listeners.append(listener)

    def remove_mutation_listener(self, listener: Callable[[str], None]) -> None:
        """Unregister a callback added with :meth:`add_mutation_listener`."""
        self._mutation_listeners.remove(listener)

    def _notify_mutation(self, name: str) -> None:
        for listener in tuple(self._mutation_listeners):
            listener(name)

    def _on_mutation(self, name: str) -> None:
        self._engine.invalidate(name)
        self._engine.stats(name)  # re-warm aggregated statistics
        self._record_index_activity(name)
        self._refresh_pool(name)

    def _index_totals(self, name: str) -> tuple[int, int]:
        """Current (rebuilds, repairs) summed over the relation's shards."""
        sharded = self._sharded.get(name)
        if sharded is None:
            return (0, 0)
        rebuilds = repairs = 0
        for _, dataset in sharded.populated():
            rebuilds += dataset.index_rebuilds
            repairs += dataset.index_repairs
        return (rebuilds, repairs)

    def _record_index_activity(self, name: str) -> None:
        """Diff shard-index counters since the last sample into metrics/events.

        Clamped to increases only: a shard emptied by removals drops out of
        the sum, which must not drive the cumulative counters backwards.
        """
        rebuilds, repairs = self._index_totals(name)
        prev_rebuilds, prev_repairs = self._index_activity.get(name, (0, 0))
        registry, events = self.obs.registry, self.obs.events
        if rebuilds > prev_rebuilds:
            registry.counter("index_rebuilds_total", relation=name).inc(
                rebuilds - prev_rebuilds
            )
            events.emit(
                "index_rebuild", relation=name, shards=rebuilds - prev_rebuilds
            )
        if repairs > prev_repairs:
            registry.counter("index_repairs_total", relation=name).inc(
                repairs - prev_repairs
            )
            events.emit("index_repair", relation=name, shards=repairs - prev_repairs)
        self._index_activity[name] = (rebuilds, repairs)

    # ------------------------------------------------------------------
    # Planning / EXPLAIN (delegated to the wrapped engine's caches)
    # ------------------------------------------------------------------
    def plan(self, query: Query) -> PhysicalPlan:
        """The (cached) physical plan sharded execution will interpret.

        Planning happens under the read lock (as in :meth:`run`): a cache
        miss computes aggregated statistics over the shard set, which a
        concurrent routed mutation must not be rebuilding mid-walk — the
        resulting entry would carry the post-mutation version stamp over
        mixed-state data.
        """
        self._resync_if_stale(query.relations())
        with self._rw.read():
            return self._engine.plan(query)

    def explain(self, query: Query) -> Explain:
        """The (cached) EXPLAIN record for ``query``."""
        self._resync_if_stale(query.relations())
        with self._rw.read():
            return self._engine.explain(query)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, query: Query) -> QueryResult:
        """Plan (cached) and execute ``query`` across the shards.

        Results contain exactly the rows the unsharded engine would return,
        in canonical order (kNN rows by ``(distance, pid)``, pair/triplet
        rows by pid keys).  On a version-check failure during execution the
        engine resyncs its shards, re-plans and retries once.

        With instrumentation enabled, every shard task executes under
        worker-side telemetry capture: the coordinator grafts the returned
        ``shard-task`` span subtrees under its ``shard-fan-out`` span,
        merges process-worker kernel-dispatch deltas into the hub registry
        and attaches a :class:`~repro.obs.flight.ResourceUsage` to the plan
        entry (and root span) — see ``docs/observability.md``.
        """
        tracer = self.obs.tracer
        capture = self.obs.enabled
        last_error: StaleShardError | None = None
        for attempt in range(2):
            self._resync_if_stale(query.relations())
            usage = ResourceUsage() if capture else None
            with tracer.span("query", sharded=True, attempt=attempt) as root:
                with self._rw.read():
                    self._require(*query.relations())
                    with tracer.span("plan"):
                        entry = self._engine.plan_entry(query)
                    plan = entry.plan
                    root.annotate(
                        signature=str(entry.signature),
                        query_class=plan.query_class,
                        strategy=plan.strategy,
                        kernel_backend=kernels.backend(),
                    )
                    pool = self._ensure_pool()
                    prefer = (
                        pool.parallel
                        if self.prefer_fanout is None
                        else self.prefer_fanout
                    )
                    try:
                        started = perf_counter()
                        kernel_before = dispatch.counter_values() if capture else None
                        with tracer.span("shard-fan-out", backend=pool.backend) as fan:
                            if capture:
                                runner = lambda tasks: self._run_stitched(  # noqa: E731
                                    pool, fan, usage, tasks
                                )
                            else:
                                runner = pool.run
                            result, ntasks = sharded_execute(
                                plan, query, self._sharded, runner, prefer
                            )
                            fan.annotate(tasks=ntasks)
                        wall = perf_counter() - started
                    except StaleShardError as error:
                        last_error = error
                if last_error is not None:
                    root.annotate(stale_retry=True)
                else:
                    # Feed the aggregated per-shard work counters back into
                    # the wrapped engine's calibration store (and
                    # misprediction check): the sharded executor's costs
                    # differ from the single-partition ones, and the plans
                    # it is served must converge to *its* observed reality,
                    # not the static constants'.
                    with tracer.span("calibrate"):
                        observed = self._engine.record_execution(entry, result, wall)
                    if observed is not None:
                        root.annotate(observed_cost=round(observed, 4))
                    if usage is not None:
                        # Worker deltas were merged during stitching, so the
                        # coordinator-side registry delta is the fleet total.
                        usage.wall_seconds = wall
                        usage.kernel_dispatches = int(
                            sum(
                                d["delta"]
                                for d in dispatch.counter_deltas(kernel_before)
                            )
                        )
                        root.annotate(resources=usage.to_dict())
            if last_error is not None:
                self._stale.inc()
                self.obs.events.emit(
                    "stale_shard_retry",
                    relations=",".join(sorted(query.relations())),
                    error=str(last_error),
                )
                self._recover()
                last_error = None
                continue
            if root.enabled:
                entry.last_trace = Trace(root)
            if usage is not None:
                entry.last_resources = usage
                record_usage(self.obs.registry, str(entry.signature), usage)
                slow = self.obs.slow
                if slow.would_record(wall):
                    slow.record(
                        signature=str(entry.signature),
                        query_class=plan.query_class,
                        strategy=plan.strategy,
                        wall_seconds=wall,
                        resources=usage,
                        explain=entry.explain_with_feedback().render(),
                        trace_summary=Trace(root).summary_lines(),
                    )
            self._queries.inc()
            self._tasks.inc(ntasks)
            self._fanout_latency.observe(wall)
            return result
        raise StaleShardError(
            "sharded execution kept racing dataset mutations; giving up after retry"
        )

    def _run_stitched(
        self,
        pool: ShardWorkerPool,
        fan: Span,
        usage: ResourceUsage,
        tasks: Sequence,
    ) -> list[object]:
        """Capture-enabled task runner: execute, then stitch worker telemetry.

        Each task's detached ``shard-task`` span (annotated ``shard=`` /
        ``worker_pid=`` plus its resource counters) is grafted under the
        open ``shard-fan-out`` span; kernel-dispatch deltas from *other*
        processes are merged into this process's hub-registered registry
        (serial/thread tasks already incremented it live — merging theirs
        would double-count).  Per-shard resource counters accumulate into
        the query's :class:`~repro.obs.flight.ResourceUsage`.
        """
        pairs = pool.run_captured(tasks)
        coordinator_pid = os.getpid()
        results: list[object] = []
        for result, telemetry in pairs:
            results.append(result)
            fan.graft(Span.from_dict(telemetry["span"]))
            if telemetry["worker_pid"] != coordinator_pid:
                dispatch.merge_counts(telemetry["counters"])
            resources = telemetry["resources"]
            usage.rows_scanned += resources["rows_scanned"]
            usage.candidates_pruned += resources["candidates_pruned"]
            usage.shm_bytes_attached += resources["shm_bytes_attached"]
            usage.shards_touched += 1
        return results

    def slow_queries(self, n: int | None = None) -> list[dict]:
        """Recent slow-query records, oldest first (see
        :class:`~repro.obs.flight.SlowQueryLog`)."""
        return self.obs.slow.records(n)

    def run_many(self, queries: Sequence[Query]) -> list[QueryResult]:
        """Execute a batch of queries, returning results in input order.

        Each query fans its shard tasks out on the shared worker pool; plans
        are cache lookups after the first occurrence of each shape.
        """
        results = [self.run(query) for query in queries]
        self._batches.inc()
        return results

    # ------------------------------------------------------------------
    # Consistency plumbing
    # ------------------------------------------------------------------
    def _require(self, *names: str) -> None:
        missing = sorted(n for n in names if n not in self._sharded)
        if missing:
            raise UnsupportedQueryError(
                f"datasets missing for relations: {', '.join(missing)}"
            )

    def _resync_if_stale(self, relations: Iterable[str]) -> None:
        """Repair shards whose base dataset was mutated out-of-band."""
        stale = [
            name
            for name in relations
            if name in self._sharded
            and self._sharded[name].version != self._sharded[name].synced_version
        ]
        if not stale:
            return
        with self._rw.write():
            for name in stale:
                if name in self._sharded and self._sharded[name].ensure_synced():
                    self._engine.invalidate(name)
                    self._refresh_pool(name)

    def _recover(self) -> None:
        """After a stale-version execution failure: resync everything."""
        with self._rw.write():
            for name, sharded in self._sharded.items():
                if sharded.ensure_synced():
                    self._engine.invalidate(name)
                    self._refresh_pool(name)
                self._record_index_activity(name)

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ShardWorkerPool:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ShardWorkerPool(
                    token=f"sharded-engine-{id(self)}-{next(_TOKENS)}",
                    datasets=dict(self._sharded),
                    backend=self.backend,
                    max_workers=self.max_workers,
                )
            return self._pool

    def _refresh_pool(self, name: str) -> None:
        """Absorb a mutation of relation ``name`` into the live pool.

        Under the segment protocol the mutated relation is published as a
        new shared-memory generation and the pool survives
        (``shard_pool_reuses_total``); when the pool cannot be patched — a
        process backend on a host where shm publish fails — it is discarded
        and the next query re-forks it (``shard_pool_respawns_total``).
        """
        with self._pool_lock:
            pool = self._pool
            if pool is None:
                return  # nothing live: the next query forks a fresh pool
            sharded = self._sharded.get(name)
            if sharded is not None and pool.refresh(sharded):
                self._pool_reuses.inc()
                return
            pool.close()
            self._pool = None
            self._pool_respawns.inc()

    def _invalidate_pool(self, count: bool = True) -> None:
        with self._pool_lock:
            if self._pool is not None:
                self._pool.close()
                self._pool = None
                if count:
                    self._pool_respawns.inc()

    def close(self) -> None:
        """Release the worker pool (idempotent; the engine stays usable)."""
        self._invalidate_pool(count=False)

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def metrics(self) -> dict[str, object]:
        """Cache counters of the wrapped engine plus shard/pool counters."""
        inner = self._engine.metrics()
        pool = self._pool
        inner.update(
            {
                "queries_executed": self.queries_executed,
                "batches_executed": self.batches_executed,
                "tasks_dispatched": self.tasks_dispatched,
                "stale_retries": self.stale_retries,
                "pool_respawns": self.pool_respawns,
                "pool_reuses": self.pool_reuses,
                "kernel_backend": kernels.backend(),
                "shards": {
                    name: {
                        "num_shards": sharded.num_shards,
                        "populated": sum(1 for _ in sharded.populated()),
                        "balance": sharded.balance(),
                    }
                    for name, sharded in self._sharded.items()
                },
                "pool": {
                    "backend": pool.backend if pool is not None else None,
                    "max_workers": pool.max_workers if pool is not None else None,
                    "segments": pool.segments_enabled if pool is not None else None,
                },
            }
        )
        return inner

    def metrics_snapshot(self) -> dict[str, object]:
        """JSON-able snapshot of the shared registry (coordinator + inner engine)."""
        return self.obs.snapshot()

    def prometheus_metrics(self) -> str:
        """Prometheus text-format exposition of the shared registry."""
        return self.obs.prometheus()

    def traces(self, n: int | None = None) -> tuple[Trace, ...]:
        """The most recent completed execution traces, oldest first."""
        return self.obs.tracer.recent(n)

    def events(self, kind: str | None = None, n: int | None = None) -> tuple[Event, ...]:
        """Recent structured events (stale-shard retries, demotions, ...)."""
        return self.obs.events.events(kind, n)

    @property
    def engine(self) -> SpatialEngine:
        """The wrapped planning engine (exposed for tests and monitoring)."""
        return self._engine

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedEngine(datasets={sorted(self._sharded)}, "
            f"backend={self.backend!r}, queries={self.queries_executed})"
        )
