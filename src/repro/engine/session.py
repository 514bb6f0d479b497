"""The long-lived :class:`SpatialEngine`: register once, query many times.

``Query.run`` is a one-shot API: every call re-derives the physical strategy
and recomputes the index statistics behind it.  The engine amortizes both
across the lifetime of a serving process:

* **Datasets** are registered once by name; their indexes are built eagerly at
  registration so no query thread ever races a lazy index build.
* **Statistics** (`IndexStats`) are cached per dataset version in a
  :class:`~repro.engine.stats_cache.StatsCache`.
* **Plans** are cached in an LRU :class:`~repro.engine.plan_cache.PlanCache`
  keyed on the canonical query signature; a cache hit executes with zero
  statistics computations and zero strategy re-derivations.
* **Batches** run on a thread pool via :meth:`run_many`; chained-join queries
  in a batch share a B→C neighborhood cache.
* **Mutations** (:meth:`insert` / :meth:`remove`) maintain the index and
  invalidate exactly the cache entries the mutated relation could stale.

Typical usage::

    engine = SpatialEngine()
    engine.register(name="cafes", points=cafe_points)
    engine.register(name="offices", points=office_points)
    result = engine.run(Query(KnnSelect(relation="cafes", focal=home, k=5)))
    results = engine.run_many(queries)          # concurrent batch
    print(engine.explain(queries[0]).render())  # cached EXPLAIN
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Callable, Iterable, Mapping, Sequence

from repro import kernels
from repro.engine.executor import ReadWriteLock, SharedNeighborhoodCaches, run_batch
from repro.kernels import dispatch
from repro.engine.explain import Explain
from repro.engine.plan_cache import CachedPlan, PlanCache
from repro.engine.stats_cache import StatsCache
from repro.exceptions import InvalidParameterError, UnsupportedQueryError
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.index.stats import IndexStats
from repro.obs import Observability
from repro.obs.events import Event
from repro.obs.flight import ResourceUsage, record_usage
from repro.obs.metrics import LATENCY_BUCKETS
from repro.obs.trace import Trace
from repro.planner.calibrate import CalibrationStore, Observation, observed_cost
from repro.planner.optimizer import Optimizer
from repro.planner.plan import PhysicalPlan
from repro.query.dataset import Dataset, IndexKind
from repro.query.predicates import KnnJoin
from repro.query.query import Query
from repro.query.results import QueryResult
from repro.storage.update import AppliedUpdate, UpdateBatch

__all__ = ["SpatialEngine"]


class SpatialEngine:
    """A registry of named datasets plus plan/statistics caches.

    Parameters
    ----------
    optimizer:
        The optimizer shared by every query the engine plans.  Queries run
        through the engine use this optimizer (their own ``optimizer``
        attribute only matters for standalone ``Query.run`` calls), so one
        configuration governs the whole plan cache.
    plan_cache_size:
        Maximum number of cached plans (LRU eviction beyond it).
    max_workers:
        Default thread-pool width for :meth:`run_many`.
    eager_build:
        Build each dataset's index (and warm its statistics) at registration
        time (the default).  The sharded engine registers its base datasets
        with ``eager_build=False`` because it executes against per-shard
        indexes and must not pay for — or hold memory for — the monolithic
        index.
    stats_compute:
        Optional override for how :class:`IndexStats` are produced on a
        statistics-cache miss (see :class:`StatsCache`).
    calibration:
        The engine's observation store
        (:class:`~repro.planner.calibrate.CalibrationStore`); a default one
        is created when omitted.  Every executed plan records its observed
        abstract cost here, and planning consults the warm profiles — the
        feedback loop described in ``docs/planner.md``.
    demotion_factor:
        Misprediction tolerance: when a plan's observed cost exceeds its
        estimate by more than this factor, the plan is demoted (evicted via
        :meth:`PlanCache.reject`) and the next execution re-plans against
        the freshly recorded observations.  ``float("inf")`` disables
        demotion (the calibration store still fills, and EXPLAIN still
        reports estimated-vs-observed).
    obs:
        The engine's observability bundle
        (:class:`~repro.obs.Observability`): metrics registry, span tracer
        and structured event log.  A fresh per-engine bundle is created when
        omitted (and auto-registered with the process-global hub); pass
        :meth:`Observability.disabled` for a no-op bundle, or share one
        bundle between cooperating engines (the sharded/stream wrappers do).
    """

    def __init__(
        self,
        optimizer: Optimizer | None = None,
        plan_cache_size: int = 256,
        max_workers: int | None = None,
        eager_build: bool = True,
        stats_compute: Callable[[Dataset], IndexStats] | None = None,
        calibration: CalibrationStore | None = None,
        demotion_factor: float = 3.0,
        obs: Observability | None = None,
    ) -> None:
        if demotion_factor <= 1.0:
            raise InvalidParameterError("demotion_factor must exceed 1.0")
        self.optimizer = optimizer or Optimizer()
        self.max_workers = max_workers
        self.eager_build = eager_build
        # Explicit None check: an empty store is falsy (len() == 0), and
        # `or` would silently replace a caller-supplied store.
        self.calibration = calibration if calibration is not None else CalibrationStore()
        self.demotion_factor = demotion_factor
        #: The observability bundle (registry + tracer + event log).
        self.obs = obs if obs is not None else Observability(name="engine")
        registry = self.obs.registry
        self._datasets: dict[str, Dataset] = {}
        self._stats_cache = StatsCache(compute=stats_compute, registry=registry)
        self._plan_cache = PlanCache(plan_cache_size, registry=registry)
        self._chained_caches = SharedNeighborhoodCaches()
        # Queries run under the read side, mutations under the write side, so
        # an insert/remove never swaps an index under an in-flight query.
        self._rw = ReadWriteLock()
        # Serializes per-entry feedback (EWMA + misprediction counters) fed
        # concurrently by run_many worker threads.
        self._feedback_lock = threading.Lock()
        self._mutation_listeners: list[Callable[[str], None]] = []
        self._queries = registry.counter("engine_queries_total")
        self._batches = registry.counter("engine_batches_total")
        self._mispredictions = registry.counter("engine_mispredictions_total")
        self._demotions = registry.counter("engine_demotions_total")
        self._calibration_observations = registry.counter(
            "engine_calibration_observations_total"
        )
        self._query_latency = registry.histogram(
            "engine_query_latency_seconds", LATENCY_BUCKETS
        )
        registry.gauge("engine_datasets", fn=self._datasets.__len__)

    @property
    def queries_executed(self) -> int:
        """Queries executed (view over ``engine_queries_total``)."""
        return int(self._queries.value)

    @property
    def batches_executed(self) -> int:
        """Batches executed via :meth:`run_many` (view over ``engine_batches_total``)."""
        return int(self._batches.value)

    @property
    def mispredictions(self) -> int:
        """Executions whose observed cost exceeded the estimate by more than
        ``demotion_factor`` (view over ``engine_mispredictions_total``)."""
        return int(self._mispredictions.value)

    @property
    def demotions(self) -> int:
        """Mispredicted plans actually evicted for re-planning (view over
        ``engine_demotions_total``)."""
        return int(self._demotions.value)

    # ------------------------------------------------------------------
    # Dataset registry
    # ------------------------------------------------------------------
    def register(
        self,
        dataset: Dataset | None = None,
        *,
        name: str | None = None,
        points: Iterable[Point | tuple[float, float]] | None = None,
        index_kind: IndexKind = "grid",
        bounds: Rect | None = None,
        **index_options: object,
    ) -> Dataset:
        """Register a relation, replacing any previous one of the same name.

        Either pass a ready-made :class:`Dataset`, or ``name=`` and
        ``points=`` (plus index options) to build one.  The index is built
        and the statistics cache warmed before the method returns, so the
        first query pays no hidden construction cost and concurrent readers
        never trigger a lazy build.
        """
        if dataset is None:
            if name is None or points is None:
                raise InvalidParameterError(
                    "register() needs a Dataset or both name= and points="
                )
            dataset = Dataset.from_points(
                name, points, index_kind=index_kind, bounds=bounds, **index_options
            )
        elif name is not None and name != dataset.name:
            raise InvalidParameterError(
                f"dataset is named {dataset.name!r} but name={name!r} was given"
            )
        with self._rw.write():
            if dataset.name in self._datasets:
                self._datasets[dataset.name].set_index_observer(None)
                self._invalidate(dataset.name)
            self._datasets[dataset.name] = dataset
            self._attach_index_observer(dataset)
            if self.eager_build:
                dataset.index  # build eagerly
                self._stats_cache.get(dataset)  # warm the statistics cache
        return dataset

    def unregister(self, name: str) -> None:
        """Remove a relation and every cache entry that touches it."""
        with self._rw.write():
            if name not in self._datasets:
                raise UnsupportedQueryError(f"no dataset registered as {name!r}")
            self._invalidate(name)
            self._datasets[name].set_index_observer(None)
            del self._datasets[name]

    def _attach_index_observer(self, dataset: Dataset) -> None:
        """Mirror the dataset's index activity into metrics and events.

        The observer closure captures this engine's instruments; it is
        dropped on :meth:`unregister` / re-registration (and excluded from
        pickling by :meth:`Dataset.__getstate__`, so fork/process shard
        pools never carry it across).
        """
        name = dataset.name
        rebuilds = self.obs.registry.counter("index_rebuilds_total", relation=name)
        repairs = self.obs.registry.counter("index_repairs_total", relation=name)
        events = self.obs.events

        def observer(kind: str) -> None:
            if kind == "repair":
                repairs.inc()
                events.emit("index_repair", relation=name)
            else:
                rebuilds.inc()
                events.emit("index_rebuild", relation=name)

        dataset.set_index_observer(observer)

    def dataset(self, name: str) -> Dataset:
        """The registered dataset called ``name``."""
        try:
            return self._datasets[name]
        except KeyError:
            raise UnsupportedQueryError(f"no dataset registered as {name!r}") from None

    @property
    def datasets(self) -> Mapping[str, Dataset]:
        """Read-only view of the registered relations (name → dataset)."""
        return dict(self._datasets)

    def __contains__(self, name: str) -> bool:
        return name in self._datasets

    def __len__(self) -> int:
        return len(self._datasets)

    # ------------------------------------------------------------------
    # Incremental updates
    # ------------------------------------------------------------------
    def insert(self, name: str, points: Iterable[Point | tuple[float, float]]) -> int:
        """Add points to a registered relation; maintains index and caches."""
        with self._rw.write():
            dataset = self.dataset(name)
            added = dataset.insert(points)
            if added:
                self._refresh(dataset)
        if added:
            self._notify_mutation(name)
        return added

    def remove(self, name: str, pids: Iterable[int]) -> int:
        """Remove points (by pid) from a registered relation."""
        with self._rw.write():
            dataset = self.dataset(name)
            removed = dataset.remove(pids)
            if removed:
                self._refresh(dataset)
        if removed:
            self._notify_mutation(name)
        return removed

    def move(self, name: str, moves: Iterable[tuple[int, float, float]]) -> int:
        """Relocate points of a registered relation; returns the number moved.

        ``moves`` are ``(pid, new_x, new_y)`` triples.  Like every other
        engine-routed mutation this maintains the index (via the localized
        repair fast path for small batches) and invalidates exactly the cache
        entries the relation could stale.
        """
        with self._rw.write():
            dataset = self.dataset(name)
            moved = dataset.move(moves)
            if moved:
                self._refresh(dataset)
        if moved:
            self._notify_mutation(name)
        return moved

    def apply_update(self, name: str, batch: UpdateBatch) -> AppliedUpdate:
        """Apply one insert/remove/move batch to a registered relation.

        The batched entry point of the streaming layer: one write-lock
        acquisition, one dataset version bump and one cache invalidation for
        the whole batch.  Returns the effective mutation (see
        :meth:`Dataset.apply_update`).
        """
        with self._rw.write():
            dataset = self.dataset(name)
            applied = dataset.apply_update(batch)
            if applied.size:
                self._refresh(dataset)
        if applied.size:
            self._notify_mutation(name)
        return applied

    def _refresh(self, dataset: Dataset) -> None:
        """After a mutation: drop stale cache entries, rebuild index + stats."""
        self._invalidate(dataset.name)
        if self.eager_build:
            dataset.index  # rebuild eagerly (keeps concurrent reads race-free)
            self._stats_cache.get(dataset)

    def add_mutation_listener(self, listener: Callable[[str], None]) -> None:
        """Register a callback fired after every engine-routed mutation.

        The listener receives the mutated relation's name, *outside* the
        engine's write lock (so it may issue queries).  This is the targeted
        invalidation hook the stream layer uses: a subscription registry
        listens here so that mutations performed directly through the engine
        — bypassing :meth:`repro.stream.StreamEngine.push` — mark the
        affected standing queries stale instead of silently serving results
        computed against dropped data.
        """
        self._mutation_listeners.append(listener)

    def remove_mutation_listener(self, listener: Callable[[str], None]) -> None:
        """Unregister a callback added with :meth:`add_mutation_listener`."""
        self._mutation_listeners.remove(listener)

    def _notify_mutation(self, name: str) -> None:
        for listener in tuple(self._mutation_listeners):
            listener(name)

    def invalidate(self, name: str) -> None:
        """Drop every cache entry touching relation ``name``.

        Queries served through :meth:`run` never need this — engine-routed
        mutations invalidate automatically.  It exists for owners that mutate
        a registered dataset out-of-band (e.g. the sharded engine, which
        routes mutations to per-shard datasets) and then need the plan,
        statistics and neighborhood caches dropped under the write lock.
        """
        with self._rw.write():
            self._invalidate(name)

    def _invalidate(self, name: str) -> None:
        self._stats_cache.invalidate(name)
        self._plan_cache.invalidate_relation(name)
        self._chained_caches.invalidate_relation(name)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self, name: str) -> IndexStats:
        """Cached block statistics of a registered relation."""
        with self._rw.read():
            return self._stats_cache.get(self.dataset(name))

    def _stats_provider(self, dataset: Dataset) -> IndexStats:
        return self._stats_cache.get(dataset)

    # ------------------------------------------------------------------
    # Planning / EXPLAIN
    # ------------------------------------------------------------------
    def plan(self, query: Query) -> PhysicalPlan:
        """The (cached) physical plan the engine would execute for ``query``."""
        with self._rw.read():
            return self._cached_plan(query).plan

    def explain(self, query: Query) -> Explain:
        """The (cached) EXPLAIN record for ``query``.

        Once the plan has executed at least once, the record carries the
        execution feedback — ``estimated_total`` vs the EWMA
        ``observed_total`` (and the ``cost feedback`` block in
        :meth:`Explain.render`).
        """
        with self._rw.read():
            return self._cached_plan(query).explain_with_feedback()

    def _cached_plan(self, query: Query) -> CachedPlan:
        signature = query.signature(self._datasets)
        entry = self._plan_cache.get(signature)
        if entry is not None and entry.versions == self._versions_of(entry.relations):
            return entry
        if entry is not None:
            # The entry was planned against a different dataset version: the
            # dataset was mutated without going through insert()/remove()
            # (which would have evicted it).  Never execute a plan derived
            # from stale statistics — drop everything the relation touched.
            self._plan_cache.reject(entry)
            self.obs.events.emit(
                "stale_plan_rejected",
                signature=str(signature),
                relations=",".join(sorted(entry.relations)),
            )
            for name in sorted(entry.relations):
                self._invalidate(name)
        # Stamp the versions BEFORE planning: an out-of-band mutation that
        # lands mid-planning then leaves a pre-mutation stamp on a (possibly
        # mixed) plan, which the next lookup rejects — fail-safe.  Stamping
        # after planning would bless stale statistics with a current stamp.
        versions = self._versions_of(query.relations())
        # Plan with this engine's optimizer, cached statistics and the
        # calibration store's observed profiles.
        planner = Query(
            *query.predicates,
            strategy=query.strategy,
            optimizer=self.optimizer,
            tree=query.tree,
        )
        plan = planner.plan(
            self._datasets,
            stats_provider=self._stats_provider,
            calibration=self.calibration,
        )
        if plan.query_class == "algebra":
            # Surface the rewrite outcome once per plan derivation (cache
            # hits skip straight past this, so the event stream mirrors the
            # optimizer's actual work).
            trail = plan.decisions.get("rule_trail", ())
            self.obs.events.emit(
                "algebra_rewrite",
                signature=str(signature),
                rules=",".join(trail) if trail else "",
                fired=len(trail),
            )
        entry = CachedPlan(
            signature=signature,
            plan=plan,
            explain=Explain.from_plan(plan, query.relations()),
            relations=query.relations(),
            versions=versions,
            estimated_total=plan.estimates.get(plan.strategy),
            calibration_key=Query.calibration_key_of(signature),
        )
        self._plan_cache.put(entry)
        return entry

    def _versions_of(self, relations: Iterable[str]) -> tuple[tuple[str, int], ...]:
        """Current ``(name, version)`` stamps of the given relations, sorted."""
        return tuple(
            (name, self._datasets[name].version)
            for name in sorted(relations)
            if name in self._datasets
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, query: Query) -> QueryResult:
        """Execute ``query`` against the registered relations.

        The first execution of a query shape derives and caches its plan;
        every later execution reuses it — no statistics recomputation, no
        strategy re-derivation.  Each execution's observed work feeds the
        calibration store, and a plan whose observed cost exceeds its
        estimate by more than :attr:`demotion_factor` is demoted — the next
        execution re-plans against the recorded observations.
        """
        tracer = self.obs.tracer
        capture = self.obs.enabled
        usage: ResourceUsage | None = None
        with tracer.span("query") as root:
            with self._rw.read():
                with tracer.span("plan"):
                    entry = self._cached_plan(query)
                root.annotate(
                    signature=str(entry.signature),
                    query_class=entry.plan.query_class,
                    strategy=entry.plan.strategy,
                    kernel_backend=kernels.backend(),
                )
                kernel_before = dispatch.counter_values() if capture else None
                started = perf_counter()
                with tracer.span("execute"):
                    result = query.run(
                        self._datasets,
                        plan=entry.plan,
                        chained_cache=self._chained_cache_for(query, entry.plan),
                    )
                wall = perf_counter() - started
            with tracer.span("calibrate"):
                observed = self._observe(entry, result, wall)
            if observed is not None:
                root.annotate(observed_cost=round(observed, 4))
            if capture:
                stats = result.stats
                usage = ResourceUsage(
                    wall_seconds=wall,
                    rows_scanned=stats.points_considered,
                    candidates_pruned=stats.points_pruned,
                    kernel_dispatches=int(
                        sum(d["delta"] for d in dispatch.counter_deltas(kernel_before))
                    ),
                )
                root.annotate(resources=usage.to_dict())
        if root.enabled:
            entry.last_trace = Trace(root)
        if usage is not None:
            entry.last_resources = usage
            record_usage(self.obs.registry, str(entry.signature), usage)
            slow = self.obs.slow
            if slow.would_record(wall):
                slow.record(
                    signature=str(entry.signature),
                    query_class=entry.plan.query_class,
                    strategy=entry.plan.strategy,
                    wall_seconds=wall,
                    resources=usage,
                    explain=entry.explain_with_feedback().render(),
                    trace_summary=Trace(root).summary_lines(),
                )
        self._queries.inc()
        self._query_latency.observe(wall)
        return result

    def plan_entry(self, query: Query) -> CachedPlan:
        """The (cached) plan-cache entry the engine would execute for ``query``.

        Like :meth:`plan`, but returns the whole entry.  External executors
        (the sharded engine) hold on to it across their own execution and
        hand it back to :meth:`record_execution` — one lookup per run, and
        the feedback lands on exactly the entry that produced the plan (a
        re-lookup could double-count cache hits, or race a mutation and
        record stale counters against a freshly re-planned entry).
        """
        with self._rw.read():
            return self._cached_plan(query)

    def record_execution(
        self, entry: CachedPlan, result: QueryResult, wall_seconds: float
    ) -> float | None:
        """Feed one externally executed result back into the calibration loop.

        The sharded engine executes plans itself (fan-out + merge) but plans
        through this engine's caches (:meth:`plan_entry`); it calls back here
        so its aggregated per-shard work counters warm the same profiles —
        and trip the same misprediction check — as locally executed plans.
        Returns the observed abstract cost (see :meth:`_observe`).
        """
        return self._observe(entry, result, wall_seconds)

    def _observe(
        self, entry: CachedPlan, result: QueryResult, wall: float
    ) -> float | None:
        """Record one execution's observed cost; demote a mispredicted plan.

        Returns the observed abstract cost (``None`` when the strategy has
        no observable cost or the plan carries no calibration key) so run
        paths can annotate their root span with it.
        """
        if result.node_costs:
            observed = self._record_node_costs(result, wall)
        else:
            observed = observed_cost(
                entry.plan.strategy, result.stats, self.optimizer.cost_model
            )
        if observed is None or entry.calibration_key is None:
            return None
        stats = result.stats
        profile = self.calibration.record(
            entry.calibration_key,
            Observation(
                strategy=entry.plan.strategy,
                observed_total=observed,
                wall_seconds=wall,
                estimated_total=entry.estimated_total,
                neighborhoods=stats.neighborhoods_computed,
                points_considered=stats.points_considered,
                blocks_examined=stats.blocks_examined,
            ),
        )
        self._calibration_observations.inc()
        # run_many feeds this from concurrent worker threads: the store
        # locks internally, but the entry's EWMA and the engine counters are
        # plain read-modify-writes — serialize them here.
        with self._feedback_lock:
            entry.record_observation(observed, alpha=self.calibration.alpha)
            estimated = entry.estimated_total
            if estimated is None or observed <= estimated * self.demotion_factor:
                return observed
            entry.mispredictions += 1
            self._mispredictions.inc()
            # Demote only when re-planning can actually change the outcome:
            # the plan must have strategy alternatives (single-strategy
            # classes re-derive the identical plan — estimates for those
            # converge through _blend_observed on natural re-plans instead),
            # and the executed strategy's profile must be warm so the re-plan
            # estimates it from observation.  And count a demotion only if
            # this call evicted the entry — a concurrent batch job may have
            # demoted the shared entry already.
            if len(entry.plan.estimates) > 1 and profile.warm(
                self.calibration.min_observations
            ):
                if self._plan_cache.reject(entry, recount=False):
                    self._demotions.inc()
                    self.obs.events.emit(
                        "plan_demotion",
                        signature=str(entry.signature),
                        strategy=entry.plan.strategy,
                        estimated=round(estimated, 4),
                        observed=round(observed, 4),
                        ratio=round(observed / estimated, 4),
                    )
            return observed

    def _record_node_costs(self, result: QueryResult, wall: float) -> float:
        """Record an algebra execution's per-operator work; return its total.

        Each ``(node signature, units)`` entry becomes one calibration
        observation under the node's own signature (strategy
        ``"algebra-node"``), so the compiler's next plan estimates that
        operator from its observed history.  The whole-plan observed cost is
        the converted sum — the same currency as the plan's estimate.
        """
        from repro.algebra.compile import NODE_PROFILE_STRATEGY, observed_node_cost

        cost_model = self.optimizer.cost_model
        total = 0.0
        for node_signature, units in result.node_costs:
            cost = observed_node_cost(node_signature, units, cost_model)
            total += cost
            self.calibration.record(
                node_signature,
                Observation(
                    strategy=NODE_PROFILE_STRATEGY,
                    observed_total=cost,
                    wall_seconds=wall,
                ),
            )
            self._calibration_observations.inc()
        return total

    def run_many(
        self,
        queries: Sequence[Query],
        max_workers: int | None = None,
    ) -> list[QueryResult]:
        """Execute a batch of queries, returning results in input order.

        Plans are resolved up front (sequentially — they are cache lookups
        after the first occurrence of each shape), then execution fans out on
        a thread pool.  Chained-join queries over the same relations share a
        B→C neighborhood cache, so later queries in the batch benefit from
        the neighborhoods computed by earlier ones.
        """
        with self._rw.read():
            entries = [self._cached_plan(q) for q in queries]

        tracer = self.obs.tracer

        def job(query: Query, entry: CachedPlan):
            def run() -> QueryResult:
                # Each job opens its own root span (span nesting is tracked
                # per thread, so every batch job yields a standalone trace).
                with tracer.span(
                    "query",
                    signature=str(entry.signature),
                    query_class=entry.plan.query_class,
                    strategy=entry.plan.strategy,
                    batched=True,
                ) as root:
                    # Each job holds the read side for its whole execution,
                    # so a concurrent mutation waits for the batch to drain.
                    with self._rw.read():
                        started = perf_counter()
                        with tracer.span("execute"):
                            result = query.run(
                                self._datasets,
                                plan=entry.plan,
                                chained_cache=self._chained_cache_for(query, entry.plan),
                            )
                        wall = perf_counter() - started
                    # Calibration is fed per job (the store is thread-safe),
                    # so a mispredicted shape is demoted after its first
                    # batch, not after the workload's.
                    with tracer.span("calibrate"):
                        observed = self._observe(entry, result, wall)
                    if observed is not None:
                        root.annotate(observed_cost=round(observed, 4))
                    if self.obs.enabled:
                        # Batch jobs share the process-global kernel registry
                        # across concurrent threads, so a per-job dispatch
                        # delta would be racy — report scan/prune work only.
                        stats = result.stats
                        usage = ResourceUsage(
                            wall_seconds=wall,
                            rows_scanned=stats.points_considered,
                            candidates_pruned=stats.points_pruned,
                        )
                        root.annotate(resources=usage.to_dict())
                        entry.last_resources = usage
                        record_usage(self.obs.registry, str(entry.signature), usage)
                        slow = self.obs.slow
                        if slow.would_record(wall):
                            slow.record(
                                signature=str(entry.signature),
                                query_class=entry.plan.query_class,
                                strategy=entry.plan.strategy,
                                wall_seconds=wall,
                                resources=usage,
                                explain=entry.explain_with_feedback().render(),
                                trace_summary=Trace(root).summary_lines(),
                            )
                if root.enabled:
                    entry.last_trace = Trace(root)
                self._query_latency.observe(wall)
                return result

            return run

        jobs = [job(query, entry) for query, entry in zip(queries, entries)]
        workers = max_workers if max_workers is not None else self.max_workers
        results = run_batch(jobs, max_workers=workers)
        self._queries.inc(len(queries))
        self._batches.inc()
        return results

    def _chained_cache_for(self, query: Query, plan: PhysicalPlan):
        """The shared B→C cache for a chained-join query (else ``None``)."""
        if plan.query_class != "chained-joins":
            return None
        joins = [p for p in query.predicates if isinstance(p, KnnJoin)]
        chained = Query._chain_order(joins[0], joins[1])
        if chained is None:
            return None
        ab, bc = chained
        b = self._datasets[ab.inner]
        c = self._datasets[bc.inner]
        key = (b.name, b.version, c.name, c.version, bc.k)
        return self._chained_caches.cache_for(key)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def metrics(self) -> dict[str, object]:
        """Counters describing how well the caches are doing."""
        return {
            "datasets": len(self._datasets),
            "queries_executed": self.queries_executed,
            "batches_executed": self.batches_executed,
            "plan_cache": {
                "size": len(self._plan_cache),
                "hits": self._plan_cache.hits,
                "misses": self._plan_cache.misses,
                "evictions": self._plan_cache.evictions,
                "invalidations": self._plan_cache.invalidations,
            },
            "stats_cache": {
                "size": len(self._stats_cache),
                "hits": self._stats_cache.hits,
                "misses": self._stats_cache.misses,
                "invalidations": self._stats_cache.invalidations,
            },
            "chained_caches": {
                "caches": len(self._chained_caches),
                "neighborhoods": self._chained_caches.total_entries(),
            },
            "calibration": {
                **self.calibration.metrics(),
                "mispredictions": self.mispredictions,
                "demotions": self.demotions,
            },
        }

    def metrics_snapshot(self) -> dict[str, object]:
        """JSON-able snapshot of every registry-backed instrument.

        Unlike the curated :meth:`metrics` dict, this is the raw export of
        the engine's :class:`~repro.obs.metrics.MetricsRegistry` — the same
        shape ``python -m repro.obs --dump`` prints and
        :func:`repro.obs.export.validate_snapshot` checks.
        """
        return self.obs.snapshot()

    def prometheus_metrics(self) -> str:
        """Prometheus text-format exposition of the engine's registry."""
        return self.obs.prometheus()

    def traces(self, n: int | None = None) -> tuple[Trace, ...]:
        """The most recent completed execution traces, oldest first."""
        return self.obs.tracer.recent(n)

    def events(self, kind: str | None = None, n: int | None = None) -> tuple[Event, ...]:
        """Recent structured events (plan demotions, index repairs, ...)."""
        return self.obs.events.events(kind, n)

    def slow_queries(self, n: int | None = None) -> list[dict]:
        """Recent slow-query records, oldest first (see
        :class:`~repro.obs.flight.SlowQueryLog`)."""
        return self.obs.slow.records(n)

    @property
    def plan_cache(self) -> PlanCache:
        """The engine's plan cache (exposed for tests and monitoring)."""
        return self._plan_cache

    @property
    def stats_cache(self) -> StatsCache:
        """The engine's statistics cache (exposed for tests and monitoring)."""
        return self._stats_cache

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SpatialEngine(datasets={sorted(self._datasets)}, "
            f"plans={len(self._plan_cache)}, queries={self.queries_executed})"
        )
