"""The ``StreamEngine``: continuous spatial queries over streaming updates.

The stream engine wraps a serving engine — the single-partition
:class:`~repro.engine.session.SpatialEngine` or the data-parallel
:class:`~repro.shard.engine.ShardedEngine` — and adds *standing* queries:

* :meth:`StreamEngine.subscribe` plans a query once, executes it once and
  keeps its result maintained from then on;
* :meth:`StreamEngine.push` applies one columnar
  :class:`~repro.storage.update.UpdateBatch` to a relation (one engine
  mutation: one version bump, one cache invalidation, localized index
  repair) and returns one :class:`~repro.stream.delta.Delta` per affected
  subscription — the rows that entered and left each standing result —
  instead of re-executing anything that provably did not change;
* :meth:`StreamEngine.stream` hands out a buffered
  :class:`~repro.stream.client.UpdateStream` for callers that accumulate
  operations and flush them as batches.

Maintenance is incremental (see :mod:`repro.stream.maintain`): guard regions
filter the update batch down to the subscriptions it can affect, affected
results repair locally from the batch's columns, and only guard *violations*
(a current kNN member removed or relocated) fall back to re-execution — which
then runs through the wrapped engine's plan cache.

Mutations made directly on the wrapped engine (bypassing ``push``) are caught
by the engine's mutation-listener hook: the affected subscriptions are marked
``stale`` and reconciled with one re-execution on their next push or
:meth:`StreamEngine.poll`.

The stream engine is thread-safe in the same sense as the engines it wraps:
pushes and subscriptions serialize on an internal lock while reads of
subscription results are snapshot tuples.
"""

from __future__ import annotations

import itertools
import threading
from time import perf_counter
from typing import Mapping

import numpy as np

from repro.engine.session import SpatialEngine
from repro.exceptions import InvalidParameterError, UnsupportedQueryError
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.locality.batch import get_knn_batch
from repro.locality.knn import get_knn
from repro.locality.neighborhood import Neighborhood
from repro.obs import Observability
from repro.obs.events import Event
from repro.obs.metrics import LATENCY_BUCKETS, SIZE_BUCKETS
from repro.obs.trace import Trace
from repro.query.query import Query
from repro.query.results import QueryResult
from repro.shard.batch import sharded_knn_batch
from repro.shard.engine import ShardedEngine
from repro.shard.executor import relation_bounds
from repro.shard.knn import sharded_knn
from repro.storage.pointstore import PointStore
from repro.storage.update import UpdateBatch
from repro.stream.client import UpdateStream
from repro.stream.delta import Delta
from repro.stream.maintain import make_state
from repro.stream.subscription import Subscription

__all__ = ["StreamEngine"]

_IDS = itertools.count(1)


class StreamEngine:
    """Standing queries with incremental result maintenance.

    Parameters
    ----------
    engine:
        The serving engine to wrap — a :class:`SpatialEngine` or a
        :class:`ShardedEngine`.  When omitted, a fresh :class:`SpatialEngine`
        is created with ``engine_kwargs``.
    engine_kwargs:
        Forwarded to the :class:`SpatialEngine` constructor when ``engine``
        is omitted.
    obs:
        The observability bundle.  Defaults to the *wrapped engine's*
        bundle, so stream-maintenance counters, the engine's query metrics
        and the spans of guard-violation re-executions land in one registry
        (and re-execution ``query`` spans nest under the push's
        ``stream-maintain`` root).
    """

    def __init__(
        self,
        engine: SpatialEngine | ShardedEngine | None = None,
        obs: Observability | None = None,
        **engine_kwargs: object,
    ) -> None:
        if engine is None:
            # A supplied bundle is forwarded so the created engine and this
            # stream layer share one registry/tracer (as when wrapping).
            if obs is not None:
                engine_kwargs.setdefault("obs", obs)
            engine = SpatialEngine(**engine_kwargs)  # type: ignore[arg-type]
        elif engine_kwargs:
            raise InvalidParameterError(
                "engine_kwargs are only valid when no engine is supplied"
            )
        #: The wrapped serving engine (exposed for direct queries and tests).
        self.engine = engine
        #: The observability bundle (shared with the wrapped engine by default).
        self.obs = obs if obs is not None else engine.obs
        self._sharded = isinstance(engine, ShardedEngine)
        self._subs: dict[str, Subscription] = {}
        self._by_relation: dict[str, set[str]] = {}
        self._lock = threading.RLock()
        #: ``(thread id, relation)`` of a push currently applying its batch —
        #: used to tell our own mutation notification apart from a direct
        #: engine mutation racing in from another thread.
        self._applying: tuple[int, str] | None = None
        self._closed = False
        #: True while subscribe() builds a state (whose constructor runs the
        #: query once) — suppresses the refeed counter for that first run.
        self._subscribing = False
        registry = self.obs.registry
        self._batches = registry.counter("stream_batches_total")
        self._updates = registry.counter("stream_updates_total")
        #: Full re-executions routed through the wrapped engine (guard
        #: violations and stale-subscription reconciles; a subscription's
        #: *initial* execution is not counted).  Every one of them feeds the
        #: engine's planner-calibration store, so a standing query that
        #: keeps violating its guard converges to the strategy whose
        #: observed cost is lowest — see ``docs/planner.md``.
        self._refeeds = registry.counter("stream_refeeds_total")
        self._guard_violations = registry.counter("stream_guard_violations_total")
        self._push_latency = registry.histogram(
            "stream_push_latency_seconds", LATENCY_BUCKETS
        )
        self._delta_rows = registry.histogram("stream_delta_rows", SIZE_BUCKETS)
        # Gauges bind the (never reassigned) container, not ``self``: a
        # closure over ``self`` would make the engine a reference cycle.
        subs = self._subs
        registry.gauge("stream_subscriptions", fn=subs.__len__)
        registry.gauge(
            "stream_stale_subscriptions", fn=lambda: sum(1 for s in subs.values() if s.stale)
        )
        engine.add_mutation_listener(self._on_engine_mutation)

    @property
    def batches_pushed(self) -> int:
        """Update batches pushed (view over ``stream_batches_total``)."""
        return int(self._batches.value)

    @property
    def updates_pushed(self) -> int:
        """Individual operations pushed — inserts + removes + moves (view
        over ``stream_updates_total``)."""
        return int(self._updates.value)

    @property
    def calibration_refeeds(self) -> int:
        """Full re-executions that re-fed the planner's calibration store
        (view over ``stream_refeeds_total``)."""
        return int(self._refeeds.value)

    @property
    def guard_violations(self) -> int:
        """Pushes that violated a subscription's guard region and forced a
        full re-execution (view over ``stream_guard_violations_total``)."""
        return int(self._guard_violations.value)

    # ------------------------------------------------------------------
    # Registration (delegated)
    # ------------------------------------------------------------------
    def register(self, *args: object, **kwargs: object):
        """Register a relation on the wrapped engine (same signature)."""
        return self.engine.register(*args, **kwargs)  # type: ignore[arg-type]

    def unregister(self, name: str) -> None:
        """Remove a relation; subscriptions still touching it are dropped."""
        with self._lock:
            for sub_id in sorted(self._by_relation.get(name, set())):
                self._drop(self._subs[sub_id])
            self.engine.unregister(name)

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------
    def subscribe(self, query: Query, sub_id: str | None = None) -> Subscription:
        """Install ``query`` as a standing query; returns its subscription.

        The query is planned and executed once (through the wrapped engine's
        caches); from then on every :meth:`push` to one of its relations
        maintains the result incrementally and reports the change as a
        :class:`Delta`.
        """
        with self._lock:
            self._require_open()
            with self.obs.tracer.span("subscribe") as span:
                plan = self.engine.plan(query)
                if sub_id is None:
                    sub_id = f"sub-{next(_IDS)}"
                if sub_id in self._subs:
                    raise InvalidParameterError(
                        f"subscription id {sub_id!r} already exists"
                    )
                span.annotate(
                    subscription=sub_id,
                    query_class=plan.query_class,
                    strategy=plan.strategy,
                )
                self._subscribing = True
                try:
                    state = make_state(plan.query_class, query, self)
                finally:
                    self._subscribing = False
                sub = Subscription(sub_id, query, plan.query_class, state)
                self._subs[sub_id] = sub
                for relation in sub.relations:
                    self._by_relation.setdefault(relation, set()).add(sub_id)
                return sub

    def unsubscribe(self, sub: Subscription | str) -> None:
        """Remove a standing query (by handle or id)."""
        with self._lock:
            sub_id = sub if isinstance(sub, str) else sub.id
            if sub_id not in self._subs:
                raise UnsupportedQueryError(f"no subscription with id {sub_id!r}")
            self._drop(self._subs[sub_id])

    def _drop(self, sub: Subscription) -> None:
        del self._subs[sub.id]
        for relation in sub.relations:
            members = self._by_relation.get(relation)
            if members is not None:
                members.discard(sub.id)
                if not members:
                    del self._by_relation[relation]

    def subscription(self, sub_id: str) -> Subscription:
        """The subscription with the given id."""
        try:
            return self._subs[sub_id]
        except KeyError:
            raise UnsupportedQueryError(f"no subscription with id {sub_id!r}") from None

    @property
    def subscriptions(self) -> Mapping[str, Subscription]:
        """Read-only view of the active subscriptions (id → subscription)."""
        return dict(self._subs)

    def __len__(self) -> int:
        return len(self._subs)

    # ------------------------------------------------------------------
    # The update stream
    # ------------------------------------------------------------------
    def stream(self, relation: str) -> UpdateStream:
        """A buffered update stream bound to one relation (flush → push)."""
        return UpdateStream(self, relation)

    def push(self, relation: str, batch: UpdateBatch) -> dict[str, Delta]:
        """Apply one update batch and maintain every affected subscription.

        The batch is applied to the wrapped engine as a single mutation
        (indexes repaired locally, caches invalidated once), then offered to
        each subscription touching ``relation``; the guard regions decide per
        subscription whether the batch is skipped, repaired locally or — on a
        guard violation — answered by one re-execution.  Returns one delta
        per touching subscription (empty deltas included, so consumers can
        observe the tick).
        """
        tracer, events = self.obs.tracer, self.obs.events
        with self._lock:
            self._require_open()
            started = perf_counter()
            with tracer.span("stream-maintain", relation=relation, size=batch.size) as root:
                self._applying = (threading.get_ident(), relation)
                try:
                    with tracer.span("apply-update"):
                        applied = self.engine.apply_update(relation, batch)
                finally:
                    self._applying = None
                deltas: dict[str, Delta] = {}
                maintained = 0
                for sub_id in sorted(self._by_relation.get(relation, set())):
                    sub = self._subs[sub_id]
                    was_stale = sub.stale
                    skips_before = sub.skips
                    with tracer.span("maintain", subscription=sub_id) as span:
                        delta = sub.apply(applied, relation, self)
                        # A refresh on a non-stale subscription means the
                        # batch violated its guard region: a current result
                        # member was removed or relocated, forcing the full
                        # re-execution (whose "query" span nests just above).
                        if delta.refreshed and not was_stale:
                            self._guard_violations.inc()
                            events.emit(
                                "guard_violation",
                                subscription=sub_id,
                                relation=relation,
                                rows_changed=len(delta),
                            )
                        span.annotate(
                            outcome=(
                                "refresh"
                                if delta.refreshed
                                else ("skip" if sub.skips > skips_before else "repair")
                            ),
                            rows_changed=len(delta),
                        )
                    self._delta_rows.observe(len(delta))
                    deltas[sub_id] = delta
                    maintained += 1
                root.annotate(subscriptions=maintained)
            self._batches.inc()
            self._updates.inc(batch.size)
            wall = perf_counter() - started
            self._push_latency.observe(wall)
            slow = self.obs.slow
            if slow.would_record(wall):
                # Slow pushes land in the shared slow-query log so operators
                # see maintenance stalls next to slow reads.
                slow.record(
                    signature=f"stream-push:{relation}",
                    query_class="stream-push",
                    strategy="maintain",
                    wall_seconds=wall,
                    explain=(
                        f"stream push relation={relation} size={batch.size} "
                        f"subscriptions={maintained}"
                    ),
                    trace_summary=(
                        Trace(root).summary_lines() if root.enabled else ()
                    ),
                )
            return deltas

    def poll(self, sub: Subscription | str) -> Delta:
        """Reconcile a (possibly stale) subscription without pushing updates.

        Returns an empty delta when the subscription is current; a stale
        subscription (out-of-band engine mutation) is refreshed and the
        resulting change returned.
        """
        with self._lock:
            handle = sub if isinstance(sub, Subscription) else self.subscription(sub)
            if not handle.stale:
                return Delta(subscription_id=handle.id)
            return handle.reconcile(self)

    def _on_engine_mutation(self, name: str) -> None:
        """Mutation-listener hook: mark out-of-band mutations' subscriptions stale.

        Our own push is recognized by ``(thread id, relation)`` — a direct
        engine mutation on the same relation racing in from *another* thread
        must still stale the subscriptions.  The engines fire listeners
        outside their locks, so taking the stream lock here cannot deadlock:
        a concurrent push merely serializes this notification after it.
        """
        if self._applying == (threading.get_ident(), name):
            return  # our own push; maintenance handles it
        with self._lock:
            for sub_id in self._by_relation.get(name, ()):
                sub = self._subs[sub_id]
                if not sub.stale:
                    self.obs.events.emit(
                        "subscription_stale", subscription=sub_id, relation=name
                    )
                sub.stale = True

    # ------------------------------------------------------------------
    # MaintenanceContext protocol (see repro.stream.maintain)
    # ------------------------------------------------------------------
    def knn(self, relation: str, focal: Point, k: int) -> Neighborhood:
        """Exact k-neighborhood over the named relation (cross-shard if sharded)."""
        if self._sharded:
            return sharded_knn(self.engine.sharded_dataset(relation), focal, k)  # type: ignore[union-attr]
        return get_knn(self.engine.dataset(relation).index, focal, k)  # type: ignore[union-attr]

    def knn_batch(self, relation: str, coords: np.ndarray, k: int) -> list[Neighborhood]:
        """Exact k-neighborhoods of many coordinates, in input order."""
        if not len(coords):
            return []
        if self._sharded:
            sharded = self.engine.sharded_dataset(relation)  # type: ignore[union-attr]
            return sharded_knn_batch(
                sharded, np.asarray(coords, dtype=np.float64), k
            )
        return get_knn_batch(
            self.engine.dataset(relation).index,  # type: ignore[union-attr]
            np.asarray(coords, dtype=np.float64),
            k,
        )

    def store(self, relation: str) -> PointStore:
        """The named relation's current (authoritative) columnar store."""
        if self._sharded:
            return self.engine.sharded_dataset(relation).base.store  # type: ignore[union-attr]
        return self.engine.dataset(relation).store  # type: ignore[union-attr]

    def bounds(self, relation: str) -> Rect | None:
        """The relation's extent — the same frame every evaluation layer uses
        for grid-cell decomposition (declared bounds, else index/shard union),
        so incrementally maintained aggregate cells line up with re-executed
        ones."""
        if self._sharded:
            return relation_bounds(self.engine.sharded_dataset(relation))  # type: ignore[union-attr]
        dataset = self.engine.dataset(relation)  # type: ignore[union-attr]
        if dataset.bounds is not None:
            return dataset.bounds
        try:
            return dataset.index.bounds
        except AttributeError:  # pragma: no cover - every index exposes bounds
            return None

    def run(self, query: Query) -> QueryResult:
        """Execute a query from scratch through the wrapped engine.

        This is the maintenance layer's fallback path (guard violations,
        stale reconciles); it runs through the engine's plan cache *and*
        calibration loop, so repeated re-executions of a standing query keep
        teaching the planner its observed cost.  A subscription's initial
        execution (during :meth:`subscribe`) is not counted as a refeed.
        """
        if not self._subscribing:
            self._refeeds.inc()
        return self.engine.run(query)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _require_open(self) -> None:
        if self._closed:
            raise InvalidParameterError("stream engine is closed")

    def close(self) -> None:
        """Detach from the wrapped engine and drop every subscription.

        Idempotent.  A stream engine registers a mutation listener on the
        engine it wraps; services that layer short-lived stream engines over
        one long-lived serving engine must close them, or each discarded
        instance stays referenced (and notified) by the engine forever.  The
        wrapped engine itself is left untouched and fully usable.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self.engine.remove_mutation_listener(self._on_engine_mutation)
            for sub_id in sorted(self._subs):
                self._drop(self._subs[sub_id])

    def __enter__(self) -> "StreamEngine":
        """Context-manager support: ``with StreamEngine(engine) as stream:``."""
        return self

    def __exit__(self, *exc: object) -> None:
        """Close (detach listener, drop subscriptions) on context exit."""
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def metrics(self) -> dict[str, object]:
        """Counters describing the maintenance behaviour."""
        subs = list(self._subs.values())
        return {
            "subscriptions": len(subs),
            "batches_pushed": self.batches_pushed,
            "updates_pushed": self.updates_pushed,
            "skips": sum(s.skips for s in subs),
            "local_repairs": sum(s.local_repairs for s in subs),
            "refreshes": sum(s.refreshes for s in subs),
            "stale": sum(1 for s in subs if s.stale),
            "calibration_refeeds": self.calibration_refeeds,
            "guard_violations": self.guard_violations,
        }

    def metrics_snapshot(self) -> dict[str, object]:
        """JSON-able snapshot of the shared registry (stream + wrapped engine)."""
        return self.obs.snapshot()

    def prometheus_metrics(self) -> str:
        """Prometheus text-format exposition of the shared registry."""
        return self.obs.prometheus()

    def traces(self, n: int | None = None) -> tuple[Trace, ...]:
        """The most recent completed traces (pushes, queries), oldest first."""
        return self.obs.tracer.recent(n)

    def events(self, kind: str | None = None, n: int | None = None) -> tuple[Event, ...]:
        """Recent structured events (guard violations, stale subscriptions, ...)."""
        return self.obs.events.events(kind, n)

    def slow_queries(self, n: int | None = None) -> list[dict]:
        """Recent slow records from the shared log — slow queries of the
        wrapped engine plus threshold-exceeding stream pushes."""
        return self.obs.slow.records(n)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamEngine(subscriptions={len(self._subs)}, "
            f"batches={self.batches_pushed}, sharded={self._sharded})"
        )
