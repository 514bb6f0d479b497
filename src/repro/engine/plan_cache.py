"""LRU plan cache keyed on canonical query signatures.

The signature (:meth:`repro.query.query.Query.signature`) covers everything
the planner's decisions depend on — predicate classes, relation names, index
kinds, bucketed k-values and any forced strategy — and nothing they don't
(focal points, range windows).  Repeated queries of the same *shape* therefore
hit the cache even when their parameters differ, which is the common pattern
of serving traffic ("nearest k cafés to <wherever the user is>").

Entries remember which relations they touch so a dataset mutation can evict
exactly the plans it could stale.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.engine.explain import Explain
from repro.exceptions import InvalidParameterError
from repro.obs.flight import ResourceUsage
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.trace import Trace
from repro.planner.plan import PhysicalPlan

__all__ = ["CachedPlan", "PlanCache"]

Signature = tuple


@dataclass
class CachedPlan:
    """One plan-cache entry: the executable plan plus its EXPLAIN record.

    ``versions`` records each touched relation's :attr:`Dataset.version` at
    planning time.  Mutations routed through the engine evict affected
    entries eagerly, but a dataset mutated *behind the engine's back* leaves
    the entry in place — the version stamp lets the engine detect that at
    lookup/execution time and re-plan instead of serving a plan derived from
    stale statistics.

    The feedback fields close the calibration loop (see ``docs/planner.md``):
    ``estimated_total`` is the abstract cost the chosen strategy was planned
    at; :meth:`record_observation` folds each execution's observed cost into
    the ``observed_total`` EWMA.  ``calibration_key`` names the observation
    profiles the plan's executions feed (and re-planning consults).
    """

    signature: Signature
    plan: PhysicalPlan
    explain: Explain
    relations: frozenset[str]
    versions: tuple[tuple[str, int], ...] = ()
    hits: int = field(default=0)
    estimated_total: float | None = None
    calibration_key: tuple | None = None
    observed_total: float | None = None
    observations: int = 0
    mispredictions: int = 0
    #: The most recent execution's span tree (``None`` until the plan has
    #: run under an enabled tracer); summarized into EXPLAIN's trace block.
    last_trace: Trace | None = None
    #: The most recent execution's resource accounting (``None`` until the
    #: plan has run under an enabled bundle); shown in EXPLAIN's resources
    #: block and aggregated per signature in the registry.
    last_resources: ResourceUsage | None = None

    def record_observation(self, observed: float, alpha: float = 0.3) -> None:
        """Fold one execution's observed abstract cost into the EWMA."""
        if self.observed_total is None:
            self.observed_total = observed
        else:
            self.observed_total = (1.0 - alpha) * self.observed_total + alpha * observed
        self.observations += 1

    def explain_with_feedback(self) -> Explain:
        """The EXPLAIN record, enriched with observed cost, the last trace
        and the last execution's resource accounting."""
        record = self.explain
        if self.observations and self.observed_total is not None:
            record = record.with_observed(self.observed_total, self.observations)
        if self.last_trace is not None:
            record = record.with_trace(self.last_trace.summary_lines())
        if self.last_resources is not None:
            record = record.with_resources(self.last_resources)
        return record


class PlanCache:
    """A thread-safe LRU mapping of query signature → :class:`CachedPlan`.

    Counters (hits, misses, rejects, evictions, invalidations) are
    :class:`~repro.obs.metrics.Counter` instruments — standalone by default,
    or obtained from a given ``registry`` so the cache's behaviour lands in
    the owning engine's metrics snapshot.  The historical attribute names
    (:attr:`hits`, :attr:`misses`, ...) remain as thin read views.
    """

    def __init__(self, max_size: int = 256, registry: MetricsRegistry | None = None) -> None:
        if max_size <= 0:
            raise InvalidParameterError("plan cache max_size must be positive")
        self.max_size = max_size
        self._entries: OrderedDict[Signature, CachedPlan] = OrderedDict()
        self._lock = threading.Lock()
        make = registry.counter if registry is not None else Counter
        self._hits = make("plan_cache_hits_total")
        self._misses = make("plan_cache_misses_total")
        self._rejects = make("plan_cache_rejects_total")
        self._evictions = make("plan_cache_evictions_total")
        self._invalidations = make("plan_cache_invalidations_total")
        if registry is not None:
            registry.gauge("plan_cache_entries", fn=self._entries.__len__)

    @property
    def hits(self) -> int:
        """Lookups served from the cache (view over the hits counter)."""
        return int(self._hits.value)

    @property
    def misses(self) -> int:
        """Lookups that found no entry (view over the misses counter)."""
        return int(self._misses.value)

    @property
    def rejects(self) -> int:
        """Entries evicted through :meth:`reject` — stale-validation failures
        plus misprediction demotions."""
        return int(self._rejects.value)

    @property
    def evictions(self) -> int:
        """Entries dropped by LRU capacity pressure."""
        return int(self._evictions.value)

    @property
    def invalidations(self) -> int:
        """Entries dropped by rejection or relation invalidation."""
        return int(self._invalidations.value)

    def stats(self) -> dict[str, float]:
        """Point-in-time statistics: hits, misses, rejects, evictions,
        invalidations, current size, and the derived hit rate (0.0 with no
        lookups).  All figures are non-negative by construction — the
        recount path clamps rather than going negative (see :meth:`reject`).
        """
        hits, misses = self.hits, self.misses
        lookups = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "rejects": self.rejects,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "size": len(self._entries),
            "hit_rate": (hits / lookups) if lookups else 0.0,
        }

    def get(self, signature: Signature) -> CachedPlan | None:
        """Look up a signature, updating LRU order and hit/miss counters."""
        with self._lock:
            entry = self._entries.get(signature)
            if entry is None:
                self._misses.inc()
                return None
            self._entries.move_to_end(signature)
            self._hits.inc()
            entry.hits += 1
            return entry

    def put(self, entry: CachedPlan) -> None:
        """Insert (or refresh) an entry, evicting the least recently used."""
        with self._lock:
            self._entries[entry.signature] = entry
            self._entries.move_to_end(entry.signature)
            while len(self._entries) > self.max_size:
                self._entries.popitem(last=False)
                self._evictions.inc()

    def reject(self, entry: CachedPlan, recount: bool = True) -> bool:
        """Drop a just-fetched entry that failed post-lookup validation.

        The engine validates an entry's dataset-version stamps after
        :meth:`get`; a mismatch means the plan is stale, so the entry is
        evicted and — with ``recount`` (the default) — the preceding lookup
        re-counted as a miss instead of a hit (the caller goes on to
        re-plan).

        ``recount=False`` is the *demotion* flavor used by the engine's
        misprediction check: the entry is evicted because its cost estimate
        proved wrong, not because a lookup failed, so the hit/miss counters
        must stay untouched.  (Recounting here used to drive ``hits``
        negative when a freshly planned — never looked-up — entry was
        demoted on its first execution.)

        Returns whether this call actually evicted the entry — ``False``
        when another caller (e.g. a concurrent batch job observing the same
        mispredicted entry) already did, so demotion counters stay honest.

        Accounting stays non-negative under interleaved invalidation: the
        recount only moves a hit to a miss when there is a hit to move
        (rejecting an entry that was never looked up — or whose hit was
        already recounted by a concurrent rejector — leaves the counters
        alone instead of driving them below zero).
        """
        with self._lock:
            evicted = self._entries.get(entry.signature) is entry
            if evicted:
                del self._entries[entry.signature]
                self._invalidations.inc()
                self._rejects.inc()
            if recount and self._hits.value > 0 and entry.hits > 0:
                self._hits.add(-1)
                entry.hits -= 1
                self._misses.inc()
            return evicted

    def invalidate_relation(self, name: str) -> int:
        """Evict every plan that touches relation ``name``; returns the count."""
        with self._lock:
            doomed = [sig for sig, e in self._entries.items() if name in e.relations]
            for sig in doomed:
                del self._entries[sig]
            self._invalidations.inc(len(doomed))
            return len(doomed)

    def signatures(self) -> list[Signature]:
        """The cached signatures in LRU order (least recent first).

        The durable tier persists this list so a restarted engine can
        re-plan the same query shapes up front (warm restart) — signatures
        are pure nested tuples of strings and ints, so they serialize.
        """
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, signature: Signature) -> bool:
        return signature in self._entries

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlanCache(entries={len(self._entries)}/{self.max_size}, "
            f"hits={self.hits}, misses={self.misses})"
        )
