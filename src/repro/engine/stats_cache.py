"""Per-dataset :class:`IndexStats` cache keyed on ``(name, version)``.

``IndexStats.from_index`` walks every block of an index — O(number of blocks)
with a Python-level loop over block rectangles — and the planner consults the
statistics of up to two relations per query.  A long-lived engine serving many
queries over the same registered relations should pay that walk once per
dataset *version*, not once per query; this cache provides exactly that.

Entries are validated against :attr:`Dataset.version`, so a stale entry left
behind by :meth:`Dataset.insert` / :meth:`Dataset.remove` can never be served
even if the owner forgets to call :meth:`StatsCache.invalidate`.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.index.stats import IndexStats
from repro.obs.metrics import Counter, MetricsRegistry
from repro.query.dataset import Dataset

__all__ = ["StatsCache"]


def _default_compute(dataset: Dataset) -> IndexStats:
    """Build statistics the direct way: walk the dataset's own index."""
    return IndexStats.from_index(dataset.index)


class StatsCache:
    """Thread-safe cache of per-dataset index statistics.

    The cache is correct without explicit invalidation (entries carry the
    dataset version they were computed at), but :meth:`invalidate` frees the
    memory eagerly and keeps the hit/miss counters honest after mutations.

    Parameters
    ----------
    compute:
        How to produce :class:`IndexStats` for a dataset on a cache miss.
        The default walks the dataset's own index; the sharded engine
        substitutes an aggregation over its per-shard indexes so that the
        full index never has to be built (see
        :meth:`repro.index.stats.IndexStats.aggregate`).
    """

    def __init__(
        self,
        compute: Callable[[Dataset], IndexStats] | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._compute = compute or _default_compute
        self._entries: dict[str, tuple[int, IndexStats]] = {}
        self._lock = threading.Lock()
        make = registry.counter if registry is not None else Counter
        self._hits = make("stats_cache_hits_total")
        self._misses = make("stats_cache_misses_total")
        self._invalidations = make("stats_cache_invalidations_total")
        if registry is not None:
            registry.gauge("stats_cache_entries", fn=self._entries.__len__)

    @property
    def hits(self) -> int:
        """Lookups served from the cache (view over the hits counter)."""
        return int(self._hits.value)

    @property
    def misses(self) -> int:
        """Lookups that had to compute statistics."""
        return int(self._misses.value)

    @property
    def invalidations(self) -> int:
        """Entries dropped eagerly by :meth:`invalidate`."""
        return int(self._invalidations.value)

    def get(self, dataset: Dataset) -> IndexStats:
        """Statistics for ``dataset``, computed at most once per version."""
        with self._lock:
            entry = self._entries.get(dataset.name)
            if entry is not None and entry[0] == dataset.version:
                self._hits.inc()
                return entry[1]
        # Compute outside the lock: building the statistics is the expensive
        # part, and a duplicated computation under contention is benign (last
        # write wins).
        stats = self._compute(dataset)
        with self._lock:
            self._misses.inc()
            self._entries[dataset.name] = (dataset.version, stats)
        return stats

    def peek(self, dataset: Dataset) -> IndexStats | None:
        """Return the cached statistics without computing on a miss."""
        with self._lock:
            entry = self._entries.get(dataset.name)
            if entry is not None and entry[0] == dataset.version:
                return entry[1]
            return None

    def invalidate(self, name: str) -> bool:
        """Drop the entry for ``name``; returns whether one existed."""
        with self._lock:
            existed = self._entries.pop(name, None) is not None
            if existed:
                self._invalidations.inc()
            return existed

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StatsCache(entries={len(self._entries)}, hits={self.hits}, misses={self.misses})"
