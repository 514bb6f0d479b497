"""Mergeable partial results for sharded kNN evaluation.

Data-partitioned execution splits a relation into spatial shards and evaluates
each operator per shard; the functions here combine the per-shard *partial*
results back into the exact global answer.  The key fact making kNN-select
mergeable is:

    If ``E = E_1 ∪ ... ∪ E_m`` (disjoint), then the global k nearest
    neighbors of a point ``p`` in ``E`` are contained in the union of the
    per-shard k nearest neighbors of ``p`` in each ``E_i``.

Proof sketch: a point ranked r-th globally (r ≤ k) is ranked at most r-th
within its own shard, so it appears in that shard's top-k.  Re-ranking the
union by the library-wide ``(distance, pid)`` order therefore reproduces the
unsharded neighborhood *exactly*, ties included.  Join outputs are mergeable
trivially: the outer relation is partitioned, every outer point is owned by
exactly one shard, so per-shard pair/triplet lists concatenate without
duplicates.

The re-rank itself is columnar: partial neighborhoods expose their
``(distance, pid)`` columns as arrays, the merge stacks them and runs one
``np.lexsort``, and the winners' columns are gathered from the parts' stores
— no point object is built.

See ``docs/operators.md`` for the full border-expansion argument and
:mod:`repro.shard` for the execution layer built on these primitives.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro import kernels
from repro.exceptions import InvalidParameterError
from repro.geometry.point import Point
from repro.locality.neighborhood import Neighborhood
from repro.operators.results import JoinPair, JoinTriplet, pair_key, triplet_key
from repro.storage.pointstore import PointStore

__all__ = [
    "merge_neighborhoods",
    "merge_pid_partials",
    "merge_pair_partials",
    "merge_triplet_partials",
]


def merge_neighborhoods(
    center: Point, k: int, partials: Iterable[Neighborhood]
) -> Neighborhood:
    """Re-rank per-shard neighborhoods of ``center`` into the global top-k.

    Each partial must be a (≤ k)-neighborhood of the *same* center computed
    over one shard of the relation.  The merged result is identical to the
    neighborhood computed over the unsharded relation: the partials'
    ``(distance, pid)`` columns are stacked and ranked with one ``np.lexsort``
    — the library's deterministic tie-break — and the first ``k`` are kept.

    When every winner comes from one part they are a prefix of its rows (a
    part is in ``(distance, pid)`` order), and the result is a slice of that
    part over its store.  Otherwise the winners' columns and payloads are
    gathered from the parts' stores into a compact store of their own.
    """
    if k <= 0:
        raise InvalidParameterError(f"k must be positive, got {k}")
    parts = [nbr for nbr in partials if len(nbr)]
    if not parts:
        return Neighborhood(center, k, [], [])
    dists = np.concatenate([nbr.distance_array for nbr in parts])
    pids = np.concatenate([nbr.pid_array for nbr in parts])
    order = kernels.merge_topk(dists, pids, k)
    offsets = np.cumsum([0] + [len(nbr) for nbr in parts])
    part_of = np.searchsorted(offsets, order, side="right") - 1
    if (part_of == part_of[0]).all():
        part = parts[part_of[0]]
        return Neighborhood.from_rows(
            center, k, part.store, part.rows[: len(order)], part.distance_array[: len(order)]
        )
    xs = np.concatenate([nbr.store.xs[nbr.rows] for nbr in parts])[order]
    ys = np.concatenate([nbr.store.ys[nbr.rows] for nbr in parts])[order]
    payloads = {}
    if any(nbr.store.payloads for nbr in parts):
        for i, (g, part) in enumerate(zip(order.tolist(), part_of.tolist())):
            store = parts[part].store
            payload = store.payloads.get(int(parts[part].rows[g - offsets[part]]))
            if payload is not None:
                payloads[i] = payload
    store = PointStore(xs, ys, pids[order], payloads, validate=False)
    return Neighborhood.from_rows(center, k, store, np.arange(len(order)), dists[order])


def merge_pid_partials(store: PointStore, partials: Iterable[np.ndarray]) -> np.ndarray:
    """Rows of ``store`` for per-shard pid arrays, in ascending pid order.

    Shards ship the pids of their surviving rows (e.g. range-select
    partials) and the coordinator addresses them in the relation's
    authoritative store — no point crosses the shard boundary.  Shards are
    disjoint, so concatenation introduces no duplicates, and the pid order
    makes the output independent of shard enumeration order.
    """
    parts = [np.asarray(part, dtype=np.int64) for part in partials if len(part)]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return store.rows_aligned(np.sort(np.concatenate(parts)))


def merge_pair_partials(partials: Iterable[Sequence[JoinPair]]) -> list[JoinPair]:
    """Concatenate per-outer-shard join outputs into the global pair set.

    The outer relation is partitioned, so each pair is produced by exactly
    one shard; sorting by ``(outer pid, inner pid)`` gives a canonical order
    independent of shard count and worker scheduling.
    """
    merged = [pair for part in partials for pair in part]
    merged.sort(key=pair_key)
    return merged


def merge_triplet_partials(
    partials: Iterable[Sequence[JoinTriplet]],
) -> list[JoinTriplet]:
    """Concatenate per-shard triplet outputs into the global triplet set."""
    merged = [t for part in partials for t in part]
    merged.sort(key=triplet_key)
    return merged
