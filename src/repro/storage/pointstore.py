"""The ``PointStore``: structure-of-arrays storage for 2-D point relations.

A store keeps one relation's points as three contiguous columns — ``xs`` and
``ys`` (float64) and ``pids`` (int64) — plus a *sparse* payload side-table
mapping row index → payload for the (rare) points that carry one.  Everything
above this layer (index blocks, localities, operators, the core algorithms)
identifies points by **row index into a store** and runs its distance math,
ranking and intersection as vectorized numpy kernels over gathered columns.

:class:`~repro.geometry.point.Point` objects exist only at two boundaries:

* **ingest** — ``from_points`` shreds an iterable of points into columns, and
* **results** — ``materialize`` / ``point_at`` rebuild point objects for rows
  that actually reach a query answer (the materialization boundary described
  in ``docs/storage.md``).

Payload attributes are columnar too: :meth:`PointStore.payload_equals` tests
``payload[key] == value`` for any set of rows against a lazily built,
dictionary-encoded per-key column, so attribute filters never touch payload
objects row by row.

Stores are immutable snapshots: every "mutation" (:meth:`extended`,
:meth:`without_rows`) returns a new store, so blocks and neighborhoods built
against an old version keep reading consistent data after a dataset mutation.
Materialized point objects are cached per row, so repeated materialization of
the same row returns the same object.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import GeometryError, InvalidParameterError
from repro.geometry.point import Point

__all__ = ["PointStore", "aligned_rows"]

#: Marks "this payload has no such key" while building a payload column.
_ABSENT = object()


def aligned_rows(
    pids: np.ndarray,
    wanted: np.ndarray,
    order: np.ndarray | None = None,
    sorted_pids: np.ndarray | None = None,
) -> np.ndarray:
    """Index of each ``wanted`` pid in the ``pids`` column (``-1`` = absent).

    The aligned-lookup kernel shared by :meth:`PointStore.rows_aligned` and
    the stream layer's row-table maintenance: one ``searchsorted`` against
    the sorted pid column (``order`` — the column's argsort — and
    ``sorted_pids`` — ``pids[order]`` — are computed when not supplied),
    positions clipped so out-of-range probes compare against a real element,
    and a hit mask filters false positives.  Requires ``pids`` to be
    duplicate-free; callers with duplicate pids must use their own scan.
    """
    out = np.full(len(wanted), -1, dtype=np.int64)
    if not len(pids) or not len(wanted):
        return out
    if order is None:
        order = np.argsort(pids)
    if sorted_pids is None:
        sorted_pids = pids[order]
    pos = np.minimum(np.searchsorted(sorted_pids, wanted), len(sorted_pids) - 1)
    hits = sorted_pids[pos] == wanted
    out[hits] = order[pos[hits]]
    return out


class PointStore:
    """Columnar (structure-of-arrays) storage for one set of 2-D points.

    Parameters
    ----------
    xs, ys:
        Coordinate columns, ``(n,)`` float64.
    pids:
        Identifier column, ``(n,)`` int64.  The library's datasets keep pids
        unique; the store itself does not enforce uniqueness (ad-hoc blocks
        may hold anonymous ``pid == -1`` points).
    payloads:
        Sparse side-table: row index → payload, for rows whose point carries
        a payload.  ``None``/empty when no point has one (the common case).
    validate:
        When true (default), reject non-finite coordinates — the same
        invariant :class:`Point` enforces per object, checked here with one
        vectorized pass.
    """

    __slots__ = (
        "xs",
        "ys",
        "pids",
        "payloads",
        "_points",
        "_pid_order",
        "_sorted_pids",
        "_payload_columns",
    )

    def __init__(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        pids: np.ndarray,
        payloads: dict[int, Any] | None = None,
        validate: bool = True,
    ) -> None:
        self.xs = np.ascontiguousarray(xs, dtype=np.float64)
        self.ys = np.ascontiguousarray(ys, dtype=np.float64)
        self.pids = np.ascontiguousarray(pids, dtype=np.int64)
        if not (len(self.xs) == len(self.ys) == len(self.pids)):
            raise InvalidParameterError(
                "xs, ys and pids columns must have equal length, got "
                f"{len(self.xs)}/{len(self.ys)}/{len(self.pids)}"
            )
        if validate and len(self.xs):
            if not (np.isfinite(self.xs).all() and np.isfinite(self.ys).all()):
                raise GeometryError("point coordinates must be finite")
        self.payloads: dict[int, Any] = payloads or {}
        #: Per-row cache of materialized Point objects (filled lazily).
        self._points: list[Point | None] = []
        #: Lazily built argsort of the pid column for O(log n) pid lookups;
        #: ``None`` until first use, ``False`` when pids are not unique.
        self._pid_order: np.ndarray | bool | None = None
        #: ``pids[_pid_order]``, cached beside it (``None`` until then).
        self._sorted_pids: np.ndarray | None = None
        #: Lazily built per-key payload columns: key → (int32 code per row
        #: with ``-1`` = no such attribute, distinct values by code, and
        #: hashable value → code).  See :meth:`payload_equals`.
        self._payload_columns: dict[str, tuple[np.ndarray, list, dict]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_points(cls, points: Iterable[Point]) -> "PointStore":
        """Shred an iterable of :class:`Point` into columns (ingest boundary).

        Payloads are recorded in the sparse side-table; the point objects
        themselves seed the materialization cache, so a store built from
        points hands the *same* objects back at the result boundary.
        """
        pts = points if isinstance(points, (list, tuple)) else list(points)
        n = len(pts)
        xs = np.empty(n, dtype=np.float64)
        ys = np.empty(n, dtype=np.float64)
        pids = np.empty(n, dtype=np.int64)
        payloads: dict[int, Any] = {}
        for i, p in enumerate(pts):
            xs[i] = p.x
            ys[i] = p.y
            pids[i] = p.pid
            if p.payload is not None:
                payloads[i] = p.payload
        # Point.__post_init__ already guaranteed finite coordinates.
        store = cls(xs, ys, pids, payloads, validate=False)
        store._points = list(pts)
        return store

    @classmethod
    def empty(cls) -> "PointStore":
        """A store with zero rows."""
        return cls(
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.int64),
            validate=False,
        )

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.xs)

    @property
    def size(self) -> int:
        """Number of rows (points) in the store."""
        return len(self.xs)

    def max_pid(self) -> int:
        """The largest pid in the store (``-1`` when empty)."""
        return int(self.pids.max()) if len(self.pids) else -1

    # ------------------------------------------------------------------
    # Vectorized column access
    # ------------------------------------------------------------------
    def coords(self, rows: np.ndarray | None = None) -> np.ndarray:
        """Gather an ``(n, 2)`` coordinate array (all rows, or a subset)."""
        if rows is None:
            return np.column_stack((self.xs, self.ys))
        return np.column_stack((self.xs[rows], self.ys[rows]))

    def distances_to(self, x: float, y: float, rows: np.ndarray | None = None) -> np.ndarray:
        """Euclidean distances from every (selected) row to ``(x, y)``."""
        if rows is None:
            return np.hypot(self.xs - x, self.ys - y)
        return np.hypot(self.xs[rows] - x, self.ys[rows] - y)

    def _ensure_pid_order(self) -> np.ndarray | bool:
        """The cached pid-column argsort, or ``False`` when pids repeat."""
        if self._pid_order is None:
            order = np.argsort(self.pids)
            sorted_pids = self.pids[order]
            unique = len(self.pids) < 2 or bool((np.diff(sorted_pids) != 0).all())
            # The sorted column first: a reader that sees the order sees it too.
            self._sorted_pids = sorted_pids
            self._pid_order = order if unique else False
        return self._pid_order

    def rows_of_pids(self, pids: Iterable[int]) -> np.ndarray:
        """Row indices whose pid is in ``pids`` (store order).

        When the pid column is unique (always true for dataset stores) the
        lookup runs against a cached argsort of the column — O(m log n)
        per call instead of a full-column scan.  Stores with duplicate pids
        (ad-hoc anonymous points) fall back to the scan.
        """
        wanted = np.asarray(
            pids if isinstance(pids, (np.ndarray, list, tuple)) else list(pids),
            dtype=np.int64,
        )
        if len(self.pids) == 0 or len(wanted) == 0:
            return np.empty(0, dtype=np.int64)
        order = self._ensure_pid_order()
        if order is False:
            return np.nonzero(np.isin(self.pids, wanted))[0]
        rows = aligned_rows(self.pids, wanted, order, self._sorted_pids)
        return np.sort(rows[rows >= 0])

    def rows_aligned(self, pids: Iterable[int]) -> np.ndarray:
        """Row index of each requested pid, aligned with the input (``-1`` = absent).

        Unlike :meth:`rows_of_pids` (which returns the matching rows in store
        order), the result here is positionally aligned with ``pids`` so
        callers can pair each pid with per-pid operands (e.g. a move batch's
        new coordinates).  Requires a unique pid column; stores with
        duplicate pids fall back to a scan per pid.
        """
        wanted = np.asarray(
            pids if isinstance(pids, (np.ndarray, list, tuple)) else list(pids),
            dtype=np.int64,
        )
        if len(self.pids) == 0 or len(wanted) == 0:
            return np.full(len(wanted), -1, dtype=np.int64)
        order = self._ensure_pid_order()
        if order is False:
            out = np.full(len(wanted), -1, dtype=np.int64)
            for i, pid in enumerate(wanted.tolist()):
                hits = np.nonzero(self.pids == pid)[0]
                if len(hits):
                    out[i] = int(hits[0])
            return out
        return aligned_rows(self.pids, wanted, order, self._sorted_pids)

    # ------------------------------------------------------------------
    # Payload attribute columns
    # ------------------------------------------------------------------
    def _payload_column(self, key: str) -> tuple[np.ndarray, list, dict]:
        """The dictionary-encoded value column of payload attribute ``key``.

        One pass over the sparse side-table, cached per key for the life of
        the snapshot.  Values that compare (and hash) equal share a code;
        unhashable values each get a code of their own.
        """
        column = self._payload_columns.get(key)
        if column is None:
            codes = np.full(len(self.xs), -1, dtype=np.int32)
            values: list = []
            index: dict = {}
            rows: list[int] = []
            row_codes: list[int] = []
            for row, payload in self.payloads.items():
                # Exact dicts (the common payload) skip the ABC check.
                if type(payload) is not dict and not isinstance(payload, Mapping):
                    continue
                value = payload.get(key, _ABSENT)
                if value is _ABSENT:
                    continue
                try:
                    code = index.get(value)
                    if code is None:
                        code = index[value] = len(values)
                        values.append(value)
                except TypeError:  # unhashable value
                    code = len(values)
                    values.append(value)
                rows.append(row)
                row_codes.append(code)
            if rows:
                codes[rows] = row_codes
            column = self._payload_columns[key] = (codes, values, index)
        return column

    def payload_equals(
        self, key: str, value: Any, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """Mask of the (selected) rows whose payload has ``payload[key] == value``.

        Rows without a mapping payload, or whose payload lacks ``key``, never
        match — the semantics of the algebra's ``AttrFilter``.
        """
        codes, values, index = self._payload_column(key)
        column = codes if rows is None else codes[rows]
        try:
            hit = index.get(value)
        except TypeError:  # unhashable probe: compare against every value
            hit = None
            all_indexed = False
        else:
            all_indexed = len(index) == len(values)
        if all_indexed:
            # Every stored value is hashable, so one dictionary probe finds
            # the only candidate; ``==`` still decides (NaN equals nothing).
            matches = [hit] if hit is not None and values[hit] == value else []
        else:
            matches = [code for code, stored in enumerate(values) if stored == value]
        if not matches:
            return np.zeros(len(column), dtype=bool)
        if len(matches) == 1:
            return column == matches[0]
        return np.isin(column, matches)

    # ------------------------------------------------------------------
    # Materialization boundary
    # ------------------------------------------------------------------
    def _ensure_cache(self) -> list[Point | None]:
        if len(self._points) != len(self.xs):
            self._points = [None] * len(self.xs)
        return self._points

    def point_at(self, row: int) -> Point:
        """Materialize (and cache) the :class:`Point` for one row."""
        cache = self._ensure_cache()
        p = cache[row]
        if p is None:
            p = Point(
                float(self.xs[row]),
                float(self.ys[row]),
                int(self.pids[row]),
                self.payloads.get(row),
            )
            cache[row] = p
        return p

    def materialize(self, rows: Sequence[int] | np.ndarray) -> list[Point]:
        """Materialize point objects for ``rows`` (result boundary)."""
        cache = self._ensure_cache()
        point_at = self.point_at
        index = rows.tolist() if isinstance(rows, np.ndarray) else [int(r) for r in rows]
        # Already-materialized rows are one list lookup; only misses pay
        # for a Point construction.
        return [cache[row] or point_at(row) for row in index]

    def iter_points(self) -> Iterator[Point]:
        """Iterate over every row as a (cached) :class:`Point`."""
        for row in range(len(self.xs)):
            yield self.point_at(row)

    # ------------------------------------------------------------------
    # Snapshot "mutations" (each returns a new store)
    # ------------------------------------------------------------------
    def take(self, rows: np.ndarray | Sequence[int]) -> "PointStore":
        """A new store holding only ``rows``, in the given order."""
        idx = np.asarray(rows, dtype=np.int64)
        payloads: dict[int, Any] = {}
        if self.payloads:
            for new_row, old_row in enumerate(idx.tolist()):
                if old_row in self.payloads:
                    payloads[new_row] = self.payloads[old_row]
        child = PointStore(
            self.xs[idx], self.ys[idx], self.pids[idx], payloads, validate=False
        )
        if len(self._points) == len(self.xs):
            # Share already-materialized point objects with the child store.
            child._points = [self._points[old] for old in idx.tolist()]
        return child

    def extended(self, other: "PointStore") -> "PointStore":
        """A new store with ``other``'s rows appended after this store's."""
        payloads = dict(self.payloads)
        if other.payloads:
            offset = len(self.xs)
            for row, payload in other.payloads.items():
                payloads[offset + row] = payload
        child = PointStore(
            np.concatenate((self.xs, other.xs)),
            np.concatenate((self.ys, other.ys)),
            np.concatenate((self.pids, other.pids)),
            payloads,
            validate=False,
        )
        if self._points or other._points:
            mine = self._points if self._points else [None] * len(self.xs)
            theirs = other._points if other._points else [None] * len(other.xs)
            child._points = list(mine) + list(theirs)
        return child

    def moved(self, rows: np.ndarray | Sequence[int], xs: np.ndarray, ys: np.ndarray) -> "PointStore":
        """A new store with ``rows`` relocated to the given coordinates.

        The batch-update path for in-place-style moves: only the *dirty*
        columns are copied — ``xs``/``ys`` get a copy-on-write with the moved
        rows overwritten, while the untouched ``pids`` column (and with it
        the cached pid order and sorted pid column) and the payload
        side-table are shared with the parent store.  Row numbering is unchanged, so blocks and
        neighborhoods that reference rows by index stay aligned; materialized
        point objects are invalidated only for the moved rows.
        """
        idx = np.asarray(rows, dtype=np.int64)
        new_xs = self.xs.copy()
        new_ys = self.ys.copy()
        new_xs[idx] = np.asarray(xs, dtype=np.float64)
        new_ys[idx] = np.asarray(ys, dtype=np.float64)
        if len(idx) and not (
            np.isfinite(new_xs[idx]).all() and np.isfinite(new_ys[idx]).all()
        ):
            raise GeometryError("point coordinates must be finite")
        child = PointStore(new_xs, new_ys, self.pids, self.payloads, validate=False)
        # The pid column is unchanged: share its order and sorted copy.
        child._sorted_pids = self._sorted_pids
        child._pid_order = self._pid_order
        child._payload_columns = self._payload_columns  # side-table shared
        if len(self._points) == len(self.xs):
            cache = list(self._points)
            for row in idx.tolist():
                cache[row] = None  # stale coordinates: rematerialize on demand
            child._points = cache
        return child

    def without_rows(self, rows: np.ndarray | Sequence[int]) -> "PointStore":
        """A new store with ``rows`` removed (remaining order preserved)."""
        mask = np.ones(len(self.xs), dtype=bool)
        mask[np.asarray(rows, dtype=np.int64)] = False
        return self.take(np.nonzero(mask)[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PointStore(rows={len(self.xs)}, payloads={len(self.payloads)})"
