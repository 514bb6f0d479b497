"""The ``Neighborhood`` result type returned by every kNN computation.

A neighborhood is the answer of ``getkNN(p, k)``: the ``k`` points nearest to
the query point, ordered by ``(distance, pid)`` so that ties are resolved
deterministically.  The class exposes exactly the accessors the paper's
pseudocode uses: ``nearest``, ``farthest``, membership tests, intersection and
"farthest from another point" (needed by the 2-kNN-select algorithm).

A neighborhood has one representation: a
:class:`~repro.storage.pointstore.PointStore`, the member ``rows`` of it in
``(distance, pid)`` order and their distances.  The kNN kernels build it over
the relation's own store (:meth:`Neighborhood.from_rows`); a neighborhood
built from point objects, merged across shards or unpickled owns a compact
store holding just its members.  :class:`~repro.geometry.point.Point` objects
are materialized only when a caller asks for them (the result boundary);
thresholds, intersections and merges read the arrays directly.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro import kernels
from repro.exceptions import InvalidParameterError
from repro.geometry.distance import distances_to_point
from repro.geometry.point import Point, PointArray
from repro.geometry.rectangle import Rect
from repro.storage.pointstore import PointStore

__all__ = ["Neighborhood"]


class Neighborhood:
    """The k nearest neighbors of a query point.

    Parameters
    ----------
    center:
        The query point whose neighborhood this is.
    k:
        The requested number of neighbors.  The neighborhood may contain fewer
        points when the dataset itself has fewer than ``k`` points.
    members:
        The neighbor points, in ascending ``(distance, pid)`` order (shredded
        into a compact store whose cache hands back these very objects).
    distances:
        The distance of each member from ``center`` (same order).
    """

    __slots__ = (
        "center",
        "k",
        "_store",
        "_rows",
        "_dist_arr",
        "_points",
        "_distances",
        "_pid_arr",
        "_pid_set",
        "_coords",
    )

    def __init__(
        self,
        center: Point,
        k: int,
        members: Sequence[Point],
        distances: Sequence[float],
    ) -> None:
        if k <= 0:
            raise InvalidParameterError(f"k must be positive, got {k}")
        if len(members) != len(distances):
            raise InvalidParameterError("members and distances must have equal length")
        self._bind(
            center, k, PointStore.from_points(members), np.arange(len(members)), distances
        )

    def _bind(
        self,
        center: Point,
        k: int,
        store: PointStore,
        rows: np.ndarray,
        distances: np.ndarray | Sequence[float],
    ) -> None:
        self.center = center
        self.k = int(k)
        self._store = store
        self._rows = np.ascontiguousarray(rows)
        self._dist_arr = np.ascontiguousarray(distances, dtype=np.float64)
        self._points: tuple[Point, ...] | None = None
        self._distances: tuple[float, ...] | None = None
        self._pid_arr: np.ndarray | None = None
        self._pid_set: frozenset[int] | None = None
        self._coords: PointArray | None = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        center: Point,
        k: int,
        store: PointStore,
        rows: np.ndarray,
        distances: np.ndarray,
    ) -> "Neighborhood":
        """Build a neighborhood from store rows (the columnar kNN path).

        ``rows`` are store row indices in ascending ``(distance, pid)`` order
        and ``distances`` their (already computed) distances from ``center``.
        No point objects are created until a member accessor is used.
        """
        if k <= 0:
            raise InvalidParameterError(f"k must be positive, got {k}")
        nbr = cls.__new__(cls)
        nbr._bind(center, k, store, rows, distances)
        return nbr

    @classmethod
    def from_candidates(cls, center: Point, k: int, candidates: Iterable[Point]) -> "Neighborhood":
        """Build the neighborhood by ranking ``candidates`` around ``center``.

        The candidates are ranked by ``(distance, pid)`` and the top ``k`` are
        kept.  This is the brute-force reference ranking
        (:func:`~repro.locality.brute.brute_force_knn`); the columnar kernels
        in :mod:`repro.locality.knn` must produce identical neighborhoods.
        Distances are ``np.hypot``, the function the kernels rank by
        (``math.hypot`` can differ from it in the last ulp, which would move
        a tie).
        """
        store = PointStore.from_points(candidates)
        dists = store.distances_to(center.x, center.y)
        ranked = np.lexsort((store.pids, dists))[: max(k, 0)]
        return cls(center, k, store.materialize(ranked), dists[ranked])

    def __reduce__(self):
        """Pickle the members' columns, not the store.

        A neighborhood over a relation's store must not drag the whole store
        across a process boundary (the shard worker pool): pickling ships
        the members' ``xs``/``ys``/``pids`` arrays, their payloads and the
        distances, and unpickling builds a compact store from them.
        """
        store, rows = self._store, self._rows
        payloads = store.payloads
        if payloads:
            payloads = {
                i: payloads[row] for i, row in enumerate(rows.tolist()) if row in payloads
            }
        return (
            _rebuild_neighborhood,
            (
                self.center,
                self.k,
                store.xs[rows],
                store.ys[rows],
                store.pids[rows],
                payloads,
                self._dist_arr,
            ),
        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def points(self) -> tuple[Point, ...]:
        """The neighbors in ascending distance order (materialized lazily)."""
        if self._points is None:
            self._points = tuple(self._store.materialize(self._rows))
        return self._points

    @property
    def distances(self) -> tuple[float, ...]:
        """Distances of the neighbors from :attr:`center` (ascending)."""
        if self._distances is None:
            self._distances = tuple(float(d) for d in self._dist_arr)
        return self._distances

    @property
    def distance_array(self) -> np.ndarray:
        """Member distances as a float64 array (no materialization)."""
        return self._dist_arr

    @property
    def pid_array(self) -> np.ndarray:
        """Member pids as an int64 array (no materialization)."""
        if self._pid_arr is None:
            self._pid_arr = self._store.pids[self._rows]
        return self._pid_arr

    @property
    def store(self) -> PointStore:
        """The store :attr:`rows` index into (the relation's own, or a
        compact one holding just the members)."""
        return self._store

    @property
    def rows(self) -> np.ndarray:
        """Member row indices into :attr:`store`, in ``(distance, pid)`` order."""
        return self._rows

    @property
    def is_full(self) -> bool:
        """True when the neighborhood actually holds ``k`` points."""
        return len(self._dist_arr) >= self.k

    @property
    def nearest(self) -> Point:
        """The nearest neighbor (the paper's ``nbr.nearest``)."""
        if not len(self._dist_arr):
            raise InvalidParameterError("empty neighborhood has no nearest member")
        return self._member_at(0)

    @property
    def farthest(self) -> Point:
        """The farthest of the k neighbors (the paper's ``nbr.farthest``)."""
        if not len(self._dist_arr):
            raise InvalidParameterError("empty neighborhood has no farthest member")
        return self._member_at(len(self._dist_arr) - 1)

    def _member_at(self, i: int) -> Point:
        """One member point (only that row is materialized)."""
        return self._store.point_at(int(self._rows[i]))

    @property
    def nearest_distance(self) -> float:
        """Distance from the center to the nearest neighbor."""
        if not len(self._dist_arr):
            raise InvalidParameterError("empty neighborhood has no nearest member")
        return float(self._dist_arr[0])

    @property
    def farthest_distance(self) -> float:
        """Distance from the center to the farthest neighbor."""
        if not len(self._dist_arr):
            raise InvalidParameterError("empty neighborhood has no farthest member")
        return float(self._dist_arr[-1])

    def __len__(self) -> int:
        return len(self._dist_arr)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def __contains__(self, point: Point) -> bool:
        return point.pid in self.pids

    def contains_pid(self, pid: int) -> bool:
        """Membership test by point identifier."""
        return pid in self.pids

    @property
    def pids(self) -> frozenset[int]:
        """The identifiers of the member points."""
        if self._pid_set is None:
            self._pid_set = frozenset(self.pid_array.tolist())
        return self._pid_set

    # ------------------------------------------------------------------
    # Queries relative to *other* points (used by the algorithms)
    # ------------------------------------------------------------------
    @property
    def coords(self) -> PointArray:
        """Member coordinates as an ``(n, 2)`` array (lazily gathered)."""
        if self._coords is None:
            self._coords = self._store.coords(self._rows)
        return self._coords

    def distance_to_nearest_member(self, q: Point) -> float:
        """Distance from ``q`` to the member closest to ``q``.

        This is the Counting algorithm's *search threshold*: the distance from
        an outer point ``e1`` to the nearest point in the neighborhood of the
        select's focal point.
        """
        if not len(self._dist_arr):
            raise InvalidParameterError("empty neighborhood")
        return float(distances_to_point(self.coords, q).min())

    def distance_to_farthest_member(self, q: Point) -> float:
        """Distance from ``q`` to the member farthest from ``q``.

        This is the 2-kNN-select algorithm's search threshold (the paper's
        ``nbr1.farthestTof2``).
        """
        if not len(self._dist_arr):
            raise InvalidParameterError("empty neighborhood")
        return float(distances_to_point(self.coords, q).max())

    def farthest_member_from(self, q: Point) -> Point:
        """The member that is farthest from ``q``."""
        if not len(self._dist_arr):
            raise InvalidParameterError("empty neighborhood")
        dists = distances_to_point(self.coords, q)
        return self._member_at(int(dists.argmax()))

    # ------------------------------------------------------------------
    # Set operations
    # ------------------------------------------------------------------
    def intersection(self, other: "Neighborhood") -> list[Point]:
        """The paper's ``intersect(P, Q)``: members common to both neighborhoods.

        Members are matched by store row when both neighborhoods are over one
        store (no pid gather), by ``pid`` otherwise (a shard's store against
        the base store, say) — one sort of ``other``'s keys and one
        ``searchsorted`` either way — and returned in this neighborhood's
        distance order; only the surviving members are materialized.
        """
        if not len(self._dist_arr) or not len(other._dist_arr):
            return []
        if self._store is other._store:
            mine, theirs = self._rows, other._rows
        else:
            mine, theirs = self.pid_array, other.pid_array
        theirs = np.sort(theirs)
        slots = np.searchsorted(theirs, mine)
        slots[slots == len(theirs)] = 0
        return self._materialize(np.nonzero(theirs[slots] == mine)[0])

    def within(self, window: Rect) -> list[Point]:
        """The members inside the closed ``window``, in distance order.

        One ``window_mask`` over the member coordinates (gathered from the
        store columns); only the survivors are materialized.
        """
        if not len(self._dist_arr):
            return []
        xs, ys = self.coords.T
        return self._materialize(np.nonzero(kernels.window_mask(xs, ys, *window.as_tuple()))[0])

    def _materialize(self, positions: np.ndarray) -> list[Point]:
        """The member points at ``positions`` (only those are materialized)."""
        return self._store.materialize(self._rows[positions])

    def intersection_pids(self, other: "Neighborhood") -> frozenset[int]:
        """Identifiers common to both neighborhoods."""
        return self.pids & other.pids

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Neighborhood(center={self.center!r}, k={self.k}, size={len(self._dist_arr)})"
        )


def _rebuild_neighborhood(
    center: Point,
    k: int,
    xs: np.ndarray,
    ys: np.ndarray,
    pids: np.ndarray,
    payloads: dict,
    distances: np.ndarray,
) -> Neighborhood:
    """Unpickle helper: a neighborhood over a compact store of its members
    (see ``__reduce__``)."""
    store = PointStore(xs, ys, pids, payloads, validate=False)
    return Neighborhood.from_rows(center, k, store, np.arange(len(pids)), distances)
