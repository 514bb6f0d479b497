"""The block abstraction shared by every spatial index.

A block is a rectangular region of space together with the points it contains.
The paper's algorithms rely on three pieces of per-block information:

* the number of points in the block (Section 2: "the index maintains the count
  of points in each block"),
* the block's center and diagonal (Block-Marking search thresholds), and
* MINDIST/MAXDIST from a query point to the block.

Since the columnar refactor a block does not own point objects: it holds an
``int32`` array of **member row indices** into its dataset's
:class:`~repro.storage.pointstore.PointStore` — for an index's blocks, a
view of the index's CSR member rows (:class:`~repro.index.base.SpatialIndex`).
Coordinates and pids are zero-copy-style gathers from the store's columns;
:class:`Point` objects are materialized lazily (and cached) only when a
caller actually iterates the block's points — pruned blocks never
materialize anything.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from repro.geometry.distance import maxdist_point_rect, mindist_point_rect
from repro.geometry.point import Point, PointArray
from repro.geometry.rectangle import Rect
from repro.storage.pointstore import PointStore

__all__ = ["Block"]

_EMPTY_MEMBERS = np.empty(0, dtype=np.int32)


class Block:
    """A rectangular index block holding a set of points.

    Blocks are created by the index builders and are treated as immutable by
    the query algorithms.  ``block_id`` is unique within one index and is used
    for hashing and for per-query marks kept in external dictionaries (the
    algorithms never mutate blocks).

    A block is ``store`` plus ``members``, a row-index array into the store;
    callers holding point objects shred them with
    :meth:`PointStore.from_points` first.
    """

    __slots__ = ("block_id", "rect", "store", "_members", "_points", "_coords", "tag")

    def __init__(
        self,
        block_id: int,
        rect: Rect,
        store: PointStore,
        members: np.ndarray,
        tag: Any = None,
    ) -> None:
        self.block_id = int(block_id)
        self.rect = rect
        #: The columnar store the member rows index into.
        self.store = store
        self._members = (
            np.ascontiguousarray(members, dtype=np.int32) if len(members) else _EMPTY_MEMBERS
        )
        self._points: tuple[Point, ...] | None = None
        self._coords: PointArray | None = None
        #: Free-form tag used by index builders (e.g. grid cell coordinates).
        self.tag = tag

    # ------------------------------------------------------------------
    # Contents
    # ------------------------------------------------------------------
    @property
    def member_ids(self) -> np.ndarray:
        """Row indices of this block's points in :attr:`store` (``int32``)."""
        return self._members

    @property
    def points(self) -> tuple[Point, ...]:
        """The points stored in this block (materialized lazily, cached)."""
        if self._points is None:
            self._points = tuple(self.store.materialize(self._members))
        return self._points

    @property
    def count(self) -> int:
        """Number of points in the block (the paper's ``numberOfPoints``)."""
        return len(self._members)

    @property
    def is_empty(self) -> bool:
        """True when the block holds no point."""
        return len(self._members) == 0

    @property
    def coords(self) -> PointArray:
        """``(count, 2)`` coordinate array gathered from the store (cached)."""
        if self._coords is None:
            self._coords = self.store.coords(self._members)
        return self._coords

    @property
    def pids(self) -> np.ndarray:
        """The members' pids gathered from the store (``int64``)."""
        return self.store.pids[self._members]

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def __len__(self) -> int:
        return len(self._members)

    # ------------------------------------------------------------------
    # Geometry shortcuts used by the algorithms
    # ------------------------------------------------------------------
    @property
    def center(self) -> Point:
        """Center of the block (used by Block-Marking preprocessing)."""
        return self.rect.center

    @property
    def diagonal(self) -> float:
        """Length of the block diagonal (the paper's ``d``)."""
        return self.rect.diagonal

    def mindist(self, p: Point) -> float:
        """MINDIST between ``p`` and this block."""
        return mindist_point_rect(p, self.rect)

    def maxdist(self, p: Point) -> float:
        """MAXDIST between ``p`` and this block."""
        return maxdist_point_rect(p, self.rect)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def __hash__(self) -> int:
        return hash((id(self.__class__), self.block_id))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Block):
            return NotImplemented
        return self is other or (self.block_id == other.block_id and self.rect == other.rect)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        r = self.rect
        return (
            f"Block(id={self.block_id}, n={self.count}, "
            f"rect=({r.xmin:.4g}, {r.ymin:.4g}, {r.xmax:.4g}, {r.ymax:.4g}))"
        )
