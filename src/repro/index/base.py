"""Abstract base class for the block-based spatial indexes.

The interface is intentionally small: the paper's algorithms only need block
enumeration, per-block counts, MINDIST/MAXDIST orderings from a point, and
point location.  Vectorized MINDIST/MAXDIST computation over all blocks is
provided here once so every concrete index gets efficient orderings for free.
"""

from __future__ import annotations

import abc
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro import kernels
from repro.exceptions import EmptyDatasetError
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.index.block import Block
from repro.index.orderings import BlockDistance, maxdist_ordering, mindist_ordering
from repro.storage.pointstore import PointStore
from repro.storage.update import StoreChange

__all__ = ["SpatialIndex"]


class SpatialIndex(abc.ABC):
    """A space-partitioning index over a static set of 2-D points.

    Concrete subclasses build their blocks at construction time and then call
    :meth:`_finalize` with the resulting block list; the base class takes care
    of the bounds, the vectorized per-block bound arrays, and the orderings.
    """

    def __init__(self) -> None:
        self._blocks: tuple[Block, ...] = ()
        self._bounds: Rect | None = None
        self._store: PointStore | None = None
        self._block_bounds: np.ndarray = np.empty((0, 4), dtype=np.float64)
        self._bound_columns: np.ndarray = np.empty((4, 0), dtype=np.float64)
        self._block_counts: np.ndarray = np.empty(0, dtype=np.int64)
        self._all_block_ids: np.ndarray = np.empty(0, dtype=np.int64)
        self._row_block_ids: np.ndarray | None = None
        self._block_members: tuple[np.ndarray, ...] | None = None
        self._num_points = 0

    # ------------------------------------------------------------------
    # Construction support for subclasses
    # ------------------------------------------------------------------
    @staticmethod
    def _as_store(points: "Iterable[Point] | PointStore") -> PointStore:
        """Normalize a builder's input into a :class:`PointStore`."""
        if isinstance(points, PointStore):
            return points
        return PointStore.from_points(points)

    def _finalize(
        self, blocks: Sequence[Block], bounds: Rect, store: PointStore | None = None
    ) -> None:
        """Record the final block list; called once by subclass constructors."""
        self._blocks = tuple(blocks)
        self._bounds = bounds
        self._store = store
        if self._blocks:
            self._block_bounds = np.array(
                [b.rect.as_tuple() for b in self._blocks], dtype=np.float64
            )
            self._block_counts = np.array([b.count for b in self._blocks], dtype=np.int64)
        else:
            self._block_bounds = np.empty((0, 4), dtype=np.float64)
            self._block_counts = np.empty(0, dtype=np.int64)
        # Contiguous xmin / ymin / xmax / ymax rows: what the one-point kernels
        # and the gather of ``candidate_blocks`` ids read, instead of the
        # strided views of ``_block_bounds.T``.
        self._bound_columns = np.ascontiguousarray(self._block_bounds.T)
        self._all_block_ids = np.arange(len(self._blocks), dtype=np.int64)
        self._num_points = int(self._block_counts.sum())
        self._block_members = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def blocks(self) -> tuple[Block, ...]:
        """All blocks of the index (their order is arbitrary but stable)."""
        return self._blocks

    @property
    def num_blocks(self) -> int:
        return len(self._blocks)

    @property
    def num_points(self) -> int:
        """Total number of indexed points."""
        return self._num_points

    @property
    def bounds(self) -> Rect:
        """The spatial extent covered by the index."""
        if self._bounds is None:
            raise EmptyDatasetError("index has not been built")
        return self._bounds

    @property
    def block_counts(self) -> np.ndarray:
        """Per-block point counts, aligned with :attr:`blocks`."""
        return self._block_counts

    @property
    def block_bounds(self) -> np.ndarray:
        """Per-block ``(xmin, ymin, xmax, ymax)`` rows, aligned with :attr:`blocks`.

        The vectorized MINDIST/MAXDIST kernels (here and in the batched prune
        phases of the core algorithms) all read from this one table.
        """
        return self._block_bounds

    @property
    def bound_columns(self) -> np.ndarray:
        """:attr:`block_bounds` column-major: a contiguous ``(4, num_blocks)``
        array whose rows are the ``xmin, ymin, xmax, ymax`` columns."""
        return self._bound_columns

    @property
    def block_members(self) -> tuple[np.ndarray, ...]:
        """Per-block member-row arrays, aligned with :attr:`blocks` (cached).

        The batched kNN gathers candidate rows by block position on every
        call; indexes are immutable, so the tuple is built once.
        """
        if self._block_members is None:
            self._block_members = tuple(b.member_ids for b in self._blocks)
        return self._block_members

    @property
    def store(self) -> PointStore | None:
        """The columnar store every block's member rows index into.

        ``None`` only for indexes finalized without a shared store (legacy
        block lists built directly from point sequences).
        """
        return self._store

    @property
    def row_block_ids(self) -> np.ndarray:
        """Owning block id of every store row (built once, cached).

        The inverse of the blocks' member arrays: one scatter over them
        yields a ``len(store)`` table that turns "which block holds this
        row?" into a gather.  Indexes are immutable, so the table is a pure
        function of the build and amortizes across queries.
        """
        if self._store is None:
            raise EmptyDatasetError("index has no shared store")
        if self._row_block_ids is None:
            table = np.empty(len(self._store), dtype=np.int64)
            for block in self._blocks:
                table[block.member_ids] = block.block_id
            self._row_block_ids = table
        return self._row_block_ids

    def points(self) -> Iterator[Point]:
        """Iterate over every indexed point (block by block)."""
        for block in self._blocks:
            yield from block

    def __len__(self) -> int:
        return self._num_points

    # ------------------------------------------------------------------
    # Vectorized metrics
    # ------------------------------------------------------------------
    def mindists(self, p: Point) -> np.ndarray:
        """MINDIST from ``p`` to every block, aligned with :attr:`blocks`."""
        if self._block_bounds.size == 0:
            return np.empty(0, dtype=np.float64)
        return kernels.point_block_mindists(p.x, p.y, *self._bound_columns)

    def maxdists(self, p: Point) -> np.ndarray:
        """MAXDIST from ``p`` to every block, aligned with :attr:`blocks`."""
        if self._block_bounds.size == 0:
            return np.empty(0, dtype=np.float64)
        return kernels.point_block_maxdists(p.x, p.y, *self._bound_columns)

    def candidate_blocks(self, p: Point, k: int) -> np.ndarray:
        """Ascending ids of the blocks the locality of ``(p, k)`` can draw on.

        The contract: with ``M`` the exact MAXDIST-phase bound of ``(p, k)``
        (see :func:`repro.locality.knn.block_phase`), the result holds every
        block with MAXDIST <= ``M`` and every block with MINDIST <= ``M`` —
        so ``M`` and the locality computed over the candidates alone equal
        the ones computed over all blocks.  The default is every block;
        indexes whose geometry lets them bound ``M`` cheaply (the grid)
        return fewer.  Callers must not write to the array.
        """
        return self._all_block_ids

    # ------------------------------------------------------------------
    # Orderings (Section 2 of the paper)
    # ------------------------------------------------------------------
    def mindist_order(self, p: Point) -> Iterator[BlockDistance]:
        """Blocks in increasing MINDIST order from ``p`` (lazy)."""
        return mindist_ordering(self._blocks, p, self.mindists(p))

    def maxdist_order(self, p: Point) -> Iterator[BlockDistance]:
        """Blocks in increasing MAXDIST order from ``p`` (lazy)."""
        return maxdist_ordering(self._blocks, p, self.maxdists(p))

    # ------------------------------------------------------------------
    # Incremental repair
    # ------------------------------------------------------------------
    def repaired(self, store: PointStore, change: "StoreChange") -> "SpatialIndex | None":
        """A new index over ``store``, repaired block-locally — or ``None``.

        ``change`` describes how ``store`` differs from the store this index
        was built on (moved rows, removed rows, appended tail; see
        :class:`~repro.storage.update.StoreChange`).  Indexes that can patch
        only the affected blocks return the repaired index; the default is
        ``None`` — "unsupported, rebuild from scratch" — which is what the
        structural indexes (quadtree, R-tree) do, since a mutation can change
        their decomposition.  The repaired index must be *identical* to a
        full rebuild over ``store`` within the original spatial bounds;
        implementations must decline (return ``None``) whenever that cannot
        be guaranteed, e.g. when a new coordinate falls outside the indexed
        extent.
        """
        return None

    # ------------------------------------------------------------------
    # Point location
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def locate(self, p: Point) -> Block | None:
        """Return the block whose region contains ``p`` (``None`` if outside).

        For indexes whose blocks do not tile the space (the R-tree), the block
        whose rectangle contains ``p`` and holds the point with the smallest
        distance is returned; ``None`` if no block rectangle contains ``p``.
        """

    # ------------------------------------------------------------------
    # Convenience queries
    # ------------------------------------------------------------------
    def blocks_intersecting(self, rect: Rect) -> list[Block]:
        """All blocks whose rectangle intersects ``rect`` (vectorized test)."""
        if not self._blocks:
            return []
        xmin, ymin, xmax, ymax = self._block_bounds.T
        mask = (
            (xmin <= rect.xmax)
            & (rect.xmin <= xmax)
            & (ymin <= rect.ymax)
            & (rect.ymin <= ymax)
        )
        return [self._blocks[i] for i in np.nonzero(mask)[0]]

    def blocks_within(self, p: Point, radius: float) -> list[Block]:
        """All blocks whose MINDIST from ``p`` is at most ``radius``."""
        if not self._blocks:
            return []
        mind = self.mindists(p)
        return [self._blocks[i] for i in np.nonzero(mind <= radius)[0]]

    def count_points_within_maxdist(self, p: Point, radius: float) -> int:
        """Total count of points in blocks *completely* inside ``radius`` of ``p``.

        "Completely inside" means MAXDIST(block, p) <= radius; this is the
        quantity the Counting algorithm accumulates.
        """
        if not self._blocks:
            return 0
        maxd = self.maxdists(p)
        return int(self._block_counts[maxd <= radius].sum())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(points={self.num_points}, blocks={self.num_blocks})"
