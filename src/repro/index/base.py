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

    Block membership is one CSR pair: ``_member_rows`` (``int32``) lists the
    indexed store rows block after block, and block ``b``'s members are
    ``_member_rows[_offsets[b]:_offsets[b + 1]]``.  The per-block counts, the
    member arrays and the row → block table are derived from it, and a
    :class:`Block` is a view built on demand by :meth:`block` and cached.

    Concrete subclasses either install the layout themselves (the grid) or
    build their blocks and call :meth:`_finalize` with the list, which
    derives the same pair from it; the base class takes care of the bounds,
    the vectorized per-block bound arrays, and the orderings.
    """

    #: The store every member row indexes into (installed by ``_set_layout``).
    _store: PointStore

    def __init__(self) -> None:
        self._bounds: Rect | None = None
        self._block_bounds: np.ndarray = np.empty((0, 4), dtype=np.float64)
        self._bound_columns: np.ndarray = np.empty((4, 0), dtype=np.float64)
        self._all_block_ids: np.ndarray = np.empty(0, dtype=np.int64)
        #: Lazily built block rectangles, by id (shared by repaired copies).
        self._block_rects: list[Rect | None] = []
        self._set_membership(np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int64))

    # ------------------------------------------------------------------
    # Construction support for subclasses
    # ------------------------------------------------------------------
    @staticmethod
    def _as_store(points: "Iterable[Point] | PointStore") -> PointStore:
        """Normalize a builder's input into a :class:`PointStore`."""
        if isinstance(points, PointStore):
            return points
        return PointStore.from_points(points)

    def _set_layout(self, store: PointStore, bounds: Rect, bound_columns: np.ndarray) -> None:
        """Record the store, the extent and the ``(4, num_blocks)`` block
        bound columns."""
        self._store = store
        self._bounds = bounds
        # Contiguous xmin / ymin / xmax / ymax rows: what the one-point kernels
        # and the gather of ``candidate_blocks`` ids read; the ``(m, 4)`` row
        # table is what the matrix kernels and rectangle tests read.
        self._bound_columns = bound_columns
        self._block_bounds = np.ascontiguousarray(bound_columns.T)
        self._all_block_ids = np.arange(bound_columns.shape[1], dtype=np.int64)
        self._block_rects = [None] * bound_columns.shape[1]

    def _set_membership(
        self,
        member_rows: np.ndarray,
        counts: np.ndarray,
        row_block_ids: np.ndarray | None = None,
    ) -> None:
        """Install the CSR membership pair and drop every view derived from
        the previous one (``row_block_ids``, when known, is its row → block
        column; otherwise it is derived on first use)."""
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        self._member_rows = member_rows
        self._offsets = offsets
        self._block_counts = counts
        self._num_points = int(offsets[-1])
        self._row_block_ids = row_block_ids
        self._block_members: tuple[np.ndarray, ...] | None = None
        self._block_cache: list[Block | None] = [None] * len(counts)
        self._blocks: tuple[Block, ...] | None = None

    def _finalize(self, blocks: Sequence[Block], bounds: Rect, store: PointStore) -> None:
        """Install a block list built over ``store``; called once by subclass
        constructors.

        The CSR pair is the blocks' member arrays concatenated in block order,
        and each block's array becomes its slice of it.
        """
        blocks = tuple(blocks)
        self._set_layout(
            store,
            bounds,
            np.array([b.rect.as_tuple() for b in blocks], dtype=np.float64).reshape(-1, 4).T.copy(),
        )
        counts = np.array([b.count for b in blocks], dtype=np.int64)
        member_rows = (
            np.concatenate([b.member_ids for b in blocks]).astype(np.int32, copy=False)
            if blocks
            else np.empty(0, dtype=np.int32)
        )
        self._set_membership(member_rows, counts)
        for position, block in enumerate(blocks):
            if block.count:
                block._members = self._member_slice(position)
        self._block_rects = [b.rect for b in blocks]
        self._block_cache = list(blocks)
        self._blocks = blocks

    # ------------------------------------------------------------------
    # Blocks as views of the membership
    # ------------------------------------------------------------------
    def _member_slice(self, block_id: int) -> np.ndarray:
        """Block ``block_id``'s member rows: a view of ``_member_rows`` (the
        one in :attr:`block_members` once that is cut)."""
        members = self._block_members
        if members is not None:
            return members[block_id]
        offsets = self._offsets
        return self._member_rows[offsets[block_id] : offsets[block_id + 1]]

    def _make_block(self, block_id: int) -> Block:
        """Build the :class:`Block` view of one id (see :meth:`block`)."""
        rect = self._block_rects[block_id]
        if rect is None:
            rect = self._block_rects[block_id] = Rect(*self._block_bounds[block_id].tolist())
        return Block(
            block_id,
            rect,
            tag=self._block_tag(block_id),
            store=self._store,
            members=self._member_slice(block_id),
        )

    def _block_tag(self, block_id: int) -> object:
        """The builder's tag for block ``block_id`` (``None`` by default)."""
        return None

    def block(self, block_id: int) -> Block:
        """The block with id ``block_id`` (its position in :attr:`blocks`).

        Built on first request and cached; readers on other threads see
        either nothing or the complete block (one assignment publishes it).
        """
        block = self._block_cache[block_id]
        if block is None:
            block = self._block_cache[block_id] = self._make_block(block_id)
        return block

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def blocks(self) -> tuple[Block, ...]:
        """All blocks of the index, in id order (built on first use)."""
        blocks = self._blocks
        if blocks is None:
            blocks = self._blocks = tuple(map(self.block, range(self.num_blocks)))
        return blocks

    @property
    def num_blocks(self) -> int:
        """Number of blocks (empty ones included)."""
        return len(self._block_counts)

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
    def member_rows(self) -> np.ndarray:
        """Every indexed row, block after block (``int32``; the CSR rows)."""
        return self._member_rows

    @property
    def offsets(self) -> np.ndarray:
        """Block ``b``'s members are ``member_rows[offsets[b]:offsets[b + 1]]``."""
        return self._offsets

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
        call, so the slices of the CSR rows are cut once per index (the
        blocks' own arrays when they are already built).
        """
        members = self._block_members
        if members is None:
            if self._blocks is not None:
                members = tuple(b.member_ids for b in self._blocks)
            else:
                rows = self._member_rows
                bounds = self._offsets.tolist()
                members = tuple(rows[a:b] for a, b in zip(bounds, bounds[1:]))
            self._block_members = members
        return members

    @property
    def store(self) -> PointStore:
        """The columnar store every block's member rows index into."""
        return self._store

    @property
    def row_block_ids(self) -> np.ndarray:
        """Owning block id of every store row (``int64``, cached).

        The inverse of the CSR pair: one scatter of each block's id over its
        member rows turns "which block holds this row?" into a gather.  The
        grid maintains this column itself (it is its per-row cell number).
        """
        table = self._row_block_ids
        if table is None:
            table = np.empty(len(self._store), dtype=np.int64)
            table[self._member_rows] = np.repeat(self._all_block_ids, self._block_counts)
            self._row_block_ids = table
        return table

    def points(self) -> Iterator[Point]:
        """Iterate over every indexed point (block by block)."""
        for block in self.blocks:
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
        return mindist_ordering(self.blocks, p, self.mindists(p))

    def maxdist_order(self, p: Point) -> Iterator[BlockDistance]:
        """Blocks in increasing MAXDIST order from ``p`` (lazy)."""
        return maxdist_ordering(self.blocks, p, self.maxdists(p))

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
        xmin, ymin, xmax, ymax = self._bound_columns
        mask = (
            (xmin <= rect.xmax)
            & (rect.xmin <= xmax)
            & (ymin <= rect.ymax)
            & (rect.ymin <= ymax)
        )
        return [self.block(i) for i in np.nonzero(mask)[0].tolist()]

    def blocks_within(self, p: Point, radius: float) -> list[Block]:
        """All blocks whose MINDIST from ``p`` is at most ``radius``."""
        mind = self.mindists(p)
        return [self.block(i) for i in np.nonzero(mind <= radius)[0].tolist()]

    def count_points_within_maxdist(self, p: Point, radius: float) -> int:
        """Total count of points in blocks *completely* inside ``radius`` of ``p``.

        "Completely inside" means MAXDIST(block, p) <= radius; this is the
        quantity the Counting algorithm accumulates.
        """
        if not self.num_blocks:
            return 0
        maxd = self.maxdists(p)
        return int(self._block_counts[maxd <= radius].sum())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(points={self.num_points}, blocks={self.num_blocks})"
