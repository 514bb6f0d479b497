"""PR-quadtree index.

The quadtree recursively splits a square region into four quadrants until the
number of points in a node drops below a capacity threshold (Section 2 of the
paper describes exactly this family of structures).  The *leaves* of the tree
are the blocks exposed to the algorithms; internal nodes exist only during
construction and for point location.

Construction is columnar: nodes carry ``int32`` row-index arrays into the
dataset's :class:`~repro.storage.pointstore.PointStore` and each split is a
pair of vectorized comparisons over gathered coordinate columns, so building
never iterates Python point objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.exceptions import EmptyDatasetError, InvalidParameterError
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.index.base import SpatialIndex
from repro.index.block import Block
from repro.storage.pointstore import PointStore

__all__ = ["QuadtreeIndex"]


@dataclass
class _Node:
    """A quadtree node; either a leaf holding member rows or four children."""

    rect: Rect
    depth: int
    members: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int32))
    children: "list[_Node] | None" = None
    block: Block | None = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None


class QuadtreeIndex(SpatialIndex):
    """A point-region quadtree whose leaves are the index blocks.

    Parameters
    ----------
    points:
        Points to index — a :class:`PointStore` or an iterable of
        :class:`Point`.
    capacity:
        Maximum number of points in a leaf before it splits.
    max_depth:
        Hard recursion limit; leaves at this depth keep all their points even
        if they exceed ``capacity`` (protects against many coincident points).
    bounds:
        Optional explicit extent (made square internally).
    """

    def __init__(
        self,
        points: Iterable[Point] | PointStore,
        capacity: int = 128,
        max_depth: int = 16,
        bounds: Rect | None = None,
    ) -> None:
        super().__init__()
        store = self._as_store(points)
        if len(store) == 0:
            raise EmptyDatasetError("QuadtreeIndex requires at least one point")
        if capacity <= 0:
            raise InvalidParameterError("capacity must be positive")
        if max_depth <= 0:
            raise InvalidParameterError("max_depth must be positive")
        self.capacity = int(capacity)
        self.max_depth = int(max_depth)
        self._qt_store = store

        extent = Rect(
            float(store.xs.min()),
            float(store.ys.min()),
            float(store.xs.max()),
            float(store.ys.max()),
        )
        # Explicit bounds grow to cover points outside them, so every leaf
        # rectangle contains its members.
        bounds = extent if bounds is None else bounds.union(extent)
        # Make the root square (classic PR-quadtree) and non-degenerate.
        side = max(bounds.width, bounds.height)
        if side == 0:
            side = 1.0
        bounds = Rect(bounds.xmin, bounds.ymin, bounds.xmin + side, bounds.ymin + side)

        self._root = _Node(
            rect=bounds, depth=0, members=np.arange(len(store), dtype=np.int32)
        )
        self._split(self._root)

        blocks: list[Block] = []
        self._collect_leaves(self._root, blocks)
        self._finalize(blocks, bounds, store=store)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _split(self, node: _Node) -> None:
        """Recursively split ``node`` until every leaf satisfies the capacity."""
        if len(node.members) <= self.capacity or node.depth >= self.max_depth:
            return
        rect = node.rect
        cx = (rect.xmin + rect.xmax) / 2.0
        cy = (rect.ymin + rect.ymax) / 2.0
        xs = self._qt_store.xs[node.members]
        ys = self._qt_store.ys[node.members]
        east = xs >= cx
        north = ys >= cy
        quadrants = rect.quadrants()
        children = [_Node(rect=q, depth=node.depth + 1) for q in quadrants]
        # Quadrant index (SW=0, SE=1, NW=2, NE=3), as in _quadrant_of.
        children[0].members = node.members[~north & ~east]
        children[1].members = node.members[~north & east]
        children[2].members = node.members[north & ~east]
        children[3].members = node.members[north & east]
        node.members = np.empty(0, dtype=np.int32)
        node.children = children
        for child in children:
            self._split(child)

    @staticmethod
    def _quadrant_of(rect: Rect, p: Point) -> int:
        """Index (SW=0, SE=1, NW=2, NE=3) of the quadrant of ``rect`` holding ``p``."""
        cx = (rect.xmin + rect.xmax) / 2.0
        cy = (rect.ymin + rect.ymax) / 2.0
        east = p.x >= cx
        north = p.y >= cy
        return (2 if north else 0) + (1 if east else 0)

    def _collect_leaves(self, node: _Node, out: list[Block]) -> None:
        if node.is_leaf:
            block = Block(
                len(out),
                node.rect,
                tag=("leaf", node.depth),
                store=self._qt_store,
                members=node.members,
            )
            node.block = block
            out.append(block)
            return
        assert node.children is not None
        for child in node.children:
            self._collect_leaves(child, out)

    # ------------------------------------------------------------------
    # SpatialIndex interface
    # ------------------------------------------------------------------
    def locate(self, p: Point) -> Block | None:
        """Return the leaf block whose region contains ``p``."""
        if not self._root.rect.contains_point(p):
            return None
        node = self._root
        while not node.is_leaf:
            assert node.children is not None
            node = node.children[self._quadrant_of(node.rect, p)]
        return node.block

    # ------------------------------------------------------------------
    # Introspection helpers (used in tests and ablations)
    # ------------------------------------------------------------------
    def depth(self) -> int:
        """Maximum leaf depth of the tree."""
        best = 0

        def visit(node: _Node) -> None:
            nonlocal best
            if node.is_leaf:
                best = max(best, node.depth)
            else:
                assert node.children is not None
                for child in node.children:
                    visit(child)

        visit(self._root)
        return best
