"""Unit tests for repro.index.orderings."""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.index.block import Block
from repro.index.orderings import (
    maxdist_ordering,
    mindist_ordering,
    ordering_from_distances,
)
from repro.storage.pointstore import PointStore


def _blocks() -> list[Block]:
    rects = [
        Rect(0, 0, 1, 1),
        Rect(5, 0, 6, 1),
        Rect(0, 5, 1, 6),
        Rect(5, 5, 6, 6),
        Rect(10, 10, 11, 11),
    ]
    store = PointStore.from_points([Point(r.xmin, r.ymin, i) for i, r in enumerate(rects)])
    return [Block(i, r, store, np.array([i])) for i, r in enumerate(rects)]


class TestMindistOrdering:
    def test_orders_blocks_by_mindist(self):
        blocks = _blocks()
        query = Point(0.5, 0.5)
        order = [bd.block.block_id for bd in mindist_ordering(blocks, query)]
        # The containing block (id 0, MINDIST 0) must come first and the
        # farthest block (id 4) last.
        assert order[0] == 0
        assert order[-1] == 4

    def test_distances_non_decreasing(self):
        blocks = _blocks()
        entries = list(mindist_ordering(blocks, Point(3, 3)))
        dists = [e.distance for e in entries]
        assert dists == sorted(dists)

    def test_distances_match_block_mindist(self):
        blocks = _blocks()
        q = Point(7, 2)
        for entry in mindist_ordering(blocks, q):
            assert entry.distance == pytest.approx(entry.block.mindist(q))

    def test_precomputed_distances_respected(self):
        blocks = _blocks()
        fake = np.array([4.0, 3.0, 2.0, 1.0, 0.0])
        order = [bd.block.block_id for bd in mindist_ordering(blocks, Point(0, 0), fake)]
        assert order == [4, 3, 2, 1, 0]


class TestMaxdistOrdering:
    def test_distances_match_block_maxdist(self):
        blocks = _blocks()
        q = Point(7, 2)
        for entry in maxdist_ordering(blocks, q):
            assert entry.distance == pytest.approx(entry.block.maxdist(q))

    def test_maxdist_order_differs_from_mindist_when_expected(self):
        blocks = _blocks()
        q = Point(0.5, 0.5)
        mindists = [bd.distance for bd in mindist_ordering(blocks, q)]
        maxdists = [bd.distance for bd in maxdist_ordering(blocks, q)]
        assert all(mx >= mn for mn, mx in zip(sorted(mindists), sorted(maxdists)))


class TestLazinessAndTies:
    def test_iterator_is_lazy(self):
        blocks = _blocks()
        it = mindist_ordering(blocks, Point(0, 0))
        first = next(it)
        assert first.block.block_id == 0

    def test_ties_broken_by_block_id(self):
        rect = Rect(0, 0, 1, 1)
        blocks = [Block(i, rect, PointStore.empty(), np.empty(0)) for i in (3, 1, 2)]
        order = [bd.block.block_id for bd in mindist_ordering(blocks, Point(0.5, 0.5))]
        assert order == [1, 2, 3]

    def test_ordering_from_distances(self):
        blocks = _blocks()
        order = [bd.block.block_id for bd in ordering_from_distances(blocks, [5, 4, 3, 2, 1])]
        assert order == [4, 3, 2, 1, 0]

    def test_empty_sequence(self):
        assert list(mindist_ordering([], Point(0, 0))) == []
