"""Unit tests for repro.index.block."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.index.block import Block
from repro.storage.pointstore import PointStore

RECT = Rect(0.0, 0.0, 10.0, 10.0)
POINTS = [Point(1, 1, 0), Point(5, 5, 1), Point(9, 9, 2)]
STORE = PointStore.from_points(POINTS)
NO_ROWS = np.empty(0, dtype=np.int32)


def full(block_id: int) -> Block:
    """A block holding every row of ``STORE``."""
    return Block(block_id, RECT, STORE, np.arange(len(POINTS)))


def empty(block_id: int, tag=None) -> Block:
    return Block(block_id, RECT, STORE, NO_ROWS, tag=tag)


class TestBlockContents:
    def test_count_and_len(self):
        b = full(0)
        assert b.count == 3
        assert len(b) == 3
        assert not b.is_empty

    def test_empty_block(self):
        b = empty(1)
        assert b.count == 0
        assert b.is_empty
        assert b.coords.shape == (0, 2)

    def test_iteration_preserves_order(self):
        b = full(0)
        assert [p.pid for p in b] == [0, 1, 2]
        assert list(b) == POINTS  # the store hands back the shredded objects

    def test_coords_matches_points(self):
        b = full(0)
        assert b.coords.shape == (3, 2)
        assert b.coords[1].tolist() == [5.0, 5.0]

    def test_points_are_immutable_tuple(self):
        b = full(0)
        assert isinstance(b.points, tuple)


class TestBlockGeometry:
    def test_center_and_diagonal(self):
        b = full(0)
        assert b.center == Point(5.0, 5.0)
        assert b.diagonal == pytest.approx(math.hypot(10, 10))

    def test_mindist_maxdist_delegate_to_rect(self):
        b = full(0)
        p = Point(20.0, 5.0)
        assert b.mindist(p) == pytest.approx(10.0)
        assert b.maxdist(p) == pytest.approx(math.hypot(20, 5))

    def test_mindist_inside_is_zero(self):
        assert empty(0).mindist(Point(3, 3)) == 0.0


class TestBlockIdentity:
    def test_equality_by_id_and_rect(self):
        assert full(3) == empty(3)
        assert empty(3) != empty(4)

    def test_hashable(self):
        assert len({empty(0), empty(1)}) == 2

    def test_tag_roundtrip(self):
        b = empty(0, tag=(2, 5))
        assert b.tag == (2, 5)
