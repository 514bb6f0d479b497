"""Unit tests for repro.storage.pointstore and the Dataset bulk-extend path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GeometryError, InvalidParameterError
from repro.geometry.point import Point
from repro.query.dataset import Dataset
from repro.storage.pointstore import PointStore

POINTS = [
    Point(1.0, 2.0, 0),
    Point(3.0, 4.0, 1, payload="hotel"),
    Point(5.0, 6.0, 2),
]


class TestConstruction:
    def test_from_points_columns(self):
        store = PointStore.from_points(POINTS)
        assert store.xs.tolist() == [1.0, 3.0, 5.0]
        assert store.ys.tolist() == [2.0, 4.0, 6.0]
        assert store.pids.tolist() == [0, 1, 2]
        assert store.payloads == {1: "hotel"}
        assert len(store) == 3 and store.size == 3

    def test_from_arrays_validates_lengths(self):
        with pytest.raises(InvalidParameterError):
            PointStore(np.zeros(2), np.zeros(3), np.zeros(2, dtype=np.int64))

    def test_from_arrays_rejects_non_finite(self):
        with pytest.raises(GeometryError):
            PointStore(
                np.array([1.0, np.inf]), np.zeros(2), np.arange(2, dtype=np.int64)
            )

    def test_empty_store(self):
        store = PointStore.empty()
        assert len(store) == 0
        assert store.max_pid() == -1


class TestMaterialization:
    def test_materialize_roundtrip_preserves_identity(self):
        store = PointStore.from_points(POINTS)
        # A store built from points hands back the same objects.
        assert store.materialize([0, 1, 2]) == POINTS
        assert store.point_at(1) is POINTS[1]

    def test_point_at_caches_fresh_objects(self):
        store = PointStore(
            np.array([1.0]), np.array([2.0]), np.array([7], dtype=np.int64)
        )
        first = store.point_at(0)
        assert first == Point(1.0, 2.0, 7)
        assert store.point_at(0) is first

    def test_materialize_mixes_cached_and_fresh_rows(self):
        store = PointStore(
            np.array([1.0, 2.0, 3.0]), np.zeros(3), np.array([7, 8, 9], dtype=np.int64)
        )
        middle = store.point_at(1)
        got = store.materialize(np.array([2, 1, 2]))
        assert [p.pid for p in got] == [9, 8, 9]
        assert got[1] is middle and got[0] is got[2]

    def test_payload_survives_materialization(self):
        store = PointStore(
            np.array([1.0]), np.array([2.0]), np.array([7], dtype=np.int64), {0: "cafe"}
        )
        assert store.point_at(0).payload == "cafe"


class TestPayloadColumns:
    """``payload_equals``: ``AttrFilter`` semantics over an encoded column."""

    PAYLOADS = {
        0: {"kind": "bus"},
        1: {"kind": "taxi", "seats": 4},
        # row 2 carries no payload at all
        3: "bus",  # not a mapping
        4: {"seats": 4},  # mapping without the key
        5: {"kind": ["bus"]},  # unhashable value
        6: {"kind": 1},
        7: {"kind": True},
        8: {"kind": float("nan")},
    }

    def store(self) -> PointStore:
        n = 9
        return PointStore(
            np.arange(n, dtype=np.float64),
            np.zeros(n),
            np.arange(n, dtype=np.int64),
            dict(self.PAYLOADS),
        )

    @staticmethod
    def expected(payloads, n, key, value):
        return [
            isinstance(payloads.get(r), dict)
            and key in payloads[r]
            and bool(payloads[r][key] == value)
            for r in range(n)
        ]

    @pytest.mark.parametrize(
        "value", ["bus", "taxi", "tram", 1, 1.0, True, ["bus"], ("bus",), float("nan"), None]
    )
    def test_matches_per_row_semantics(self, value):
        got = self.store().payload_equals("kind", value)
        assert got.dtype == bool
        assert got.tolist() == self.expected(self.PAYLOADS, 9, "kind", value)

    def test_row_subset_and_other_keys(self):
        store = self.store()
        rows = np.array([7, 1, 1, 0])
        assert store.payload_equals("kind", "taxi", rows).tolist() == [False, True, True, False]
        assert store.payload_equals("seats", 4).tolist() == self.expected(
            self.PAYLOADS, 9, "seats", 4
        )
        assert not store.payload_equals("absent", 4).any()
        assert PointStore.empty().payload_equals("kind", "bus").tolist() == []

    def test_snapshots_share_or_rebuild_the_column(self):
        store = self.store()
        store.payload_equals("kind", "bus")
        moved = store.moved([0], [50.0], [50.0])
        # Same rows, same side-table: the encoded column is shared ...
        assert moved._payload_columns is store._payload_columns
        assert moved.payload_equals("kind", "bus").tolist() == store.payload_equals(
            "kind", "bus"
        ).tolist()
        # ... while a re-rowed snapshot answers from its own rows.
        taken = store.take([1, 0])
        assert taken.payload_equals("kind", "bus").tolist() == [False, True]


class TestColumnAccess:
    def test_coords_gather(self):
        store = PointStore.from_points(POINTS)
        assert store.coords().shape == (3, 2)
        assert store.coords(np.array([2, 0])).tolist() == [[5.0, 6.0], [1.0, 2.0]]

    def test_distances_to(self):
        store = PointStore.from_points([Point(3.0, 4.0, 0), Point(0.0, 0.0, 1)])
        assert store.distances_to(0.0, 0.0).tolist() == [5.0, 0.0]
        assert store.distances_to(0.0, 0.0, np.array([0])).tolist() == [5.0]

    def test_rows_of_pids(self):
        store = PointStore.from_points(POINTS)
        assert store.rows_of_pids([2, 0]).tolist() == [0, 2]
        assert store.rows_of_pids([99]).tolist() == []


class TestSnapshotMutations:
    def test_take_slices_columns_payloads_and_cache(self):
        store = PointStore.from_points(POINTS)
        child = store.take(np.array([1, 2]))
        assert child.pids.tolist() == [1, 2]
        assert child.payloads == {0: "hotel"}
        assert child.point_at(0) is POINTS[1]

    def test_extended_concatenates(self):
        left = PointStore.from_points(POINTS[:1])
        right = PointStore.from_points(POINTS[1:])
        merged = left.extended(right)
        assert merged.pids.tolist() == [0, 1, 2]
        assert merged.payloads == {1: "hotel"}
        assert merged.point_at(2) is POINTS[2]

    def test_without_rows(self):
        store = PointStore.from_points(POINTS)
        remaining = store.without_rows([1])
        assert remaining.pids.tolist() == [0, 2]
        assert remaining.payloads == {}


class TestDatasetExtend:
    def test_extend_points_single_version_bump(self):
        ds = Dataset("x", POINTS)
        before = ds.version
        assert ds.extend([(7.0, 8.0), Point(9.0, 9.0, 50)]) == 2
        assert ds.version == before + 1
        assert [p.pid for p in ds.points] == [0, 1, 2, 3, 50]

    def test_extend_accepts_pointstore_batch(self):
        ds = Dataset("x", POINTS)
        batch = PointStore(
            np.array([7.0, 8.0]),
            np.array([7.0, 8.0]),
            np.array([-1, -1], dtype=np.int64),
        )
        assert ds.extend(batch) == 2
        assert ds.store.pids.tolist() == [0, 1, 2, 3, 4]

    def test_extend_pointstore_rejects_duplicate_pids(self):
        ds = Dataset("x", POINTS)
        clash = PointStore(
            np.array([7.0]), np.array([7.0]), np.array([1], dtype=np.int64)
        )
        with pytest.raises(InvalidParameterError):
            ds.extend(clash)
        batch_dup = PointStore(
            np.array([7.0, 8.0]), np.array([7.0, 8.0]), np.array([9, 9], dtype=np.int64)
        )
        with pytest.raises(InvalidParameterError):
            ds.extend(batch_dup)

    def test_extend_pointstore_fresh_pids_skip_explicit(self):
        ds = Dataset("x", POINTS)
        batch = PointStore(
            np.array([7.0, 8.0, 9.0]),
            np.array([7.0, 8.0, 9.0]),
            np.array([-1, 4, -1], dtype=np.int64),
        )
        assert ds.extend(batch) == 3
        # Same assignment as prepare_insert: anons fill 3, then skip the
        # explicit 4, landing on 5.
        assert ds.store.pids.tolist() == [0, 1, 2, 3, 4, 5]

    def test_extend_rebuilds_index_lazily(self):
        ds = Dataset("x", POINTS)
        ds.index
        ds.extend([(7.0, 8.0)])
        assert ds._index is None
        assert ds.index.num_points == 4

    def test_insert_delegates_to_extend(self):
        ds = Dataset("x", POINTS)
        assert ds.insert([(7.0, 8.0)]) == 1
        assert len(ds) == 4
