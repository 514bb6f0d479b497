"""Property tests: columnar execution is byte-identical to brute force.

The columnar PointStore backbone must not change a single result: for every
query class the store-column kernels have to return exactly the
``(distance, pid)``-ordered answers of a brute-force scan over point objects
(:func:`~repro.locality.brute.brute_force_knn` over the index's points).  The data
strategies cover uniform and clustered distributions and — by drawing
coordinates from a small integer lattice — dense duplicate-coordinate tie
cases, where only the deterministic pid tie-break separates candidates.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.core.select_join.block_marking import select_join_block_marking
from repro.core.select_join.counting import select_join_counting
from repro.core.two_joins.chained import chained_joins_nested
from repro.core.two_joins.unchained import unchained_joins_block_marking
from repro.core.two_selects.optimized import two_knn_selects_optimized
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.index.base import SpatialIndex
from repro.index.grid import GridIndex
from repro.index.quadtree import QuadtreeIndex
from repro.index.rtree import RTreeIndex
from repro.locality.batch import get_knn_batch
from repro.locality.brute import brute_force_knn
from repro.locality.knn import get_knn
from repro.locality.neighborhood import Neighborhood
from repro.operators.intersection import intersect_pairs_on_inner
from repro.operators.results import JoinPair, JoinTriplet, pair_key, triplet_key
from repro.query.dataset import Dataset
from repro.shard.dataset import ShardedDataset
from repro.shard.knn import sharded_knn

# Uniform float coordinates, clustered offsets, and a small integer lattice
# (the lattice forces exact duplicate coordinates and distance ties).
UNIFORM = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False, allow_infinity=False)
LATTICE = st.integers(min_value=0, max_value=6).map(float)


@st.composite
def point_sets(draw, min_size: int = 5, max_size: int = 110, start_pid: int = 0):
    """Uniform, clustered or lattice (duplicate-heavy) point sets."""
    flavor = draw(st.sampled_from(["uniform", "clustered", "lattice"]))
    if flavor == "uniform":
        coords = draw(
            st.lists(st.tuples(UNIFORM, UNIFORM), min_size=min_size, max_size=max_size)
        )
    elif flavor == "lattice":
        coords = draw(
            st.lists(st.tuples(LATTICE, LATTICE), min_size=min_size, max_size=max_size)
        )
    else:
        centers = draw(
            st.lists(st.tuples(UNIFORM, UNIFORM), min_size=1, max_size=4)
        )
        offset = st.floats(
            min_value=-30.0, max_value=30.0, allow_nan=False, allow_infinity=False
        )
        members = draw(
            st.lists(
                st.tuples(st.integers(min_value=0, max_value=len(centers) - 1), offset, offset),
                min_size=min_size,
                max_size=max_size,
            )
        )
        coords = [(centers[c][0] + dx, centers[c][1] + dy) for c, dx, dy in members]
    return [Point(x, y, start_pid + i) for i, (x, y) in enumerate(coords)]


def build_index(draw_kind: str, pts, cells: int) -> SpatialIndex:
    if draw_kind == "grid":
        return GridIndex(pts, cells_per_side=cells)
    if draw_kind == "quadtree":
        return QuadtreeIndex(pts, capacity=max(1, cells * 2))
    return RTreeIndex(pts, leaf_capacity=max(1, cells * 2))


INDEX_KINDS = st.sampled_from(["grid", "quadtree", "rtree"])


def reference_knn(index: SpatialIndex, p: Point, k: int) -> Neighborhood:
    """getkNN by brute force: every indexed point ranked by ``(distance, pid)``."""
    return brute_force_knn(index.points(), p, k)


def assert_same_neighborhood(columnar: Neighborhood, reference: Neighborhood) -> None:
    assert columnar.distances == reference.distances
    assert [p.pid for p in columnar] == [p.pid for p in reference]
    assert list(columnar.points) == list(reference.points)


# ----------------------------------------------------------------------
# Single select (get_knn and the batched kernel)
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    pts=point_sets(),
    kind=INDEX_KINDS,
    cells=st.integers(min_value=1, max_value=8),
    qx=UNIFORM,
    qy=UNIFORM,
    k=st.integers(min_value=1, max_value=20),
)
def test_single_select_parity(pts, kind, cells, qx, qy, k):
    """get_knn and get_knn_batch equal brute force, ties included."""
    index = build_index(kind, pts, cells)
    q = Point(qx, qy)
    reference = reference_knn(index, q, k)
    assert_same_neighborhood(get_knn(index, q, k), reference)
    (batched,) = get_knn_batch(index, [q], k)
    assert_same_neighborhood(batched, reference)


# ----------------------------------------------------------------------
# Two selects (Procedure 5)
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    pts=point_sets(),
    kind=INDEX_KINDS,
    cells=st.integers(min_value=1, max_value=6),
    f1=st.tuples(UNIFORM, UNIFORM),
    f2=st.tuples(UNIFORM, UNIFORM),
    k1=st.integers(min_value=1, max_value=12),
    k2=st.integers(min_value=1, max_value=12),
)
def test_two_selects_parity(pts, kind, cells, f1, f2, k1, k2):
    """2-kNN-select equals the brute-force conceptual plan."""
    index = build_index(kind, pts, cells)
    p1, p2 = Point(*f1), Point(*f2)
    nbr1 = reference_knn(index, p1, k1)
    nbr2 = reference_knn(index, p2, k2)
    reference = sorted(
        (p for p in nbr1 if p.pid in nbr2.pids), key=lambda p: p.pid
    )
    got = two_knn_selects_optimized(index, p1, k1, p2, k2)
    assert sorted(got, key=lambda p: p.pid) == reference


# ----------------------------------------------------------------------
# Select-join strategies (Counting, Block-Marking)
# ----------------------------------------------------------------------
def reference_select_join(outer, inner_index, focal, k_join, k_select) -> list[JoinPair]:
    """The conceptually-correct plan over brute-force neighborhoods."""
    selection = reference_knn(inner_index, focal, k_select)
    pairs = []
    for e1 in outer:
        nbr = reference_knn(inner_index, e1, k_join)
        pairs.extend(JoinPair(e1, e2) for e2 in nbr if e2.pid in selection.pids)
    return pairs


@settings(max_examples=25, deadline=None)
@given(
    outer=point_sets(max_size=60),
    inner=point_sets(max_size=90, start_pid=10_000),
    cells=st.integers(min_value=1, max_value=6),
    focal=st.tuples(UNIFORM, UNIFORM),
    k_join=st.integers(min_value=1, max_value=6),
    k_select=st.integers(min_value=1, max_value=8),
)
def test_select_join_parity(outer, inner, cells, focal, k_join, k_select):
    """Counting and Block-Marking equal the brute-force baseline."""
    outer_index = GridIndex(outer, cells_per_side=cells)
    inner_index = GridIndex(inner, cells_per_side=cells)
    f = Point(*focal)
    reference = sorted(
        reference_select_join(outer, inner_index, f, k_join, k_select), key=pair_key
    )
    counting = select_join_counting(
        Dataset("outer", outer).store, inner_index, f, k_join, k_select
    )
    marking = select_join_block_marking(outer_index, inner_index, f, k_join, k_select)
    assert sorted(counting, key=pair_key) == reference
    assert sorted(marking, key=pair_key) == reference


# ----------------------------------------------------------------------
# Chained and unchained two-join queries
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    a=point_sets(max_size=25),
    b=point_sets(max_size=60, start_pid=10_000),
    c=point_sets(max_size=60, start_pid=20_000),
    cells=st.integers(min_value=1, max_value=5),
    k_ab=st.integers(min_value=1, max_value=4),
    k_bc=st.integers(min_value=1, max_value=4),
)
def test_chained_joins_parity(a, b, c, cells, k_ab, k_bc):
    """Nested chained joins (cached and not) equal brute force."""
    b_index = GridIndex(b, cells_per_side=cells)
    c_index = GridIndex(c, cells_per_side=cells)
    reference = []
    for pa in a:
        for pb in reference_knn(b_index, pa, k_ab):
            for pc in reference_knn(c_index, pb, k_bc):
                reference.append(JoinTriplet(pa, pb, pc))
    assert chained_joins_nested(a, b_index, c_index, k_ab, k_bc, cache=True) == reference
    assert chained_joins_nested(a, b_index, c_index, k_ab, k_bc, cache=False) == reference


@settings(max_examples=20, deadline=None)
@given(
    a=point_sets(max_size=30),
    b=point_sets(max_size=60, start_pid=10_000),
    c=point_sets(max_size=40, start_pid=20_000),
    cells=st.integers(min_value=1, max_value=5),
    k_ab=st.integers(min_value=1, max_value=4),
    k_cb=st.integers(min_value=1, max_value=4),
)
def test_unchained_joins_parity(a, b, c, cells, k_ab, k_cb):
    """Procedure 4 equals the brute-force ∩B plan."""
    b_index = GridIndex(b, cells_per_side=cells)
    c_index = GridIndex(c, cells_per_side=cells)
    ab = [JoinPair(pa, pb) for pa in a for pb in reference_knn(b_index, pa, k_ab)]
    cb = [JoinPair(pc, pb) for pc in c for pb in reference_knn(b_index, pc, k_cb)]
    reference = sorted(intersect_pairs_on_inner(ab, cb), key=triplet_key)
    got = unchained_joins_block_marking(a, c_index, b_index, k_ab, k_cb)
    assert sorted(got, key=triplet_key) == reference


# ----------------------------------------------------------------------
# Sharded kNN (cross-shard border expansion + lexsort merge)
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(
    pts=point_sets(min_size=8),
    num_shards=st.integers(min_value=1, max_value=6),
    strategy=st.sampled_from(["grid", "sample"]),
    qx=UNIFORM,
    qy=UNIFORM,
    k=st.integers(min_value=1, max_value=25),
)
@example(  # math.hypot shard MINDIST vs np.hypot k-th distance: a last-ulp tie
    pts=[Point(0.0, 0.0, 0), Point(0.0, 0.0, 1), Point(0.0, 0.0, 2), Point(3.0, 5.0, 3),
         Point(4.0, 0.0, 4), Point(4.0, 0.0, 5), Point(5.0, 3.0, 6), Point(6.0, 0.0, 7)],
    num_shards=3,
    strategy="sample",
    qx=221.59566637927202,
    qy=221.59566637927202,
    k=1,
)
def test_sharded_knn_parity(pts, num_shards, strategy, qx, qy, k):
    """Cross-shard kNN equals brute force over the unsharded relation.

    ``k`` may exceed a shard's population — the border expansion must then
    widen across shards and still merge to the exact global answer.  The
    explicit example is a query whose shard MINDIST and k-th distance differ
    only in the last ulp; an unwidened pruning test dropped the shard that
    holds the tie-break winner.
    """
    monolithic = GridIndex(pts, cells_per_side=4)
    sharded = ShardedDataset(
        Dataset("rel", pts), num_shards=num_shards, strategy=strategy
    )
    q = Point(qx, qy)
    reference = reference_knn(monolithic, q, k)
    got = sharded_knn(sharded, q, k)
    assert got.distances == reference.distances
    assert [p.pid for p in got] == [p.pid for p in reference]


# ----------------------------------------------------------------------
# Bulk mutation (Dataset.extend) keeps the columnar relation identical
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(
    base=point_sets(max_size=50),
    extra=point_sets(max_size=50, start_pid=10_000),
    k=st.integers(min_value=1, max_value=10),
    qx=UNIFORM,
    qy=UNIFORM,
)
def test_extend_matches_rebuilt_dataset(base, extra, k, qx, qy):
    """Extending a dataset equals building it from all points at once."""
    extended = Dataset("grow", base)
    version_before = extended.version
    assert extended.extend(extra) == len(extra)
    assert extended.version == version_before + 1  # one bump for the batch
    rebuilt = Dataset("all", list(base) + list(extra))
    assert extended.points == rebuilt.points
    q = Point(qx, qy)
    assert_same_neighborhood(
        get_knn(extended.index, q, k), reference_knn(rebuilt.index, q, k)
    )
