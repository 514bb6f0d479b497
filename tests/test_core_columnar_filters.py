"""Hard inputs for the batched join phases and their columnar post-filters.

Every optimized algorithm must return a list *equal* to its conceptual plan —
same rows, same order — on the inputs where a flattened ``(owner, row)``
filter is easiest to get wrong: neighbours on the window edge, ragged
neighbourhoods, distance ties, nothing matching, empty and fully pruned
blocks, and shared B points.  Each scenario runs over store-backed grids.
"""

from __future__ import annotations

import pytest

from repro.core.select_join.baseline import select_join_baseline
from repro.core.select_join.block_marking import select_join_block_marking
from repro.core.select_join.counting import select_join_counting
from repro.core.select_join.range_inner import (
    range_inner_join_baseline,
    range_inner_join_block_marking,
)
from repro.core.stats import PruningStats
from repro.core.two_joins.chained import chained_joins_nested, chained_joins_qep1
from repro.core.two_joins.unchained import (
    unchained_joins_baseline,
    unchained_joins_block_marking,
)
from repro.datagen import clustered_points, uniform_points
from repro.exceptions import InvalidParameterError
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.index.grid import GridIndex
from repro.locality.batch import flatten_neighborhoods, get_knn_batch
from repro.locality.knn import get_knn
from repro.operators.results import JoinTriplet

BOUNDS = Rect(0.0, 0.0, 100.0, 100.0)


FORMS = {"store": lambda index: index}


@pytest.fixture(params=list(FORMS))
def form(request):
    """Index wrapper: the store-backed grid itself (every index has a store)."""
    return FORMS[request.param]


def grid(points, cells=4):
    return GridIndex(points, cells_per_side=cells, bounds=BOUNDS)


def assert_select_join_exact(outer_index, inner_index, focal, k_join, k_select):
    """Counting and Block-Marking equal the conceptual plan, order included."""
    outer = list(outer_index.points())
    assert select_join_counting(outer, inner_index, focal, k_join, k_select) == (
        select_join_baseline(outer, inner_index, focal, k_join, k_select)
    )
    # Block-Marking emits block by block in MINDIST order from the focal point.
    by_mindist = [p for entry in outer_index.mindist_order(focal) for p in entry.block.points]
    assert select_join_block_marking(outer_index, inner_index, focal, k_join, k_select) == (
        select_join_baseline(by_mindist, inner_index, focal, k_join, k_select)
    )


def assert_range_inner_exact(outer_index, inner_index, window, k_join):
    got = range_inner_join_block_marking(outer_index, inner_index, window, k_join)
    assert got == range_inner_join_baseline(
        list(outer_index.points()), inner_index, window, k_join
    )
    return got


def assert_two_joins_exact(a, b_index, c_index, k_ab, k_bc):
    """Nested chained join == QEP1; unchained Block-Marking == Figure 10's plan."""
    b = list(b_index.points())
    expected = chained_joins_qep1(a, b, b_index, c_index, k_ab, k_bc)
    for cache in (True, False):
        assert chained_joins_nested(a, b_index, c_index, k_ab, k_bc, cache=cache) == expected
    # Procedure 4 emits c-major; the conceptual plan with the joins swapped
    # yields the same triplets in that order, as (c, b, a).
    c = list(c_index.points())
    swapped = unchained_joins_baseline(c, a, b_index, k_bc, k_ab)
    assert unchained_joins_block_marking(a, c_index, b_index, k_ab, k_bc) == [
        JoinTriplet(t.c, t.b, t.a) for t in swapped
    ]


def test_neighbor_exactly_on_the_window_edge(form):
    """The window is a closed rectangle: an inner point on its edge matches."""
    inner = [Point(20.0, 20.0, 100), Point(30.0, 20.0, 101), Point(20.0, 30.0, 102),
             Point(30.0, 30.0, 103), Point(25.0, 25.0, 104), Point(80.0, 80.0, 105)]
    outer = [Point(24.0, 24.0, 0), Point(31.0, 31.0, 1), Point(79.0, 79.0, 2)]
    window = Rect(20.0, 20.0, 30.0, 30.0)  # four inner points on its corners
    got = assert_range_inner_exact(form(grid(outer)), form(grid(inner)), window, 5)
    assert {p.inner.pid for p in got} == {100, 101, 102, 103, 104}


@pytest.mark.parametrize("k_join", [7, 50])
def test_k_join_at_least_inner_size(form, k_join):
    """Ragged batch: every neighbourhood is shorter than (or exactly) k."""
    outer = uniform_points(25, BOUNDS, seed=301)
    inner = uniform_points(7, BOUNDS, seed=302, start_pid=100)
    outer_index, inner_index = form(grid(outer)), form(grid(inner))
    assert_select_join_exact(outer_index, inner_index, Point(40.0, 60.0), k_join, 3)
    got = assert_range_inner_exact(outer_index, inner_index, Rect(10.0, 10.0, 70.0, 90.0), k_join)
    assert got
    assert_two_joins_exact(outer, inner_index, form(grid(uniform_points(5, BOUNDS, seed=303, start_pid=200))), k_join, k_join)


def test_all_duplicate_coordinates(form):
    """Every distance ties; only the pid tie-break decides who is a neighbour."""
    outer = [Point(50.0, 50.0, i) for i in range(6)]
    inner = [Point(50.0, 50.0, 100 + i) for i in range(9)]
    third = [Point(50.0, 50.0, 200 + i) for i in range(5)]
    outer_index, inner_index = form(grid(outer)), form(grid(inner))
    assert_select_join_exact(outer_index, inner_index, Point(50.0, 50.0), 4, 6)
    got = assert_range_inner_exact(outer_index, inner_index, Rect(50.0, 50.0, 50.0, 50.0), 4)
    assert [p.inner.pid for p in got[:4]] == [100, 101, 102, 103]
    assert_two_joins_exact(outer, inner_index, form(grid(third)), 3, 2)


def test_window_and_selection_that_match_nothing(form):
    outer = uniform_points(30, BOUNDS, seed=304)
    inner = uniform_points(60, Rect(0.0, 0.0, 50.0, 100.0), seed=305, start_pid=100)
    outer_index, inner_index = form(grid(outer)), form(grid(inner))
    # No inner point lies in the right half, so no neighbour is in the window.
    assert assert_range_inner_exact(outer_index, inner_index, Rect(60.0, 0.0, 100.0, 100.0), 3) == []
    # A degenerate window between the points matches nothing either.
    assert assert_range_inner_exact(outer_index, inner_index, Rect(49.5, -5.0, 49.5, -1.0), 3) == []


def test_empty_blocks_and_every_block_pruned(form):
    """Outer clusters leave most blocks empty; a far window prunes all the rest."""
    outer = clustered_points(2, 20, BOUNDS, cluster_radius=6.0, seed=306)
    inner = uniform_points(400, BOUNDS, seed=307, start_pid=1_000)
    outer_index, inner_index = form(grid(outer, cells=8)), form(grid(inner, cells=8))
    occupied = sum(not b.is_empty for b in outer_index.blocks)
    assert 0 < occupied < outer_index.num_blocks // 2
    far = min(
        (Rect(0.0, 0.0, 3.0, 3.0), Rect(97.0, 97.0, 100.0, 100.0), Rect(0.0, 97.0, 3.0, 100.0)),
        key=lambda w: sum(w.contains_point(p) for p in outer),
    )
    stats = PruningStats()
    pairs = range_inner_join_block_marking(outer_index, inner_index, far, 2, stats=stats)
    assert pairs == range_inner_join_baseline(list(outer_index.points()), inner_index, far, 2)
    assert pairs == []
    assert stats.blocks_examined == stats.blocks_pruned == occupied
    assert stats.neighborhoods_computed == 0 and stats.points_pruned == len(outer)
    # A window over one cluster keeps its blocks; the empty ones never count.
    near = Rect(outer[0].x - 4.0, outer[0].y - 4.0, outer[0].x + 4.0, outer[0].y + 4.0)
    assert assert_range_inner_exact(outer_index, inner_index, near, 2)
    assert_select_join_exact(outer_index, inner_index, outer[0], 2, 5)
    assert_select_join_exact(outer_index, inner_index, Point(99.0, 1.0), 2, 5)


def test_shared_b_points_and_a_warm_shared_cache(form):
    """One B point neighbours every A point; another is already cached."""
    a = [Point(10.0 + i, 10.0, i) for i in range(12)]
    b = [Point(15.0, 11.0, 100), Point(40.0, 40.0, 101), Point(90.0, 90.0, 102)]
    c = uniform_points(40, BOUNDS, seed=308, start_pid=200)
    b_index, c_index = form(grid(b)), form(grid(c))
    expected = chained_joins_qep1(a, b, b_index, c_index, 2, 3)
    assert_two_joins_exact(a, b_index, c_index, 2, 3)

    cold = PruningStats()
    assert chained_joins_nested(a, b_index, c_index, 2, 3, stats=cold) == expected
    assert (cold.cache_misses, cold.cache_hits) == (2, 2 * len(a) - 2)

    # Pid 100 comes from a previous query's cache; only pid 101 is computed.
    cached = get_knn(c_index, b[0], 3)
    shared = {100: cached}
    warm = PruningStats()
    assert chained_joins_nested(
        a, b_index, c_index, 2, 3, stats=warm, neighborhood_cache=shared
    ) == expected
    assert (warm.cache_misses, warm.neighborhoods_computed) == (1, 1)
    assert warm.cache_hits == 2 * len(a) - 1
    assert shared[100] is cached and set(shared) == {100, 101}


def test_flatten_neighborhoods_contract():
    inner = uniform_points(9, BOUNDS, seed=309, start_pid=100)
    index = grid(inner)
    queries = [Point(10.0, 10.0), Point(90.0, 90.0), Point(50.0, 50.0)]
    neighborhoods = get_knn_batch(index, queries, 4) + get_knn_batch(index, queries[:1], 20)
    store, owner, rows = flatten_neighborhoods(neighborhoods)
    assert store is index.store
    assert owner.tolist() == [0] * 4 + [1] * 4 + [2] * 4 + [3] * 9  # ragged tail
    assert rows.tolist() == [r for nbr in neighborhoods for r in nbr.rows.tolist()]
    # An empty batch is empty columns; two different stores do not flatten.
    _store, owner, rows = flatten_neighborhoods([])
    assert owner.tolist() == rows.tolist() == []
    other = get_knn_batch(grid(uniform_points(9, BOUNDS, seed=310)), queries, 4)
    with pytest.raises(InvalidParameterError):
        flatten_neighborhoods(neighborhoods + other)
