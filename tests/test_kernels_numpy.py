"""The pure-numpy kernel table against brute-force oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.kernels import numpy_backend

TABLE = numpy_backend.make_backend()


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.0, 100.0, size=200)
    ys = rng.uniform(0.0, 100.0, size=200)
    pids = rng.permutation(200).astype(np.int64) + 1000
    return xs, ys, pids


def brute_topk(xs, ys, pids, rows, px, py, k):
    ranked = sorted(
        ((math.hypot(xs[r] - px, ys[r] - py), int(pids[r]), int(r)) for r in rows)
    )[:k]
    return [r for _, _, r in ranked], [d for d, _, _ in ranked]


def test_knn_head_matches_brute_force(cloud):
    xs, ys, pids = cloud
    rows = np.arange(200, dtype=np.int64)
    sel, dists = TABLE["knn_head"](xs, ys, pids, rows, 50.0, 50.0, 10)
    exp_rows, exp_dists = brute_topk(xs, ys, pids, rows, 50.0, 50.0, 10)
    assert sel.tolist() == exp_rows
    np.testing.assert_array_equal(dists, np.array(exp_dists))


def test_knn_head_subset_rows_and_truncation(cloud):
    xs, ys, pids = cloud
    rows = np.array([3, 17, 42, 99, 150], dtype=np.int64)
    sel, dists = TABLE["knn_head"](xs, ys, pids, rows, 10.0, 90.0, 50)
    exp_rows, _ = brute_topk(xs, ys, pids, rows, 10.0, 90.0, 50)
    assert sel.tolist() == exp_rows  # k > candidates: all of them, ordered
    assert len(sel) == 5
    assert np.all(np.diff(dists) >= 0)


def test_knn_head_duplicate_coordinates_tie_break_by_pid():
    xs = np.array([5.0, 5.0, 5.0, 1.0])
    ys = np.array([5.0, 5.0, 5.0, 1.0])
    pids = np.array([30, 10, 20, 40], dtype=np.int64)
    rows = np.arange(4, dtype=np.int64)
    sel, dists = TABLE["knn_head"](xs, ys, pids, rows, 5.0, 5.0, 3)
    assert pids[sel].tolist() == [10, 20, 30]
    assert dists.tolist() == [0.0, 0.0, 0.0]


def test_block_matrices_against_rect_oracle(cloud):
    xs, ys, _ = cloud
    cx, cy = xs[:7], ys[:7]
    bxmin = np.array([0.0, 40.0, 90.0])
    bymin = np.array([0.0, 40.0, 90.0])
    bxmax = np.array([10.0, 60.0, 100.0])
    bymax = np.array([10.0, 60.0, 100.0])
    mind2, maxd2 = TABLE["block_matrices"](cx, cy, bxmin, bymin, bxmax, bymax)
    assert mind2.shape == maxd2.shape == (7, 3)
    for i in range(7):
        for j in range(3):
            dx_min = max(bxmin[j] - cx[i], 0.0, cx[i] - bxmax[j])
            dy_min = max(bymin[j] - cy[i], 0.0, cy[i] - bymax[j])
            dx_max = max(abs(cx[i] - bxmin[j]), abs(cx[i] - bxmax[j]))
            dy_max = max(abs(cy[i] - bymin[j]), abs(cy[i] - bymax[j]))
            assert mind2[i, j] == pytest.approx(dx_min**2 + dy_min**2, abs=1e-9)
            assert maxd2[i, j] == pytest.approx(dx_max**2 + dy_max**2, abs=1e-9)


def test_point_block_dists_hypot_exact():
    bxmin = np.array([10.0, 0.0])
    bymin = np.array([10.0, 0.0])
    bxmax = np.array([20.0, 5.0])
    bymax = np.array([20.0, 5.0])
    mind = TABLE["point_block_mindists"](7.0, 6.0, bxmin, bymin, bxmax, bymax)
    maxd = TABLE["point_block_maxdists"](7.0, 6.0, bxmin, bymin, bxmax, bymax)
    assert mind[0] == math.hypot(3.0, 4.0)  # outside corner distance
    assert mind[1] == math.hypot(2.0, 1.0)  # past the block's max corner
    assert maxd[0] == math.hypot(20.0 - 7.0, 20.0 - 6.0)
    assert maxd[1] == math.hypot(7.0, 6.0)


def test_merge_topk_is_distance_pid_lexsort():
    dists = np.array([2.0, 1.0, 2.0, 0.5, 1.0])
    pids = np.array([9, 5, 1, 7, 2], dtype=np.int64)
    order = TABLE["merge_topk"](dists, pids, 4)
    # (0.5,7) (1.0,2) (1.0,5) (2.0,1)
    assert order.tolist() == [3, 4, 1, 2]


def test_merge_topk_k_larger_than_input():
    order = TABLE["merge_topk"](np.array([1.0]), np.array([1], dtype=np.int64), 10)
    assert order.tolist() == [0]


def test_window_mask_closed_edges():
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    ys = np.array([0.0, 1.0, 2.0, 3.0])
    mask = TABLE["window_mask"](xs, ys, 1.0, 1.0, 2.0, 2.0)
    assert mask.tolist() == [False, True, True, False]


def test_ball_mask_scalar_and_broadcast_bounds():
    dx = np.array([1.0, 2.0, 3.0])
    dy = np.array([0.0, 0.0, 0.0])
    assert TABLE["ball_mask"](dx, dy, 4.0).tolist() == [True, True, False]
    bounds = np.array([[0.5], [9.0]])
    mask = TABLE["ball_mask"](dx[None, :], dy[None, :], bounds)
    assert mask.shape == (2, 3)
    assert mask.tolist() == [[False, False, False], [True, True, True]]


def test_boundary_membership_closed_at_radius():
    # Membership at exactly the bound must be inclusive (ties are kept).
    mask = TABLE["ball_mask"](np.array([2.0]), np.array([0.0]), 4.0)
    assert mask.tolist() == [True]


# ----------------------------------------------------------------------
# Grouped knn_head: px/py as (g,) arrays, every available backend
# ----------------------------------------------------------------------
@pytest.fixture(params=["numpy", "numba"])
def knn_head(request):
    """``knn_head`` of every backend that loads here (numba only in CI's leg)."""
    if request.param == "numba":
        pytest.importorskip("numba")
        from repro.kernels import numba_backend

        return numba_backend.make_backend()["knn_head"]
    return TABLE["knn_head"]


def assert_group_equals_scalar(knn_head, xs, ys, pids, rows, px, py, k):
    """Row ``i`` of the grouped call is the scalar call for focal ``i``, bit for bit."""
    sel, dists = knn_head(xs, ys, pids, rows, px, py, k)
    assert sel.shape == dists.shape == (len(px), min(k, len(rows)))
    for i in range(len(px)):
        exp_sel, exp_dists = knn_head(xs, ys, pids, rows, float(px[i]), float(py[i]), k)
        assert sel[i].dtype == exp_sel.dtype
        assert sel[i].tolist() == exp_sel.tolist()
        assert dists[i].tobytes() == exp_dists.tobytes()
    return sel, dists


@pytest.mark.parametrize("k", [1, 7, 199, 200, 500])
def test_grouped_knn_head_equals_scalar_rows(knn_head, cloud, k):
    xs, ys, pids = cloud  # k < n, k == n - 1, k == n and k > n
    rows = np.arange(200, dtype=np.int32)
    rng = np.random.default_rng(11)
    px, py = rng.uniform(-20.0, 120.0, size=(2, 33))
    sel, dists = assert_group_equals_scalar(knn_head, xs, ys, pids, rows, px, py, k)
    exp_rows, exp_dists = brute_topk(xs, ys, pids, rows, px[0], py[0], k)
    assert sel[0].tolist() == exp_rows
    np.testing.assert_allclose(dists[0], exp_dists, rtol=1e-15)


def test_grouped_knn_head_duplicates_break_ties_by_pid(knn_head):
    xs = np.array([5.0, 5.0, 5.0, 1.0, 5.0])
    ys = np.array([5.0, 5.0, 5.0, 1.0, 5.0])
    pids = np.array([30, 10, 20, 40, 5], dtype=np.int64)
    rows = np.arange(5, dtype=np.int64)
    px = np.array([5.0, 1.0, 3.0])
    py = np.array([5.0, 1.0, 3.0])
    sel, _ = assert_group_equals_scalar(knn_head, xs, ys, pids, rows, px, py, 3)
    assert pids[sel[0]].tolist() == [5, 10, 20]
    assert pids[sel[1]].tolist() == [40, 5, 10]


def test_grouped_knn_head_single_candidate_and_no_candidates(knn_head, cloud):
    xs, ys, pids = cloud
    px = np.array([0.0, 50.0, 100.0])
    py = np.array([100.0, 50.0, 0.0])
    one = np.array([42], dtype=np.int32)
    sel, dists = assert_group_equals_scalar(knn_head, xs, ys, pids, one, px, py, 1)
    assert sel.tolist() == [[42]] * 3
    assert_group_equals_scalar(knn_head, xs, ys, pids, one, px, py, 6)
    none = np.empty(0, dtype=np.int32)
    sel, dists = knn_head(xs, ys, pids, none, px, py, 2)
    assert sel.shape == dists.shape == (3, 0)


def test_grouped_knn_head_crosses_the_subchunk_boundary(knn_head):
    # 700 candidates x 300 focals = 210k squared distances: four sub-chunks
    # of the 64k-element scratch, the last one partial.
    rng = np.random.default_rng(5)
    xs, ys = rng.uniform(0.0, 50.0, size=(2, 900))
    pids = rng.permutation(900).astype(np.int64)
    rows = rng.choice(900, size=700, replace=False).astype(np.int32)
    px, py = rng.uniform(0.0, 50.0, size=(2, 300))
    assert len(rows) * len(px) > 3 * numpy_backend._GROUP_ELEMS
    assert_group_equals_scalar(knn_head, xs, ys, pids, rows, px, py, 5)


def test_grouped_knn_head_boundary_ties_inside_head_slack(knn_head):
    # Around (0, 0) the four unit neighbours tie exactly and a fifth sits a
    # few ulp farther — inside HEAD_SLACK, so the head is wider than k and the
    # exact (hypot, pid) order decides; the other focals have no such tie.
    near = 1.0 + 4 * np.finfo(np.float64).eps
    assert near * near <= 1.0 + numpy_backend.HEAD_SLACK
    xs = np.array([1.0, 0.0, -1.0, 0.0, near, 3.0, 0.25, 7.0])
    ys = np.array([0.0, 1.0, 0.0, -1.0, 0.0, 3.0, 0.5, -2.0])
    pids = np.array([50, 40, 30, 20, 10, 60, 70, 80], dtype=np.int64)
    rows = np.arange(8, dtype=np.int32)
    px = np.array([0.0, 2.9, 0.0, 6.0])
    py = np.array([0.0, 3.1, 0.0, -2.0])
    sel, dists = assert_group_equals_scalar(knn_head, xs, ys, pids, rows, px, py, 3)
    assert pids[sel[0]].tolist() == [70, 20, 30]
    assert dists[0].tolist() == [math.hypot(0.25, 0.5), 1.0, 1.0]


def test_grouped_knn_head_results_do_not_alias_scratch(knn_head, cloud):
    xs, ys, pids = cloud
    rows = np.arange(200, dtype=np.int32)
    first = knn_head(xs, ys, pids, rows, np.array([10.0, 20.0]), np.array([10.0, 20.0]), 4)
    kept = [a.copy() for a in first]
    knn_head(xs, ys, pids, rows, np.array([90.0, 80.0]), np.array([90.0, 80.0]), 4)
    for before, after in zip(kept, first):
        np.testing.assert_array_equal(before, after)
