"""The kernel dispatch layer: backend selection, counters, hot swap."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import kernels
from repro.kernels import dispatch


@pytest.fixture(autouse=True)
def _restore_backend():
    """Every test leaves the process-global backend as it found it."""
    previous = kernels.backend()
    yield
    kernels.set_backend(previous)


def test_default_backend_is_available():
    assert kernels.backend() in kernels.available_backends()


def test_numpy_backend_always_available():
    assert "numpy" in kernels.available_backends()


def test_set_backend_returns_previous():
    previous = kernels.set_backend("numpy")
    assert kernels.backend() == "numpy"
    assert previous in ("numpy", "numba") or previous in kernels.available_backends()


def test_set_backend_unknown_name_raises():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        kernels.set_backend("fortran")


def test_auto_resolves_to_an_available_backend():
    kernels.set_backend("auto")
    assert kernels.backend() in ("numpy", "numba")


def test_use_backend_restores_on_exit():
    kernels.set_backend("numpy")
    with kernels.use_backend("numpy"):
        assert kernels.backend() == "numpy"
    assert kernels.backend() == "numpy"


def test_use_backend_restores_on_error():
    kernels.set_backend("numpy")
    with pytest.raises(RuntimeError):
        with kernels.use_backend("numpy"):
            raise RuntimeError("boom")
    assert kernels.backend() == "numpy"


def test_register_backend_and_activate():
    calls = {"n": 0}

    def factory():
        table = dict(dispatch.numpy_backend.make_backend())
        original = table["merge_topk"]

        def counting_merge(dists, pids, k):
            calls["n"] += 1
            return original(dists, pids, k)

        table["merge_topk"] = counting_merge
        return table

    kernels.register_backend("shadow", factory)
    kernels.set_backend("shadow")
    assert kernels.backend() == "shadow"
    order = kernels.merge_topk(
        np.array([3.0, 1.0, 2.0]), np.array([1, 2, 3], dtype=np.int64), 2
    )
    assert order.tolist() == [1, 2]
    assert calls["n"] == 1


def test_register_backend_missing_kernel_rejected():
    kernels.register_backend("partial", lambda: {"merge_topk": lambda d, p, k: None})
    with pytest.raises(ValueError, match="missing kernels"):
        kernels.set_backend("partial")
    # A table that cannot activate is not available either.
    assert "partial" not in kernels.available_backends()


def test_dispatch_counters_labelled_by_backend():
    kernels.set_backend("numpy")
    registry = kernels.dispatch_registry()
    counter = registry.counter(
        "kernel_dispatch_total", kernel="window_mask", backend="numpy"
    )
    before = counter.value
    kernels.window_mask(
        np.array([0.5]), np.array([0.5]), 0.0, 0.0, 1.0, 1.0
    )
    assert counter.value == before + 1


def test_every_kernel_name_dispatches():
    kernels.set_backend("numpy")
    registry = kernels.dispatch_registry()
    xs = np.array([0.0, 1.0, 2.0])
    ys = np.array([0.0, 1.0, 2.0])
    pids = np.array([10, 11, 12], dtype=np.int64)
    rows = np.array([0, 1, 2], dtype=np.int64)
    before = {
        name: registry.counter(
            "kernel_dispatch_total", kernel=name, backend="numpy"
        ).value
        for name in kernels.KERNEL_NAMES
    }
    kernels.knn_head(xs, ys, pids, rows, 0.1, 0.1, 2)
    kernels.block_matrices(xs, ys, xs, ys, xs + 1.0, ys + 1.0)
    kernels.point_block_mindists(0.0, 0.0, xs, ys, xs + 1.0, ys + 1.0)
    kernels.point_block_maxdists(0.0, 0.0, xs, ys, xs + 1.0, ys + 1.0)
    kernels.merge_topk(xs, pids, 2)
    kernels.window_mask(xs, ys, 0.0, 0.0, 1.5, 1.5)
    kernels.ball_mask(xs, ys, 2.0)
    for name in kernels.KERNEL_NAMES:
        after = registry.counter(
            "kernel_dispatch_total", kernel=name, backend="numpy"
        ).value
        assert after == before[name] + 1, name


def test_dispatch_registry_reaches_obs_hub():
    from repro.obs import hub

    assert kernels.dispatch_registry() in hub.registries()


def test_grouped_knn_head_counts_one_dispatch():
    kernels.set_backend("numpy")
    xs = np.array([0.0, 1.0, 2.0])
    pids = np.array([10, 11, 12], dtype=np.int64)
    rows = np.array([0, 1, 2], dtype=np.int64)
    before = dispatch.counter_values()
    sel, dists = kernels.knn_head(xs, xs, pids, rows, np.array([0.1, 1.9]), np.array([0.1, 1.9]), 2)
    (delta,) = dispatch.counter_deltas(before)
    assert (delta["labels"]["kernel"], delta["delta"]) == ("knn_head", 1)
    assert sel.tolist() == [[0, 1], [2, 1]]
    assert dists.shape == (2, 2)


def test_every_kernel_has_a_benchmark_catalog_entry():
    """``perf/`` derives ``kernels.<name>_us`` from ``KERNEL_NAMES`` and a
    traced run raises ``KeyError`` on a name ``BENCHMARK.json`` lacks — fail
    here instead, before the benchmark does."""
    catalog = json.loads(
        (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text()
    )
    per_layer = {metric["name"] for metric in catalog["per_layer"]}
    assert {f"kernels.{name}_us" for name in kernels.KERNEL_NAMES} <= per_layer
    assert len(kernels.KERNEL_NAMES) == 7
