"""Worker-pool plumbing: CPU detection, width clamping, segment publishing."""

from __future__ import annotations

import os

import pytest

from repro.exceptions import InvalidParameterError
from repro.shard.pool import (
    BACKENDS,
    ShardWorkerPool,
    available_cpus,
    resolve_backend,
)


def test_available_cpus_matches_affinity_when_supported():
    expected = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else (os.cpu_count() or 1)
    )
    assert available_cpus() == max(1, expected)


def test_available_cpus_falls_back_to_cpu_count(monkeypatch):
    def broken(_pid):
        raise OSError("affinity not supported")

    monkeypatch.setattr(os, "sched_getaffinity", broken, raising=False)
    assert available_cpus() == max(1, os.cpu_count() or 1)


def test_available_cpus_never_below_one(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert available_cpus() == 1


def test_resolve_backend_rejects_unknown():
    with pytest.raises(InvalidParameterError):
        resolve_backend("gpu")
    for name in BACKENDS:
        assert resolve_backend(name) in ("serial", "thread", "process")


def test_pool_clamps_max_workers_to_at_least_one():
    for requested in (0, -3):
        pool = ShardWorkerPool("tok-clamp", {}, backend="serial", max_workers=requested)
        try:
            assert pool.max_workers == 1
            assert not pool.parallel
        finally:
            pool.close()


def test_pool_default_width_is_affinity_bounded():
    pool = ShardWorkerPool("tok-width", {}, backend="serial")
    try:
        assert 1 <= pool.max_workers <= min(32, available_cpus())
    finally:
        pool.close()


def test_serial_pool_never_publishes_segments():
    pool = ShardWorkerPool("tok-serial", {}, backend="serial")
    try:
        assert not pool.segments_enabled
        assert pool.segment_names() == {}
    finally:
        pool.close()
