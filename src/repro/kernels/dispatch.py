"""Kernel backend dispatch: numpy reference vs optional compiled kernels.

The engine's distance-math hot paths (locality ranking, batched block
matrices, cross-shard merge, stream guard membership) call the wrapper
functions in this module instead of inlining numpy.  Each wrapper forwards
to the *active backend*'s implementation and bumps a per-kernel dispatch
counter labeled with the backend name, so traces and metric snapshots show
which path actually ran.

Backend selection:

- ``REPRO_KERNELS=auto`` (the default): use ``numba`` when importable, else
  the pure-numpy reference.  Tier-1 environments without numba silently get
  numpy — no optional dependency is ever imported at package import time
  unless it is about to be used.
- ``REPRO_KERNELS=numpy`` / ``REPRO_KERNELS=numba``: force a backend;
  forcing an unavailable backend raises at first import, which is the
  desired loud failure in CI matrix legs.
- :func:`set_backend` / :func:`use_backend` swap backends at runtime (the
  calibration-reconvergence tests hot-swap mid-session); every switch is
  process-local and takes effect for subsequent kernel calls immediately.
- :func:`register_backend` adds third-party kernel tables; a factory is
  only invoked when its backend is activated or probed, so registration is
  free.

All backends must be *exact* drop-ins: the parity property suite ranks the
same datasets through every available backend and requires identical
``(distance, pid)`` results.  See ``docs/kernels.md``.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Mapping

from repro.kernels import numba_backend, numpy_backend
from repro.obs import hub
from repro.obs.metrics import Counter, MetricsRegistry

__all__ = [
    "KERNEL_NAMES",
    "available_backends",
    "backend",
    "ball_mask",
    "block_matrices",
    "counter_deltas",
    "counter_values",
    "dispatch_registry",
    "knn_head",
    "merge_counts",
    "merge_topk",
    "point_block_maxdists",
    "point_block_mindists",
    "register_backend",
    "set_backend",
    "use_backend",
    "window_mask",
]

#: The seven kernels every backend must implement.
KERNEL_NAMES = (
    "knn_head",
    "block_matrices",
    "point_block_mindists",
    "point_block_maxdists",
    "merge_topk",
    "window_mask",
    "ball_mask",
)

#: Environment variable naming the backend to activate at import time.
_ENV_VAR = "REPRO_KERNELS"

_REGISTRY = MetricsRegistry("kernels")
hub.register(_REGISTRY)

_lock = threading.Lock()
_factories: dict[str, Callable[[], Mapping[str, Callable]]] = {
    "numpy": numpy_backend.make_backend,
    "numba": numba_backend.make_backend,
}
_backend_name = "numpy"
_impls: Mapping[str, Callable] = numpy_backend.make_backend()
_counters: dict[str, Counter] = {}


def dispatch_registry() -> MetricsRegistry:
    """The hub-registered metrics registry holding the dispatch counters.

    Counters are named ``kernel_dispatch_total`` and labeled
    ``{kernel=<name>, backend=<active backend>}``; they are pre-resolved at
    backend activation so the per-call cost is one attribute addition.
    """
    return _REGISTRY


def counter_values() -> dict[tuple, float]:
    """Current dispatch-counter values keyed by ``(name, labels)``.

    Snapshot this before a unit of work, then :func:`counter_deltas` after,
    to attribute kernel dispatches to that work — the worker-telemetry
    capture path does exactly this around each shard task.
    """
    return {(c.name, c.labels): c.value for c in _REGISTRY.counters()}


def counter_deltas(before: Mapping[tuple, float]) -> list[dict]:
    """Positive dispatch-counter increases since a :func:`counter_values` call.

    Each delta is ``{"name", "labels": {...}, "delta"}`` — a picklable,
    JSON-able shape shipped from process workers back to the coordinator.
    """
    deltas = []
    for counter in _REGISTRY.counters():
        delta = counter.value - before.get((counter.name, counter.labels), 0.0)
        if delta > 0:
            deltas.append(
                {"name": counter.name, "labels": dict(counter.labels), "delta": delta}
            )
    return deltas


def merge_counts(deltas: list[dict]) -> None:
    """Fold worker-reported :func:`counter_deltas` into this process's registry.

    The coordinator calls this for telemetry shipped from *other* processes
    only — serial/thread backends already incremented the live registry, so
    merging their deltas would double-count.
    """
    for delta in deltas:
        _REGISTRY.counter(delta["name"], **delta["labels"]).add(delta["delta"])


def _resolve_counters(name: str) -> dict[str, Counter]:
    return {
        kernel: _REGISTRY.counter("kernel_dispatch_total", kernel=kernel, backend=name)
        for kernel in KERNEL_NAMES
    }


def _activate(name: str) -> None:
    global _backend_name, _impls, _counters
    factory = _factories.get(name)
    if factory is None:
        raise ValueError(
            f"unknown kernel backend {name!r}; registered: {sorted(_factories)}"
        )
    impls = factory()
    missing = [k for k in KERNEL_NAMES if k not in impls]
    if missing:
        raise ValueError(f"backend {name!r} is missing kernels: {missing}")
    counters = _resolve_counters(name)
    _impls = impls
    _counters = counters
    _backend_name = name


def backend() -> str:
    """Name of the active kernel backend (``"numpy"``, ``"numba"``, ...)."""
    return _backend_name


def set_backend(name: str) -> str:
    """Activate the named backend for all subsequent kernel calls.

    Resolves ``"auto"`` to numba-when-importable (else numpy).  Raises
    ``ValueError`` for unregistered names and propagates the backend
    factory's error (e.g. ``ImportError``) when a forced backend cannot
    load.  Returns the previously active backend's name so callers can
    restore it.
    """
    with _lock:
        previous = _backend_name
        if name == "auto":
            try:
                _activate("numba")
            except Exception:
                _activate("numpy")
        else:
            _activate(name)
        return previous


@contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Context manager: activate ``name``, restore the previous backend on exit."""
    previous = set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)


def register_backend(name: str, factory: Callable[[], Mapping[str, Callable]]) -> None:
    """Register a kernel-table factory under ``name``.

    ``factory`` is called (lazily) when the backend is activated or probed
    and must return a mapping with every kernel in :data:`KERNEL_NAMES`.
    Re-registering a name replaces the factory (the shadow-backend tests use
    this to wrap the numpy table).
    """
    with _lock:
        _factories[name] = factory


def available_backends() -> list[str]:
    """Names of registered backends that can actually activate here.

    A backend counts as available only when its factory loads *and* its
    table covers every kernel in :data:`KERNEL_NAMES` — a partial table
    would raise at :func:`set_backend` time, so it is not available.
    """
    out = []
    for name, factory in sorted(_factories.items()):
        try:
            impls = factory()
        except Exception:
            continue
        if all(k in impls for k in KERNEL_NAMES):
            out.append(name)
    return out


def knn_head(xs, ys, pids, rows, px, py, k):
    """Exact ``(distance, pid)`` top-k over candidate store rows.

    Returns ``(selected_rows, distances)`` sorted by ``(distance, pid)``,
    at most ``k`` long; ``xs``/``ys``/``pids`` are full store columns and
    ``rows`` indexes the candidates.

    ``px``/``py`` are scalars (one focal) or ``(g,)`` arrays — a group of
    focals ranked over the same candidates, returned as
    ``(g, min(k, len(rows)))`` arrays whose row ``i`` equals the scalar call
    for focal ``i`` bit for bit.  A group is **one** dispatch: the counter
    counts ranking calls, not focals.
    """
    _counters["knn_head"].inc()
    return _impls["knn_head"](xs, ys, pids, rows, px, py, k)


def block_matrices(cx, cy, bxmin, bymin, bxmax, bymax):
    """Squared MINDIST/MAXDIST matrices from ``(q,)`` queries to ``(b,)`` blocks."""
    _counters["block_matrices"].inc()
    return _impls["block_matrices"](cx, cy, bxmin, bymin, bxmax, bymax)


def point_block_mindists(px, py, bxmin, bymin, bxmax, bymax):
    """True (``hypot``) MINDIST from one point to every block rectangle."""
    _counters["point_block_mindists"].inc()
    return _impls["point_block_mindists"](px, py, bxmin, bymin, bxmax, bymax)


def point_block_maxdists(px, py, bxmin, bymin, bxmax, bymax):
    """True (``hypot``) MAXDIST from one point to every block rectangle."""
    _counters["point_block_maxdists"].inc()
    return _impls["point_block_maxdists"](px, py, bxmin, bymin, bxmax, bymax)


def merge_topk(dists, pids, k):
    """Indices of the first ``k`` rows in global ``(distance, pid)`` order."""
    _counters["merge_topk"].inc()
    return _impls["merge_topk"](dists, pids, k)


def window_mask(xs, ys, xmin, ymin, xmax, ymax):
    """Boolean mask of the coordinates inside the closed rectangle."""
    _counters["window_mask"].inc()
    return _impls["window_mask"](xs, ys, xmin, ymin, xmax, ymax)


def ball_mask(dx, dy, bound2):
    """Boolean mask ``dx*dx + dy*dy <= bound2`` (scalar or broadcast bound)."""
    _counters["ball_mask"].inc()
    return _impls["ball_mask"](dx, dy, bound2)


# Activate the environment-selected backend at import time so the first
# kernel call already runs the right implementation.
set_backend(os.environ.get(_ENV_VAR, "auto") or "auto")
