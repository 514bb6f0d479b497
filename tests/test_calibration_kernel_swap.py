"""S3: the calibration loop re-converges after a kernel-backend hot swap.

The calibration store records *abstract work units* derived from pruning
statistics, not wall-clock time, so swapping the kernel backend mid-session
(numpy → a registered drop-in) must not destabilize converged plans: the
observed costs stay comparable, EXPLAIN keeps reporting them, and at most a
few demotions occur before the loop settles again.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.kernels import numpy_backend

from test_engine_calibration import _mispredicting_engine


@pytest.fixture(autouse=True)
def _restore_backend():
    previous = kernels.backend()
    yield
    kernels.set_backend(previous)


def _shadow_factory():
    """A drop-in backend: the numpy table re-wrapped under a new name."""
    table = dict(numpy_backend.make_backend())
    original_head = table["knn_head"]

    def head(xs, ys, pids, rows, px, py, k):
        return original_head(
            np.asarray(xs), np.asarray(ys), np.asarray(pids), rows, px, py, k
        )

    table["knn_head"] = head
    return table


def test_converged_session_survives_backend_swap():
    kernels.register_backend("shadow", _shadow_factory)
    engine, query = _mispredicting_engine()

    # Converge under the default backend.
    for _ in range(6):
        converged = engine.run(query)
    settled = engine.demotions
    before = engine.explain(query)
    assert before.observed_total is not None

    # Hot-swap the kernel backend mid-session: identical answers.
    kernels.set_backend("shadow")
    for _ in range(6):
        swapped = engine.run(query)
    assert sorted(p.pids for p in swapped.pairs) == sorted(
        p.pids for p in converged.pairs
    )

    # Re-convergence bar: at most 3 further demotions, then stable.
    assert engine.demotions - settled <= 3
    after_demotions = engine.demotions
    for _ in range(3):
        engine.run(query)
    assert engine.demotions == after_demotions

    # EXPLAIN reports observed costs measured under the new backend, and
    # they agree with the pre-swap work profile (abstract units, not wall
    # time: a drop-in backend does the same work).
    after = engine.explain(query)
    assert after.observed_total is not None
    assert after.observed_total == pytest.approx(before.observed_total, rel=0.5)


def test_swap_annotates_traces_with_new_backend():
    kernels.register_backend("shadow", _shadow_factory)
    engine, query = _mispredicting_engine()
    engine.run(query)
    kernels.set_backend("shadow")
    engine.run(query)
    roots = [trace.root for trace in engine.traces()]
    backends = [root.attributes.get("kernel_backend") for root in roots]
    assert backends[-1] == "shadow"
    assert backends[0] == "numpy"
