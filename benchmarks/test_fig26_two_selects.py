"""Figure 26: two kNN-selects with k1 = 10 and a much larger k2.

Series: the conceptually correct plan (both selects in full, then intersect)
vs the 2-kNN-select algorithm (Procedure 5).  The paper reports almost two
orders of magnitude at log2(k2/k1) = 8; the benchmark measures that point and
asserts the claim behind it in work units: Procedure 5 returns the conceptual
plan's points while scanning a locality clipped to the smaller select's
result — fewer blocks than the larger select's full locality.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import build_figure_runners
from repro.core.stats import PruningStats
from repro.locality.brute import brute_force_knn
from repro.locality.knn import build_locality

pytestmark = pytest.mark.benchmark(group="fig26-two-selects")

_WORKLOAD, _SWEEP, _RUNNERS = build_figure_runners(26)
_INDEX, _F1, _K1, _F2, _K2 = _RUNNERS["2-knn-select"].args


def test_fig26_conceptual_qep(benchmark):
    """Baseline: both neighborhoods computed over their full localities."""
    result = benchmark.pedantic(_RUNNERS["conceptual-qep"], rounds=1, iterations=1)
    points = list(_INDEX.points())
    second = brute_force_knn(points, _F2, _K2).pids
    expected = [p.pid for p in brute_force_knn(points, _F1, _K1) if p.pid in second]
    assert expected and [p.pid for p in result] == expected


def test_fig26_2knn_select(benchmark):
    """Optimized: the larger select's locality is clipped to the smaller's result."""
    stats = PruningStats()
    result = benchmark.pedantic(
        _RUNNERS["2-knn-select"], kwargs={"stats": stats}, rounds=1, iterations=1
    )
    assert [p.pid for p in result] == [p.pid for p in _RUNNERS["conceptual-qep"]()]
    full_locality = build_locality(_INDEX, _F2, _K2)
    assert 0 < stats.locality_blocks < full_locality.num_blocks
    assert stats.blocks_pruned == _INDEX.num_blocks - stats.locality_blocks
