"""Smoke test of the benchmark itself (``pytest perf/tests``; not part of tier-1).

Runs every workload once at smoke scale, end to end and traced, and checks
that what the benchmark prints is what ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perf import catalog, compare, oracle  # noqa: E402
from perf.workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    """One ``--smoke --trace 1`` pass over all six workloads."""
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--smoke", "--trace", "1", "--json", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    wall = time.perf_counter() - started
    assert done.returncode == 0, done.stdout + done.stderr
    document = json.loads(out.read_text())
    document["_wall"] = wall
    return document


def test_benchmark_json_mirrors_the_catalog(declared):
    whys = {name: cls.why for name, cls in WORKLOADS.items()}
    assert declared == catalog.benchmark_json(whys, declared["run_seconds"])


def test_declared_names_units_and_caps(declared):
    names = [w["name"] for w in declared["workloads"]]
    names += [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in declared["end_to_end"] + declared["per_layer"])
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in declared["end_to_end"]
    )


def test_smoke_prints_exactly_what_is_declared(declared, smoke):
    assert smoke["_wall"] < 30.0
    assert list(smoke["workloads"]) == [w["name"] for w in declared["workloads"]]
    for name, run in smoke["workloads"].items():
        assert run["failed"] == 0 and run["attempted"] >= 1, name
        for section in ("end_to_end", "per_layer"):
            printed = {metric: cell["unit"] for metric, cell in run[section].items()}
            assert printed == {m["name"]: m["unit"] for m in declared[section]}, (name, section)
        assert all(cell["values"][0] > 0 for cell in run["end_to_end"].values()), name


def test_smoke_env_block(smoke):
    assert {"python", "numpy", "nproc", "kernel_backend", "git_commit"} <= set(smoke["env"])
    assert smoke["env"]["kernel_backend"] == "numpy"


def test_oracle_catches_an_injected_wrong_result():
    oracle.self_test()


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.verdict(steady, [v * 1.3 for v in steady], "lower", 0.10)[0] == "worse"
    assert compare.verdict(steady, [v * 0.7 for v in steady], "lower", 0.10)[0] == "better"
    assert compare.verdict(steady, steady, "lower", 0.10)[0] == "same"
    assert compare.verdict(steady, [v * 0.7 for v in steady], "higher", 0.10)[0] == "worse"
    noisy = [10.0, 14.0, 7.0, 12.0, 9.0]
    assert compare.verdict(noisy, noisy, "lower", 0.10)[0] == "unresolved"


def test_no_child_outlives_a_run():
    """A spawned child starts multiprocessing's resource tracker, which would
    otherwise only exit after this process; a sleeping child stands for a
    worker that a failing path forgot."""
    import multiprocessing

    from perf import harness

    sleeper = multiprocessing.get_context("spawn").Process(target=time.sleep, args=(60,))
    sleeper.start()
    assert len(harness.child_pids()) >= 2  # the sleeper and the tracker
    assert harness.stop_children() == []
