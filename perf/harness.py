"""The closed loop, the metric arithmetic and the process hygiene.

One client issues an op, waits for its result, then issues the next — the
library is embedded, so this is how its callers behave.  Ops are built
outside the per-op timer; throughput is completed ops per second of time the
library was busy, so the generator's own cost never counts as service time.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "Workload",
    "RunResult",
    "count_failures",
    "median_seconds",
    "run_end_to_end",
    "run_traced",
    "env_block",
    "repro_segments",
    "stop_children",
    "OUT_DIR",
]

ROOT = Path(__file__).resolve().parent.parent
#: Everything a run writes (traces, temp durable roots) goes here.
OUT_DIR = Path(__file__).resolve().parent / "out"

#: How many times set-up is repeated per run; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: Share of ops checked against the oracle (never fewer than ``MIN_CHECKS``).
CHECK_FRACTION = 0.05
MIN_CHECKS = 10


class Workload:
    """What the harness needs from a workload (see ``perf/workloads``)."""

    name = ""
    why = ""
    #: Frozen input sizes; ``smoke`` replaces them for the sub-second variant.
    sizes: dict[str, int] = {}
    smoke_sizes: dict[str, int] = {}
    #: Ops run (untimed, unchecked) before the timed region starts.
    warmup_ops = 32
    #: Ops per cycle of the workload's kind pattern: statistics are taken over
    #: chunks that are whole cycles, so every chunk has the same class mix.
    pattern_len = 1
    #: Traced run: ops of the untraced comparison slice, and the number of
    #: traced ops every *count* metric is taken over.  Fixed, so that for one
    #: seed the counted ops are the same ops on every launch and counts repeat
    #: exactly; timings use every op the traced slice completes.
    count_ops = 100
    #: Worker processes/threads the workload starts (the generator is this
    #: process; no workload may use more than the machine has cores).
    workers = 1

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.n = dict(self.smoke_sizes if smoke else self.sizes)
        if smoke:
            self.count_ops = max(10, self.count_ops // 10)

    def generate(self) -> None:
        """Build the inputs from ``self.seed`` (timed as ``datagen.generate_s``)."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work a set-up needs redone each time (e.g. restoring the
        crashed root that the timed recovery consumes)."""

    def setup(self) -> Any:
        """Everything up to the first op: register, index, pool, subscriptions,
        warm plans.  Returns the state ops run against."""
        raise NotImplementedError

    def teardown(self, state: Any) -> None:
        """Release what :meth:`setup` acquired (pools, files)."""

    def cleanup(self) -> None:
        """Remove what :meth:`generate` left on disk (called once, last)."""

    def ops(self, state: Any) -> Iterator[tuple[str, Any]]:
        """An endless, seeded stream of ``(kind, args)`` ops."""
        raise NotImplementedError

    def execute(self, state: Any, kind: str, args: Any) -> Any:
        """Run one op and return its result (this call is what gets timed)."""
        raise NotImplementedError

    def capture(self, state: Any, kind: str, args: Any, result: Any) -> Any:
        """Keep what checking this op later needs (result + data version)."""
        raise NotImplementedError

    def check(self, captured: Any) -> tuple[Any, Any]:
        """``(got, expected)`` canonical rows of one captured op."""
        raise NotImplementedError

    def finish(self, state: Any) -> list[tuple[Any, Any]]:
        """End-of-run checks (delta replay, reopen); ``(got, expected)`` pairs."""
        return []

    def trace(self, state: Any, seconds: float) -> dict[str, float]:
        """The traced run: per-layer metrics this workload can measure; leaves
        the spans in ``self.recorder``."""
        raise NotImplementedError

    def adjust_shares(self, shares: dict[str, float]) -> None:
        """Move share between layers the span tree cannot tell apart."""


@dataclass
class RunResult:
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def count_failures(pairs: Sequence[tuple[Any, Any]]) -> int:
    """How many ``(got, expected)`` pairs disagree."""
    return sum(1 for got, expected in pairs if got != expected)


def median_seconds(call: Callable[[], Any], repeats: int) -> float:
    """Median wall seconds of ``call`` over ``repeats`` runs."""
    walls = []
    for _ in range(repeats):
        started = perf_counter()
        call()
        walls.append(perf_counter() - started)
    return statistics.median(walls)


#: Chunks of the timed region a run's statistics are taken over.  Other
#: tenants of a shared machine slow it in bursts of seconds; every metric is
#: read at the quartile of its per-chunk values on the *quiet* side (lower for
#: times, upper for throughput), which a burst moves only once it has hit
#: three quarters of the chunks.
CHUNKS = 12
#: A chunk needs this many ops before a p95 is read from it.
P95_CHUNK_OPS = 100


def chunked(values: np.ndarray, chunks: int, unit: int) -> list[np.ndarray]:
    """Split ``values`` into ``chunks`` equal runs of whole ``unit``-op cycles
    (the ragged tail is dropped; one chunk if there are too few ops)."""
    size = len(values) // (chunks * unit) * unit
    if size == 0:
        return [values]
    return [values[i * size : (i + 1) * size] for i in range(chunks)]


def quiet_quartile(values, better: str = "lower") -> float:
    """The quartile of per-chunk ``values`` on the side interference cannot
    improve: the 25th percentile of a time, the 75th of a rate."""
    return float(np.percentile(list(values), 25 if better == "lower" else 75))


def _children_cpu() -> float:
    times = os.times()
    return times.children_user + times.children_system


def _peak_rss_mib() -> float:
    """Max RSS of this process plus the largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_end_to_end(workload: Workload, seconds: float) -> RunResult:
    """Generate, set up (repeatedly), warm up, run the timed closed loop,
    check a sample of ops against the oracle, tear down."""
    workload.generate()
    setups = []
    state = None
    for _ in range(2 if workload.smoke else SETUP_REPEATS):
        if state is not None:
            workload.teardown(state)
        workload.prepare()
        started = perf_counter()
        state = workload.setup()
        setups.append(perf_counter() - started)
    result = RunResult()
    try:
        stream = workload.ops(state)
        for _ in range(workload.warmup_ops):
            kind, args = next(stream)
            workload.execute(state, kind, args)

        # Everything built so far is long-lived; keep the collector from
        # rescanning it (and the discarded set-ups) during the timed region.
        gc.collect()
        gc.freeze()
        rng = np.random.default_rng(workload.seed + 1)
        latencies: list[float] = []
        cpu_marks: list[float] = []
        captured: list[Any] = []
        raised = 0
        cpu_children = _children_cpu()
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            kind, args = next(stream)
            sampled = len(latencies) < MIN_CHECKS or rng.random() < CHECK_FRACTION
            cpu_marks.append(time.process_time())
            started = perf_counter()
            try:
                outcome = workload.execute(state, kind, args)
            except Exception:  # the op failed: count it, keep the loop going
                latencies.append(perf_counter() - started)
                raised += 1
                continue
            latencies.append(perf_counter() - started)
            if sampled:
                captured.append(workload.capture(state, kind, args, outcome))
        cpu_marks.append(time.process_time())

        pairs = [workload.check(item) for item in captured]
        pairs.extend(workload.finish(state))
    finally:
        # Worker processes are reaped here, which is what makes their CPU
        # and RSS visible to os.times() / getrusage().
        workload.teardown(state)
        workload.cleanup()
    cpu_children = _children_cpu() - cpu_children

    ops = len(latencies)
    ms = np.asarray(latencies) * 1000.0
    unit = workload.pattern_len
    chunks = chunked(ms, CHUNKS, unit)
    tail_chunks = chunked(ms, max(1, min(CHUNKS, ops // P95_CHUNK_OPS)), unit)
    # CPU of this process from each op's start to the next op's start (the
    # generator included), per chunk; the workers' CPU is only known in total.
    own_cpu_ms = chunked(np.diff(np.asarray(cpu_marks)) * 1000.0, CHUNKS, unit)
    result.attempted = ops
    result.failed = raised + count_failures(pairs)
    result.samples = {
        "ops": ops,
        "checked": len(pairs),
        "chunks": len(chunks),
        "beyond_p95": sum(len(c) // 20 for c in tail_chunks),
    }
    result.metrics = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": quiet_quartile((1000.0 * len(c) / c.sum() for c in chunks), "higher"),
        "latency_p50_ms": quiet_quartile(np.median(c) for c in chunks),
        "latency_p95_ms": quiet_quartile(np.percentile(c, 95) for c in tail_chunks),
        "cpu_ms_per_op": quiet_quartile(c.mean() for c in own_cpu_ms)
        + cpu_children * 1000.0 / ops,
        "peak_rss_mb": _peak_rss_mib(),
    }
    return result


#: Length of the traced slice a borrowed smoke-scale workload runs for.
BORROW_SECONDS = 0.4


def _trace(workload: Workload, seconds: float) -> tuple[dict[str, float], float]:
    """Generate, set up, warm up and trace one workload; returns its
    measurements and how long generation took."""
    started = perf_counter()
    workload.generate()
    generate_s = perf_counter() - started
    workload.prepare()
    state = workload.setup()
    try:
        stream = workload.ops(state)
        for _ in range(workload.warmup_ops):
            kind, args = next(stream)
            workload.execute(state, kind, args)
        return workload.trace(state, seconds), generate_s
    finally:
        workload.teardown(state)
        workload.cleanup()


def run_traced(
    workload: Workload, seconds: float, borrow: Sequence[Workload] = ()
) -> RunResult:
    """The traced run: every per-layer metric of the catalog, spans written
    to ``perf/out``.

    A layer ``workload`` never enters (``durable`` on ``select_mix``) is
    measured on the smoke-scale instances in ``borrow`` — the workloads that
    do enter it — so any traced run gives a number for every layer.  What
    nobody measured reads 0.
    """
    from perf import catalog

    measured, generate_s = _trace(workload, seconds)
    for other in borrow:
        for name, value in _trace(other, BORROW_SECONDS)[0].items():
            measured.setdefault(name, value)
    recorder = workload.recorder
    shares = recorder.layer_shares(parallel=workload.workers)
    workload.adjust_shares(shares)
    measured["datagen.generate_s"] = generate_s
    measured["unattributed_share"] = shares.pop("unattributed")
    measured.update({f"share.{layer}": share for layer, share in shares.items()})
    names = [name for name, _unit, _better, _moves in catalog.PER_LAYER]
    unknown = sorted(set(measured) - set(names))
    if unknown:
        raise KeyError(f"{workload.name} reported metrics the catalog lacks: {unknown}")
    recorder.dump(OUT_DIR / f"trace-{workload.name}.json")
    return RunResult(
        attempted=len(recorder.roots()),
        metrics={name: float(measured.get(name, 0.0)) for name in names},
    )


# ----------------------------------------------------------------------
# Hygiene
# ----------------------------------------------------------------------
def repro_segments() -> list[str]:
    """``repro-<pid>-*`` shared-memory segments this process still owns."""
    prefix = f"repro-{os.getpid()}-"
    try:
        return sorted(e for e in os.listdir("/dev/shm") if e.startswith(prefix))
    except OSError:
        return []


def child_pids() -> list[int]:
    """Direct children of this process that still have a process-table entry
    (running or exited but not yet waited for)."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # gone between listdir and read
        # "pid (comm) state ppid ..."; comm may itself contain spaces/parens.
        if int(stat.rpartition(")")[2].split()[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children() -> list[int]:
    """Stop every process this one started and wait until each has ended;
    returns the pids that outlived that (always empty, short of a bug).

    Pools and the crash child are closed and joined where they are used.
    What is left is what a failing path skipped, and ``multiprocessing``'s
    resource tracker: shared-memory segments and spawned children start it,
    it only exits once this process has — too late to be waited for, so it
    would stay behind as an unreaped entry of the process table.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    tracker_pid = getattr(tracker, "_pid", None)
    for pid in child_pids():
        if pid == tracker_pid:
            continue
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass  # already waited for
    # Closing the tracker's pipe is its signal to clean up and exit.  Every
    # forked worker held a copy of that pipe; all of them are gone by now.
    fd = getattr(tracker, "_fd", None)
    if fd is not None:
        os.close(fd)
        tracker._fd = None
    if tracker_pid is not None:
        try:
            os.waitpid(tracker_pid, 0)
        except ChildProcessError:
            pass
        tracker._pid = None
    return child_pids()


def env_block() -> dict[str, object]:
    """Where the numbers came from: interpreter, numpy, cores, kernel
    backend, commit."""
    from repro import kernels

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": kernels.backend(),
        "git_commit": commit,
        "platform": sys.platform,
    }
