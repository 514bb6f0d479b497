"""Worker pools for fanning shard tasks out across threads or processes.

The same task function runs on three backends:

* ``serial`` — a plain loop; zero overhead, used for tiny fan-outs and
  single-CPU machines (the per-shard *algorithmic* win — smaller indexes,
  border pruning — does not need parallelism).
* ``thread`` — a :class:`~concurrent.futures.ThreadPoolExecutor`; the NumPy
  kernels inside the locality search release the GIL for part of the work.
* ``process`` — a fork-based :class:`~concurrent.futures.ProcessPoolExecutor`
  for real multi-core scaling of the pure-Python portions.

Process workers cannot receive the shard runtime through pickling on every
task (shipping whole indexes per query would drown the win), so the runtime
travels two ways:

* **Fork inheritance** — the owning engine registers its shard datasets in
  the module-level :data:`_RUNTIMES` registry under a token, the pool is
  created *afterwards*, and forked workers find the registry snapshot in
  their address space.
* **Shared-memory generations** (process backend) — the pool publishes each
  relation into a :mod:`repro.shard.shm` segment per version.  When a task's
  version stamp is newer than the worker's forked snapshot, the worker
  *attaches* the matching segment (zero-copy, read-only) instead of failing;
  mutations therefore publish a new generation and **reuse** the pool
  instead of discarding and re-forking it.  A segment that is already gone
  (generation raced past) still surfaces as
  :class:`~repro.exceptions.StaleShardError`, and the engine retries.

A process pool always runs the generation protocol.  When the host cannot
publish (``/dev/shm`` missing or full: ``OSError``), the pool unlinks what
it had published and serves from the fork snapshot alone; every mutation
then stales the snapshot and the owning engine respawns the pool.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from functools import partial
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.exceptions import InvalidParameterError, StaleShardError
from repro.obs.flight import TaskCounters, capture_task_counters, task_counters
from repro.obs.trace import Span
from repro.shard.executor import ShardTask, execute_shard_task
from repro.shard.shm import AttachedRuntime, SegmentPublisher, attach_segment, segment_name

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.shard.dataset import ShardedDataset

__all__ = [
    "ShardWorkerPool",
    "available_cpus",
    "resolve_backend",
    "BACKENDS",
]

#: Supported backend names (``auto`` resolves to one of the other three).
BACKENDS = ("auto", "serial", "thread", "process")

#: Token → shard datasets; populated by the owning engine *before* its pool
#: forks so that process workers inherit the mapping (see module docstring).
_RUNTIMES: dict[str, Mapping[str, "ShardedDataset"]] = {}

#: Token → publishing coordinator pid, for pools running the segment
#: protocol.  Fork-inherited: workers use it to derive segment names for
#: versions newer than their snapshot.
_SEGMENT_PIDS: dict[str, int] = {}

#: Worker-side cache of attached segment generations, keyed
#: ``(token, relation)``.  Replaced (closed) when a newer generation is
#: requested; lives for the worker process's lifetime otherwise.
_ATTACHED: dict[tuple[str, str], AttachedRuntime] = {}


def available_cpus() -> int:
    """CPUs actually usable by this process (cgroup/affinity aware).

    ``os.cpu_count()`` reports the host's cores, which over-subscribes
    pools inside CPU-limited containers; the scheduler affinity mask is the
    truth when the platform exposes it.  Always at least 1.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # platforms without affinity support
        return max(1, os.cpu_count() or 1)


def _reconcile(
    token: str, datasets: Mapping[str, "ShardedDataset"], task: ShardTask
) -> Mapping[str, object]:
    """Overlay segment generations over the fork-inherited snapshot.

    For every relation the task reads: if the inherited live object already
    matches the stamped version (serial/thread backends, or a process worker
    whose snapshot is current) it is used as-is; otherwise the worker
    attaches the segment of exactly that version, caching the attachment
    and closing the one it replaces.
    """
    pid = _SEGMENT_PIDS.get(token)
    if pid is None or pid == os.getpid():
        # No segments published, or we *are* the coordinator (inline/serial/
        # thread execution): the live objects are authoritative.
        return datasets
    merged: dict[str, object] | None = None
    for name, version in task.versions:
        live = datasets.get(name)
        if (
            live is not None
            and live.version == version
            and live.synced_version == version
        ):
            continue  # forked snapshot still current for this relation
        key = (token, name)
        runtime = _ATTACHED.get(key)
        if runtime is None or runtime.version != version:
            try:
                fresh = attach_segment(segment_name(token, name, version, pid))
            except FileNotFoundError:
                raise StaleShardError(
                    f"segment generation {version} of relation {name!r} is "
                    "no longer published"
                ) from None
            if runtime is not None:
                runtime.close()
            _ATTACHED[key] = runtime = fresh
            counters = task_counters()
            if counters is not None:
                counters.shm_bytes_attached += fresh.nbytes
        if merged is None:
            merged = dict(datasets)
        merged[name] = runtime
    return merged if merged is not None else datasets


def _invoke(token: str, task: ShardTask) -> object:
    """Execute one task against the runtime registered under ``token``.

    Module-level (not a closure) so the process backend can pickle it.
    """
    datasets = _RUNTIMES.get(token)
    if datasets is None:
        raise StaleShardError(f"no shard runtime registered under token {token!r}")
    return execute_shard_task(_reconcile(token, datasets, task), task)


def _invoke_captured(token: str, task: ShardTask) -> tuple[object, dict]:
    """Execute one task with worker-local telemetry capture.

    Returns ``(result, telemetry)`` where the telemetry envelope is a small
    picklable dict shipped back through the pool result path:

    - ``worker_pid`` — the executing process (the coordinator compares it
      with its own pid to decide whether kernel deltas need hub-merging);
    - ``span`` — a detached ``shard-task`` span subtree
      (:meth:`repro.obs.trace.Span.to_dict` shape) the coordinator grafts
      under its ``shard-fan-out`` span, annotated with ``shard=`` /
      ``worker_pid=`` / resource counters;
    - ``counters`` — kernel ``counter_deltas`` attributable to this task;
    - ``resources`` — the per-shard resource dict (wall seconds, rows
      scanned, candidates pruned, kernel dispatches, shm bytes attached).

    Serial and thread backends run this in the coordinator process, so all
    three backends produce identical trace shapes.
    """
    from repro.kernels import dispatch

    datasets = _RUNTIMES.get(token)
    if datasets is None:
        raise StaleShardError(f"no shard runtime registered under token {token!r}")
    before = dispatch.counter_values()
    counters = TaskCounters()
    span = Span(
        None,
        "shard-task",
        {"shard": task.shard_id, "kind": task.kind, "relation": task.relation},
    )
    with span, capture_task_counters(counters):
        result = execute_shard_task(_reconcile(token, datasets, task), task)
    deltas = dispatch.counter_deltas(before)
    dispatches = int(sum(d["delta"] for d in deltas))
    resources = {
        "wall_seconds": span.duration or 0.0,
        "rows_scanned": counters.rows_scanned,
        "candidates_pruned": counters.candidates_pruned,
        "kernel_dispatches": dispatches,
        "shm_bytes_attached": counters.shm_bytes_attached,
    }
    span.annotate(worker_pid=os.getpid(), **resources)
    telemetry = {
        "worker_pid": os.getpid(),
        "span": span.to_dict(),
        "counters": deltas,
        "resources": resources,
    }
    return result, telemetry


def resolve_backend(backend: str) -> str:
    """Map ``auto`` onto the best backend for this host.

    Multi-core hosts with ``fork`` get processes, multi-core hosts without it
    get threads, and single-core hosts get the serial loop (parallel dispatch
    would add overhead with nothing to run it on).  Core counts respect the
    process's scheduler affinity (:func:`available_cpus`), so a cgroup-pinned
    CI container resolves to ``serial`` instead of forking into one core.
    """
    if backend not in BACKENDS:
        raise InvalidParameterError(
            f"unknown pool backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend != "auto":
        return backend
    cpus = available_cpus()
    if cpus <= 1:
        return "serial"
    if "fork" in multiprocessing.get_all_start_methods():
        return "process"
    return "thread"


class ShardWorkerPool:
    """An order-preserving ``run(tasks)`` facade over one backend.

    Parameters
    ----------
    token:
        Registry key naming the shard runtime the tasks execute against.
    datasets:
        The shard runtime itself (relation name → sharded dataset), entered
        into the registry for the lifetime of the pool.
    backend:
        One of :data:`BACKENDS`.
    max_workers:
        Pool width for the thread/process backends (default: available CPU
        count, affinity-aware).  Clamped to at least 1.
    """

    def __init__(
        self,
        token: str,
        datasets: Mapping[str, "ShardedDataset"],
        backend: str = "auto",
        max_workers: int | None = None,
    ) -> None:
        self.token = token
        self.backend = resolve_backend(backend)
        if max_workers is None:
            self.max_workers = min(32, available_cpus())
        else:
            self.max_workers = max(1, int(max_workers))
        self._executor: Executor | None = None
        self._publisher: SegmentPublisher | None = None
        _RUNTIMES[token] = datasets
        if self.backend == "process":
            self._publisher = SegmentPublisher(token)
            _SEGMENT_PIDS[token] = os.getpid()
            try:
                for sharded in datasets.values():
                    self._publisher.publish(sharded)
            except OSError:  # /dev/shm missing or full: fork snapshot only
                self._drop_segments()

    @property
    def parallel(self) -> bool:
        """Whether tasks actually overlap (False for the serial loop)."""
        return self.backend != "serial" and self.max_workers > 1

    @property
    def segments_enabled(self) -> bool:
        """Whether this pool runs the shared-memory generation protocol."""
        return self._publisher is not None

    def refresh(self, sharded: "ShardedDataset") -> bool:
        """Absorb a mutation of one relation without discarding the pool.

        ``True`` means the pool keeps serving: either a new segment
        generation was published for process workers to attach, or the
        backend shares the coordinator's address space (serial/thread) and
        executes against the live objects anyway.  ``False`` means the
        forked snapshots are stale and cannot be patched — the caller must
        respawn the pool (process backend whose publish raised ``OSError``,
        now or earlier).
        """
        if self._publisher is not None:
            try:
                self._publisher.publish(sharded)
                return True
            except OSError:
                self._drop_segments()
        return self.backend != "process"

    def _drop_segments(self) -> None:
        """Unlink every published generation and leave the segment protocol."""
        if self._publisher is not None:
            self._publisher.close()
            self._publisher = None
        _SEGMENT_PIDS.pop(self.token, None)

    def forget(self, relation: str) -> None:
        """Drop the published generation of one (unregistered) relation."""
        if self._publisher is not None:
            self._publisher.forget(relation)

    def segment_names(self) -> dict[str, str]:
        """Relation → live segment name (empty when nothing is published)."""
        if self._publisher is None:
            return {}
        return self._publisher.names()

    def _ensure_executor(self) -> Executor:
        if self._executor is None:
            if self.backend == "process":
                self._executor = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    mp_context=multiprocessing.get_context("fork"),
                )
            else:
                self._executor = ThreadPoolExecutor(max_workers=self.max_workers)
        return self._executor

    def run(self, tasks: Sequence[ShardTask]) -> list[object]:
        """Execute ``tasks`` and return their results in input order.

        The first task exception (including :class:`StaleShardError` from a
        version-check failure) propagates to the caller.
        """
        if not tasks:
            return []
        if not self.parallel or len(tasks) == 1:
            return [_invoke(self.token, task) for task in tasks]
        return list(self._ensure_executor().map(partial(_invoke, self.token), tasks))

    def run_captured(
        self, tasks: Sequence[ShardTask]
    ) -> list[tuple[object, dict]]:
        """Execute ``tasks`` with worker telemetry capture, in input order.

        Each element is the ``(result, telemetry)`` pair described by
        :func:`_invoke_captured`; the coordinator stitches the telemetry
        into its own trace/registry.  Exceptions propagate exactly like
        :meth:`run`.
        """
        if not tasks:
            return []
        if not self.parallel or len(tasks) == 1:
            return [_invoke_captured(self.token, task) for task in tasks]
        return list(
            self._ensure_executor().map(partial(_invoke_captured, self.token), tasks)
        )

    def close(self) -> None:
        """Shut the executor down, unlink segments, drop the registration."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        self._drop_segments()
        _RUNTIMES.pop(self.token, None)

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardWorkerPool(backend={self.backend!r}, workers={self.max_workers})"
