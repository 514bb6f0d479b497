"""``DurableEngine``: a :class:`SpatialEngine` whose relations survive crashes.

The wrapper owns one :class:`~repro.durable.dataset.DurableDataset` per
registered relation (a subdirectory of its root) and routes every mutation
through the engine first — cache invalidation, index maintenance, listeners —
then appends the batch to the relation's WAL.  The WAL fsync is the
durability commit point: a mutation the caller saw return is recoverable, a
mutation interrupted by a crash recovers to its pre-batch state.

:meth:`open` is the recovery path.  Per relation it loads the last
checkpointed snapshot, replays the WAL tail (tolerating a torn final
record), and registers the recovered dataset; then it restores the planner
state persisted at the last checkpoint/close — calibration profiles and
plan-cache signatures — and re-plans the persisted shapes so the engine
answers its first query *warm*: plan-cache hit, statistics already cached,
calibrated cost estimates (see ``tests/test_durable_warm_restart.py``).

Observability: checkpoints and recoveries run under tracer spans
(``durable.checkpoint``, ``durable.recover``); counters cover WAL appends
and bytes, checkpoints, recoveries, replayed batches, torn tails, and
mutations that bypassed the durable write path (``durable_bypass_total``,
also emitted as a ``durable_bypass`` event — those batches are *not* logged
and will not survive a crash).  A :class:`~repro.obs.flight.FlightRecorder`
persists ``flight_record.json`` under the root on creation, recovery and
every checkpoint, and — crucially — when a crash (including injected
``BaseException`` faults) interrupts the durable write path, so post-mortem
forensics always have the recent traces, events, metrics and slow queries
that led up to the failure.
"""

from __future__ import annotations

import shutil
import threading
from pathlib import Path
from typing import Iterable, Mapping

from repro.durable.dataset import MANIFEST_NAME, DurableDataset, RecoveryReport
from repro.durable.state import load_engine_state, save_engine_state, warm_plans
from repro.engine.session import SpatialEngine
from repro.exceptions import InvalidParameterError, UnsupportedQueryError
from repro.obs.flight import FlightRecorder
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.query.dataset import Dataset, IndexKind
from repro.storage.update import AppliedUpdate, UpdateBatch

__all__ = ["DurableEngine"]

#: Auto-checkpoint after this many WAL records per relation (0 disables).
DEFAULT_CHECKPOINT_INTERVAL = 256

#: File name of the crash flight record persisted under the durable root.
FLIGHT_RECORD_NAME = "flight_record.json"


class DurableEngine:
    """Crash-safe façade over a :class:`SpatialEngine`.

    Construct through :meth:`create` (fresh root directory) or :meth:`open`
    (recovery).  Reads — ``run``, ``run_many``, ``plan``, ``explain``,
    metrics — are delegated verbatim to the wrapped engine (available as
    :attr:`engine`); mutations go through the overrides below so every batch
    lands in the relation's WAL before the call returns.
    """

    def __init__(
        self,
        root: Path,
        engine: SpatialEngine,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
    ) -> None:
        if checkpoint_interval < 0:
            raise InvalidParameterError("checkpoint_interval must be >= 0")
        self.root = Path(root)
        self.engine = engine
        self.checkpoint_interval = checkpoint_interval
        self._durables: dict[str, DurableDataset] = {}
        #: Per-relation recovery reports from the last :meth:`open` (empty
        #: for a freshly created root).
        self.last_recovery: dict[str, RecoveryReport] = {}
        #: Plans re-derived from persisted signatures at the last open.
        self.warmed_plans = 0
        registry = engine.obs.registry
        self._wal_appends = registry.counter("wal_appends_total")
        self._wal_bytes = registry.counter("wal_bytes_total")
        self._checkpoints = registry.counter("checkpoints_total")
        self._recoveries = registry.counter("recoveries_total")
        self._replayed = registry.counter("wal_replayed_batches_total")
        self._torn_tails = registry.counter("wal_torn_tails_total")
        self._bypasses = registry.counter("durable_bypass_total")
        registry.gauge("durable_relations", fn=self._durables.__len__)
        #: The crash flight recorder over the wrapped engine's bundle.
        self.flight = FlightRecorder(engine.obs)
        #: Where :meth:`record_flight` persists the flight record.
        self.flight_record_path = self.root / FLIGHT_RECORD_NAME
        # Mutations routed through this wrapper set the flag; the listener
        # fires for *every* engine mutation, so a set flag distinguishes the
        # durable path from a caller mutating the inner engine directly.
        self._in_mutation = threading.local()
        engine.add_mutation_listener(self._on_engine_mutation)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        root: Path,
        engine: SpatialEngine | None = None,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
    ) -> "DurableEngine":
        """Initialize ``root`` as a fresh durable root.

        Relations already registered on a supplied ``engine`` get their
        generation-0 snapshots written immediately; relations registered
        later are picked up by :meth:`register`.
        """
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        engine = engine if engine is not None else SpatialEngine()
        durable = cls(root, engine, checkpoint_interval)
        for name, dataset in engine.datasets.items():
            durable._durables[name] = DurableDataset.create(root / name, dataset)
        durable.record_flight("create")
        return durable

    @classmethod
    def open(
        cls,
        root: Path,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
        **engine_options: object,
    ) -> "DurableEngine":
        """Recover every relation under ``root`` into a warm engine.

        ``engine_options`` are forwarded to the :class:`SpatialEngine`
        constructor (``calibration`` is supplied from the persisted planner
        state when present and may not be overridden).
        """
        root = Path(root)
        if not root.is_dir():
            raise InvalidParameterError(f"durable root {root} does not exist")
        calibration, signatures = load_engine_state(root)
        if calibration is not None:
            if "calibration" in engine_options:
                raise InvalidParameterError(
                    "calibration is restored from the durable root; do not pass it"
                )
            engine_options["calibration"] = calibration
        engine = SpatialEngine(**engine_options)  # type: ignore[arg-type]
        durable = cls(root, engine, checkpoint_interval)
        tracer = engine.obs.tracer
        for directory in sorted(p for p in root.iterdir() if p.is_dir()):
            if not (directory / MANIFEST_NAME).exists():
                continue
            with tracer.span("durable.recover", relation=directory.name):
                dataset_dir, report = DurableDataset.open(directory)
            durable._durables[report.relation] = dataset_dir
            durable.last_recovery[report.relation] = report
            durable._recoveries.inc()
            durable._replayed.inc(report.replayed_batches)
            if report.torn_tail:
                durable._torn_tails.inc()
            engine.obs.events.emit(
                "durable_recovery",
                relation=report.relation,
                generation=report.generation,
                replayed=report.replayed_batches,
                torn_tail=report.torn_tail,
            )
            durable._register_inner(dataset_dir.dataset)
        durable.warmed_plans = warm_plans(engine, signatures)
        durable.record_flight("recovery")
        return durable

    def _register_inner(self, dataset: Dataset) -> None:
        """Register with the inner engine without tripping bypass detection."""
        self._in_mutation.active = True
        try:
            self.engine.register(dataset)
        finally:
            self._in_mutation.active = False

    # ------------------------------------------------------------------
    # Relation lifecycle
    # ------------------------------------------------------------------
    def register(
        self,
        dataset: Dataset | None = None,
        *,
        name: str | None = None,
        points: Iterable[Point | tuple[float, float]] | None = None,
        index_kind: IndexKind = "grid",
        bounds: Rect | None = None,
        **index_options: object,
    ) -> Dataset:
        """Register a relation and write its generation-0 snapshot.

        Same signature as :meth:`SpatialEngine.register`.  Re-registering a
        name replaces its durable directory wholesale (the old generation is
        deleted — registration is a reset, not a mutation).
        """
        registered = self.engine.register(
            dataset,
            name=name,
            points=points,
            index_kind=index_kind,
            bounds=bounds,
            **index_options,
        )
        directory = self.root / registered.name
        old = self._durables.pop(registered.name, None)
        if old is not None:
            old.close()
        if directory.exists():
            shutil.rmtree(directory)
        self._durables[registered.name] = DurableDataset.create(directory, registered)
        return registered

    def unregister(self, name: str) -> None:
        """Drop a relation from the engine *and* delete its durable directory."""
        self.engine.unregister(name)
        durable = self._durables.pop(name, None)
        if durable is not None:
            durable.close()
            shutil.rmtree(durable.directory, ignore_errors=True)

    def _durable(self, name: str) -> DurableDataset:
        try:
            return self._durables[name]
        except KeyError:
            raise UnsupportedQueryError(f"no durable dataset for {name!r}") from None

    # ------------------------------------------------------------------
    # Mutations (the durable write path)
    # ------------------------------------------------------------------
    def apply_update(self, name: str, batch: UpdateBatch) -> AppliedUpdate:
        """Apply one batch through the engine, then make it durable.

        The engine applies first (index repair, cache invalidation,
        listeners); the WAL append + fsync is the commit point.  Triggers an
        automatic checkpoint when the relation's WAL reaches
        :attr:`checkpoint_interval` records.
        """
        durable = self._durable(name)
        try:
            self._in_mutation.active = True
            try:
                applied = self.engine.apply_update(name, batch)
            finally:
                self._in_mutation.active = False
            if applied.size:
                written = durable.log(batch)
                self._wal_appends.inc()
                self._wal_bytes.inc(written)
                if (
                    self.checkpoint_interval
                    and durable.records_since_checkpoint >= self.checkpoint_interval
                ):
                    self.checkpoint(name)
        except BaseException as error:
            # BaseException on purpose: injected crash faults derive from it
            # so they cannot be swallowed by ordinary handlers.  Leave the
            # flight record behind, then let the crash proceed.
            self.record_flight("crash", error=repr(error))
            raise
        return applied

    def insert(self, name: str, points: Iterable[Point | tuple[float, float]]) -> int:
        """Durably add points to a relation (see :meth:`SpatialEngine.insert`)."""
        return self.apply_update(name, UpdateBatch(inserts=points)).size

    def remove(self, name: str, pids: Iterable[int]) -> int:
        """Durably remove points by pid (see :meth:`SpatialEngine.remove`)."""
        return self.apply_update(name, UpdateBatch(removes=pids)).size

    def move(self, name: str, moves: Iterable[tuple[int, float, float]]) -> int:
        """Durably relocate points (see :meth:`SpatialEngine.move`)."""
        return self.apply_update(name, UpdateBatch(moves=moves)).size

    def record_flight(self, reason: str, error: str | None = None) -> None:
        """Persist the crash flight record under the durable root.

        Failures here are swallowed: the record is forensic garnish and must
        never mask the original crash (or fail a healthy checkpoint) — e.g.
        when the root itself became unwritable.
        """
        try:
            self.flight.persist(self.flight_record_path, reason, error=error)
        except Exception:
            pass

    def _on_engine_mutation(self, name: str) -> None:
        if getattr(self._in_mutation, "active", False):
            return
        # The mutation reached the inner engine without passing through the
        # durable write path: it is live in memory but absent from the WAL.
        self._bypasses.inc()
        self.engine.obs.events.emit("durable_bypass", relation=name)

    # ------------------------------------------------------------------
    # Checkpointing and shutdown
    # ------------------------------------------------------------------
    def checkpoint(self, name: str | None = None) -> int:
        """Checkpoint one relation (or all), then persist the planner state.

        Returns the number of relations checkpointed.  Each checkpoint snaps
        the relation's current store, starts a fresh WAL and retires the old
        generation (see :meth:`DurableDataset.checkpoint` for the crash
        argument); the planner state (calibration + plan signatures) rides
        along so a crash right after a checkpoint still restarts warm.
        """
        targets = [self._durable(name)] if name is not None else list(self._durables.values())
        tracer = self.engine.obs.tracer
        try:
            for durable in targets:
                with tracer.span(
                    "durable.checkpoint",
                    relation=durable.name,
                    wal_records=durable.records_since_checkpoint,
                ):
                    generation = durable.checkpoint()
                self._checkpoints.inc()
                self.engine.obs.events.emit(
                    "durable_checkpoint", relation=durable.name, generation=generation
                )
        except BaseException as error:
            self.record_flight("crash", error=repr(error))
            raise
        if targets:
            save_engine_state(self.root, self.engine)
            self.record_flight("checkpoint")
        return len(targets)

    def close(self) -> None:
        """Persist the planner state and close every WAL handle.

        Data needs no flush — every applied batch is already fsynced — so
        close is cheap and a *missed* close (a crash) costs only the planner
        state learned since the last checkpoint.
        """
        save_engine_state(self.root, self.engine)
        for durable in self._durables.values():
            durable.close()
        self.engine.remove_mutation_listener(self._on_engine_mutation)

    def __enter__(self) -> "DurableEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Read-side delegation
    # ------------------------------------------------------------------
    def __getattr__(self, attr: str):
        """Delegate everything not overridden (run, plan, explain, metrics,
        dataset access) to the wrapped :class:`SpatialEngine`."""
        if attr.startswith("_") or attr == "engine":
            # Never forward private/dunder probes (pickle, copy, repr during
            # a failed construction) — that way recursion lies.
            raise AttributeError(attr)
        return getattr(self.engine, attr)

    @property
    def durables(self) -> Mapping[str, DurableDataset]:
        """Read-only view of the per-relation durable datasets."""
        return dict(self._durables)

    def __contains__(self, name: str) -> bool:
        return name in self.engine

    def __len__(self) -> int:
        return len(self.engine)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DurableEngine(root={str(self.root)!r}, relations={len(self._durables)}, "
            f"checkpoint_interval={self.checkpoint_interval})"
        )
