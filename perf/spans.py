"""In-memory span recorder for the traced run, and the timed kernel table.

The benchmark may not add spans inside ``src/repro``; it records them around
the calls it makes itself.  One *root* span wraps each sampled op (the real
call into the engine).  Under it go

* the engine's own public trace of that call (``engine.traces()``: plan /
  execute / calibrate, shard fan-out and tasks, stream apply / maintain),
  grafted with its real timestamps;
* *replay* spans: the same op's inner call made directly by the benchmark on
  the same inputs (``core.*`` without the engine, ``locality.*`` without the
  core algorithm, ...).  A replay's parent is the span whose work it
  re-executes, so the tree reads top-down like the call chain;
* kernel calls, timestamped one by one by a timed kernel table registered
  through ``repro.kernels.register_backend`` and summarized per op.

A layer's self time is a span's kernel-exclusive duration minus that of its
children; what the subtraction cannot place (a replay slower than the call it
re-executes) is reported as unattributed rather than hidden.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Iterator

import numpy as np

from repro import kernels
from repro.kernels import numpy_backend

__all__ = ["Recorder", "TimedKernels", "OBS_SPAN_LAYERS"]

#: Layer of each span name the engines' public traces use today.
OBS_SPAN_LAYERS = {
    "query": "engine",
    "plan": "planner",
    "calibrate": "planner",
    "execute": "query",
    "shard-fan-out": "shard",
    "shard-task": "shard",
    "stream-maintain": "stream",
    "apply-update": "engine",
    "maintain": "stream",
    "durable.checkpoint": "durable",
}


class TimedKernels:
    """A kernel table that timestamps every dispatch (numpy underneath).

    Activating it swaps only the table ``repro.kernels`` dispatches through;
    results are the numpy reference backend's.
    """

    BACKEND = "perf-timed"

    def __init__(self) -> None:
        self.names = tuple(kernels.KERNEL_NAMES)
        #: One ``(kernel index, start, end)`` row per dispatch, in call order.
        self.calls: list[tuple[int, float, float]] = []
        self._previous: str | None = None
        self._columns: tuple[int, tuple] = (-1, ())

    def _table(self) -> dict:
        return {
            name: self._timed(self.names.index(name), impl)
            for name, impl in numpy_backend.make_backend().items()
        }

    def _timed(self, index: int, impl):
        record = self.calls.append

        def timed(*args):
            started = perf_counter()
            try:
                return impl(*args)
            finally:
                record((index, started, perf_counter()))

        return timed

    def install(self) -> None:
        """Route kernel dispatch through the timed table."""
        kernels.register_backend(self.BACKEND, self._table)
        self._previous = kernels.set_backend(self.BACKEND)

    def uninstall(self) -> None:
        """Restore the backend that was active before :meth:`install`."""
        if self._previous is not None:
            kernels.set_backend(self._previous)
            self._previous = None

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(kernel index, start, cumulative seconds)`` columns of the calls
        (rebuilt only when calls were added since the last request)."""
        if self._columns[0] != len(self.calls):
            table = np.array(self.calls, dtype=np.float64).reshape(-1, 3)
            seconds = table[:, 2] - table[:, 1]
            columns = table[:, 0].astype(int), table[:, 1], np.concatenate(([0.0], np.cumsum(seconds)))
            self._columns = (len(self.calls), columns)
        return self._columns[1]


class Recorder:
    """Collects spans ``{id, parent, op, name, layer, start, end, duration}``."""

    def __init__(self, timed: TimedKernels | None = None) -> None:
        self.spans: list[dict] = []
        self.timed = timed
        self._stack: list[int] = []
        self._op = -1

    # -- recording ------------------------------------------------------
    def _new(self, name: str, layer: str, parent: int | None, op: int, **extra: object) -> dict:
        span = {
            "id": len(self.spans),
            "parent": parent,
            "op": op,
            "name": name,
            "layer": layer,
            "start": None,
            "end": None,
            "duration": 0.0,
            **extra,
        }
        self.spans.append(span)
        return span

    @contextmanager
    def span(
        self, name: str, layer: str, parent: dict | None = None, replay: bool = False
    ) -> Iterator[dict]:
        """Time one call the benchmark makes.

        ``parent`` names the logical parent of a replay (which finished
        earlier); otherwise the enclosing open span is the parent, and a span
        opened with nothing open is the root of a new op.
        """
        parent_id = parent["id"] if parent is not None else (self._stack[-1] if self._stack else None)
        if parent_id is None:
            self._op += 1
        span = self._new(name, layer, parent_id, self._op, replay=replay)
        self._stack.append(span["id"])
        span["start"] = perf_counter()
        try:
            yield span
        finally:
            span["end"] = perf_counter()
            span["duration"] = span["end"] - span["start"]
            self._stack.pop()

    def graft(self, obs_span, parent: dict) -> dict:
        """Copy an engine trace (``repro.obs.trace.Span``) under ``parent``.

        Timestamps are kept when the span carries them; spans shipped back
        from worker processes only have a duration.
        """
        layer = OBS_SPAN_LAYERS.get(obs_span.name, parent["layer"])
        span = self._new(obs_span.name, layer, parent["id"], parent["op"], grafted=True)
        span["duration"] = obs_span.duration or 0.0
        if obs_span.started is not None:
            span["start"] = obs_span.started
            span["end"] = obs_span.started + span["duration"]
        for key in ("outcome", "kind", "shard", "worker_pid", "tasks"):
            if key in obs_span.attributes:
                span[key] = obs_span.attributes[key]
        for child in obs_span.children:
            self.graft(child, span)
        return span

    # -- lookup ---------------------------------------------------------
    def roots(self) -> list[dict]:
        return [s for s in self.spans if s["parent"] is None]

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def find(self, root: dict, name: str) -> dict | None:
        """First span called ``name`` within ``root``'s op."""
        for span in self.spans[root["id"] :]:
            if span["op"] != root["op"]:
                return None
            if span["name"] == name:
                return span
        return None

    # -- analysis -------------------------------------------------------
    def _kernel_seconds(self) -> list[float]:
        """Kernel time inside each span's own interval (0 without one)."""
        if self.timed is None:
            return [0.0] * len(self.spans)
        _index, starts, cumulative = self.timed.columns()
        inside = []
        for span in self.spans:
            if span["start"] is None:
                inside.append(0.0)
                continue
            lo = int(np.searchsorted(starts, span["start"], side="left"))
            hi = int(np.searchsorted(starts, span["end"], side="right"))
            inside.append(float(cumulative[hi] - cumulative[lo]))
        return inside

    def layer_shares(self, parallel: int = 1) -> dict[str, float]:
        """Share of root wall time per layer, plus ``unattributed``.

        Kernel time is taken from the real ops (kernel calls inside root
        intervals); every span contributes its kernel-exclusive duration
        minus its children's.  Sibling ``shard-task`` spans overlap on
        ``parallel`` workers, so they count for their share of wall time.
        """
        kernel_s = self._kernel_seconds()
        children: dict[int, list[dict]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)

        def exclusive(span: dict) -> float:
            value = max(0.0, span["duration"] - kernel_s[span["id"]])
            if span["name"] == "shard-task":
                siblings = sum(
                    1 for s in children[span["parent"]] if s["name"] == "shard-task"
                )
                value /= min(parallel, siblings)
            return value

        roots = self.roots()
        wall = sum(s["duration"] for s in roots)
        if wall <= 0.0:
            return {"unattributed": 1.0}
        seconds = {"kernels": sum(kernel_s[s["id"]] for s in roots)}
        overcovered = 0.0
        for span in self.spans:
            own = exclusive(span) - sum(exclusive(c) for c in children.get(span["id"], ()))
            if own < 0.0:
                # Replays took longer than the call they re-enact.
                overcovered -= own
                own = 0.0
            seconds[span["layer"]] = seconds.get(span["layer"], 0.0) + own
        shares = {layer: value / wall for layer, value in seconds.items()}
        shares["unattributed"] = (overcovered + max(0.0, wall - sum(seconds.values()))) / wall
        return shares

    def dump(self, path: Path) -> None:
        """Write every span, plus per-op kernel totals, as JSON."""
        kernel_ops: list[dict] = []
        if self.timed is not None and self.timed.calls:
            index, starts, cumulative = self.timed.columns()
            for root in self.roots():
                lo = int(np.searchsorted(starts, root["start"], side="left"))
                hi = int(np.searchsorted(starts, root["end"], side="right"))
                per_kernel: dict[str, dict] = {}
                for i in range(lo, hi):
                    entry = per_kernel.setdefault(
                        self.timed.names[index[i]], {"count": 0, "seconds": 0.0}
                    )
                    entry["count"] += 1
                    entry["seconds"] += float(cumulative[i + 1] - cumulative[i])
                kernel_ops.append({"op": root["op"], "parent": root["id"], "kernels": per_kernel})
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"ops": self._op + 1, "spans": self.spans, "kernel_calls": kernel_ops})
        )
