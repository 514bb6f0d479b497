#!/usr/bin/env python
"""Recovery smoke: SIGKILL a real writer mid-workload, reopen, verify.

The in-process fault suite (``tests/test_durable_faults.py``) simulates
crashes by raising at named points; this script is the out-of-process
complement CI runs — an actual child process is killed with ``SIGKILL`` at a
randomized moment while it streams durable mutations, and the parent then
recovers the directory and checks the durability contract from the outside:

1. **No partial batches** — the recovered marker pids form a contiguous
   prefix of the writer's insertion sequence.
2. **No lost acknowledgements** — every batch the writer acknowledged (it
   fsyncs an ack record *after* ``apply_update`` returns) is present, and
   at most one unacknowledged batch may additionally have committed (the
   kill landed between the WAL fsync and the ack write).
3. **Query parity** — the recovered engine answers the smoke query set
   identically to a fresh engine built from the recovered rows (the rebuilt
   index serves the same answers as a from-scratch one).

Each iteration resumes the *same* root, so the run exercises repeated
crash/recover/extend cycles over one directory, checkpoints included (the
writer checkpoints every few batches).  A JSON report of every iteration is
written for CI to upload.

Usage::

    PYTHONPATH=src python scripts/recovery_smoke.py \
        --root /tmp/recovery --iterations 3 --max-delay 1.5 \
        --report RECOVERY_REPORT.json

The ``--writer`` mode is internal (the parent spawns it).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.durable import DurableEngine  # noqa: E402
from repro.engine.session import SpatialEngine  # noqa: E402
from repro.geometry.point import Point  # noqa: E402
from repro.geometry.rectangle import Rect  # noqa: E402
from repro.query.predicates import KnnJoin, KnnSelect, RangeSelect  # noqa: E402
from repro.query.query import Query  # noqa: E402
from repro.stream.delta import result_rows  # noqa: E402

MARKER_BASE = 1_000_000
CHECKPOINT_INTERVAL = 8
ACK_FILE = "acks.txt"
STARTUP_TIMEOUT = 60.0  # seconds a writer may take to acknowledge its first batch


def seed_points_a() -> list[Point]:
    return [Point(float(3 * i % 97), float(5 * i % 89), i) for i in range(40)]


def seed_points_b() -> list[Point]:
    return [Point(10.0 + 7.0 * i, 12.0 + 6.0 * i, 1000 + i) for i in range(8)]


def smoke_queries() -> dict[str, Query]:
    focal = Point(30.0, 30.0)
    window = Rect(10.0, 10.0, 60.0, 60.0)
    return {
        "single-select": Query(KnnSelect(relation="a", focal=focal, k=3)),
        "single-range": Query(RangeSelect(relation="a", window=window)),
        "single-join": Query(KnnJoin(outer="b", inner="a", k=3)),
        "select-inner-of-join": Query(
            KnnSelect(relation="a", focal=focal, k=5),
            KnnJoin(outer="b", inner="a", k=3),
        ),
    }


def marker_coords(i: int) -> tuple[float, float]:
    return (float((11 * i) % 97), float((13 * i) % 89))


# ----------------------------------------------------------------------
# Writer (the process that gets killed)
# ----------------------------------------------------------------------
def run_writer(root: Path) -> int:
    """Stream marker batches into the durable root until killed."""
    if any((p / "MANIFEST").exists() for p in root.glob("*") if p.is_dir()):
        engine = DurableEngine.open(root, checkpoint_interval=CHECKPOINT_INTERVAL)
    else:
        engine = DurableEngine.create(root, checkpoint_interval=CHECKPOINT_INTERVAL)
        engine.register(name="a", points=seed_points_a())
        engine.register(name="b", points=seed_points_b())
    markers = sorted(
        int(pid) - MARKER_BASE
        for pid in engine.dataset("a").store.pids
        if pid >= MARKER_BASE
    )
    next_marker = (markers[-1] + 1) if markers else 0
    ack = open(root / ACK_FILE, "a")
    while True:  # until SIGKILL
        i = next_marker
        x, y = marker_coords(i)
        batch_points = [Point(x, y, MARKER_BASE + i)]
        moves = []
        if i % 5 == 4:  # shuffle an earlier marker for batch variety
            moves = [(MARKER_BASE + i - 1, float((7 * i) % 97), float((3 * i) % 89))]
        from repro.storage.update import UpdateBatch

        engine.apply_update("a", UpdateBatch(inserts=batch_points, moves=moves))
        # The batch is committed (WAL fsynced): acknowledge it durably.
        ack.write(f"{i}\n")
        ack.flush()
        os.fsync(ack.fileno())
        next_marker = i + 1


# ----------------------------------------------------------------------
# Parent (kill, recover, verify)
# ----------------------------------------------------------------------
def read_acks(root: Path) -> list[int]:
    path = root / ACK_FILE
    if not path.exists():
        return []
    # The final line may itself be torn by the kill; ignore it if unparsable.
    acks = []
    for line in path.read_text().splitlines():
        try:
            acks.append(int(line))
        except ValueError:
            continue
    return acks


def wait_until_streaming(writer: subprocess.Popen, root: Path, acked_before: int,
                         timeout: float = STARTUP_TIMEOUT) -> None:
    """Block until ``writer`` has acknowledged a batch beyond ``acked_before``."""
    deadline = time.monotonic() + timeout
    while len(read_acks(root)) <= acked_before:
        if writer.poll() is not None:
            raise RuntimeError(
                f"writer exited with code {writer.returncode} before its first batch"
            )
        if time.monotonic() > deadline:
            writer.kill()
            writer.wait()
            raise RuntimeError(f"writer acknowledged no batch within {timeout:.0f} s")
        time.sleep(0.01)


def verify(root: Path) -> dict[str, object]:
    """Recover the root and check the three contract clauses."""
    acked = read_acks(root)
    recovered = DurableEngine.open(root, checkpoint_interval=CHECKPOINT_INTERVAL)
    try:
        report: dict[str, object] = {
            "acked_batches": len(acked),
            "recovery": {
                name: {
                    "generation": r.generation,
                    "snapshot_rows": r.snapshot_rows,
                    "replayed_batches": r.replayed_batches,
                    "torn_tail": r.torn_tail,
                    "orphans_removed": r.orphans_removed,
                }
                for name, r in sorted(recovered.last_recovery.items())
            },
        }
        markers = sorted(
            int(pid) - MARKER_BASE
            for pid in recovered.dataset("a").store.pids
            if pid >= MARKER_BASE
        )
        report["recovered_batches"] = len(markers)
        errors: list[str] = []
        if markers != list(range(len(markers))):
            errors.append(f"marker sequence has gaps: {markers[:20]}...")
        if acked and (not markers or markers[-1] < max(acked)):
            errors.append(
                f"acknowledged batch lost: acked up to {max(acked)}, "
                f"recovered up to {markers[-1] if markers else None}"
            )
        if acked and markers and markers[-1] > max(acked) + 1:
            errors.append(
                f"too many unacked batches survived: acked {max(acked)}, "
                f"recovered {markers[-1]}"
            )

        # Query parity against a fresh engine over the recovered rows.
        oracle = SpatialEngine()
        for name in ("a", "b"):
            store = recovered.dataset(name).store
            oracle.register(name=name, points=store.materialize(range(len(store))))
        for name, query in smoke_queries().items():
            if result_rows(recovered.run(query)) != result_rows(oracle.run(query)):
                errors.append(f"query parity violated: {name}")

        report["errors"] = errors
        return report
    finally:
        recovered.close()


def run_parent(root: Path, iterations: int, max_delay: float, seed: int | None,
               report_path: Path) -> int:
    rng = random.Random(seed)
    root.mkdir(parents=True, exist_ok=True)
    report: dict[str, object] = {
        "root": str(root),
        "iterations": [],
        "seed": seed,
    }
    failed = False
    for iteration in range(iterations):
        delay = rng.uniform(0.2, max_delay)
        acked_before = len(read_acks(root))
        writer = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--writer",
             "--root", str(root)],
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        # The kill delay counts from the writer's first acknowledged batch of
        # this iteration, not from the spawn: start-up (imports, create or
        # recover) takes a machine-dependent fraction of a second, and a kill
        # inside it would interrupt no streaming work at all.
        wait_until_streaming(writer, root, acked_before)
        time.sleep(delay)
        writer.send_signal(signal.SIGKILL)
        writer.wait()
        entry = verify(root)
        entry["kill_delay_seconds"] = round(delay, 3)
        report["iterations"].append(entry)
        status = "OK" if not entry["errors"] else "FAIL"
        print(
            f"iteration {iteration}: killed after {delay:.2f}s, "
            f"acked={entry['acked_batches']} recovered={entry['recovered_batches']} "
            f"[{status}]"
        )
        for error in entry["errors"]:
            print(f"  ERROR: {error}", file=sys.stderr)
            failed = True
    report["ok"] = not failed
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"report written to {report_path}")
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True,
                        help="durable root directory (reused across iterations)")
    parser.add_argument("--iterations", type=int, default=3,
                        help="kill/recover cycles to run (default 3)")
    parser.add_argument("--max-delay", type=float, default=1.5,
                        help="max seconds from the writer's first batch to the SIGKILL "
                             "(default 1.5)")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for the kill-delay RNG (default: nondeterministic)")
    parser.add_argument("--report", type=Path, default=Path("RECOVERY_REPORT.json"),
                        help="where to write the JSON report")
    parser.add_argument("--writer", action="store_true",
                        help=argparse.SUPPRESS)  # internal child mode
    args = parser.parse_args()
    if args.writer:
        return run_writer(args.root)
    return run_parent(args.root, args.iterations, args.max_delay, args.seed,
                      args.report)


if __name__ == "__main__":
    raise SystemExit(main())
