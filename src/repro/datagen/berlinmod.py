"""Synthetic BerlinMOD-like snapshot generator.

BerlinMOD (Düntgen, Behr, Güting; VLDB Journal 2009) simulates about two
thousand vehicles commuting over Berlin for 28 days; the paper drops the time
dimension and uses position snapshots of 32k–2.56M points.  This module
produces snapshots with the same *statistical* character without the Secondo
DBMS or any download:

* vehicles live in home/work neighborhoods that concentrate around the city
  core (log-normal distance from the center),
* every reported position lies on a street of the synthetic network
  (:mod:`repro.datagen.network`), with a small GPS-style jitter,
* each vehicle reports many positions along its trips, so points come in
  per-vehicle bursts rather than i.i.d. — matching the multi-scale clustering
  of the real benchmark.

The generator is deterministic given its configuration (including the seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from typing import Iterator, Sequence

from repro.datagen.network import StreetNetwork, build_street_network
from repro.exceptions import InvalidParameterError
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.storage.update import UpdateBatch

__all__ = ["BerlinModConfig", "berlinmod_snapshot", "BerlinModTickStream"]

#: Default spatial extent, in meters, roughly matching a 40 km x 40 km city.
DEFAULT_BOUNDS = Rect(0.0, 0.0, 40_000.0, 40_000.0)


@dataclass(frozen=True, slots=True)
class BerlinModConfig:
    """Configuration of the synthetic BerlinMOD-like generator.

    Parameters mirror the knobs of the original benchmark that matter for a
    spatial snapshot: the number of vehicles, how many position reports each
    vehicle contributes, how strongly homes/works concentrate around the
    center, and the GPS jitter applied to on-street positions.
    """

    num_vehicles: int = 2000
    reports_per_vehicle: int = 16
    bounds: Rect = DEFAULT_BOUNDS
    center_concentration: float = 0.35
    gps_jitter: float = 25.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_vehicles <= 0:
            raise InvalidParameterError("num_vehicles must be positive")
        if self.reports_per_vehicle <= 0:
            raise InvalidParameterError("reports_per_vehicle must be positive")
        if not (0.0 < self.center_concentration <= 1.0):
            raise InvalidParameterError("center_concentration must be in (0, 1]")
        if self.gps_jitter < 0:
            raise InvalidParameterError("gps_jitter must be non-negative")

    @property
    def total_points(self) -> int:
        """Number of snapshot points the configuration produces."""
        return self.num_vehicles * self.reports_per_vehicle


def berlinmod_snapshot(
    config: BerlinModConfig | None = None,
    n: int | None = None,
    seed: int | None = None,
    start_pid: int = 0,
    network: StreetNetwork | None = None,
) -> list[Point]:
    """Generate a BerlinMOD-like snapshot of vehicle positions.

    Parameters
    ----------
    config:
        Full generator configuration.  If omitted, a default configuration is
        used.
    n:
        Convenience override: generate (approximately exactly) ``n`` points by
        adjusting the number of vehicles while keeping the default reports per
        vehicle.  The paper varies dataset sizes from 32,000 to 2,560,000
        points this way.
    seed:
        Convenience override for the configuration seed.
    start_pid:
        First point identifier.
    network:
        Optional pre-built street network (shared across relations so that all
        datasets live on the same streets, as in BerlinMOD).
    """
    if config is None:
        config = BerlinModConfig()
    if seed is not None:
        config = BerlinModConfig(
            num_vehicles=config.num_vehicles,
            reports_per_vehicle=config.reports_per_vehicle,
            bounds=config.bounds,
            center_concentration=config.center_concentration,
            gps_jitter=config.gps_jitter,
            seed=seed,
        )
    if n is not None:
        if n <= 0:
            raise InvalidParameterError("n must be positive")
        reports = config.reports_per_vehicle
        vehicles = max(1, n // reports)
        config = BerlinModConfig(
            num_vehicles=vehicles,
            reports_per_vehicle=reports,
            bounds=config.bounds,
            center_concentration=config.center_concentration,
            gps_jitter=config.gps_jitter,
            seed=config.seed,
        )

    rng = np.random.default_rng(config.seed)
    if network is None:
        network = build_street_network(config.bounds, seed=config.seed)
    weights = network.sampling_weights()
    center = config.bounds.center
    max_radius = 0.5 * min(config.bounds.width, config.bounds.height)

    points: list[Point] = []
    pid = start_pid
    remaining = config.total_points if n is None else n
    vehicle = 0
    while remaining > 0:
        reports = min(config.reports_per_vehicle, remaining)
        # Home neighborhood: distance from the center is log-normal, so most
        # vehicles live near the core but a tail reaches the periphery.
        home_distance = min(
            max_radius * 0.98,
            float(rng.lognormal(mean=np.log(max_radius * config.center_concentration), sigma=0.6)),
        )
        home_angle = float(rng.uniform(0, 2 * np.pi))
        home_x = center.x + home_distance * np.cos(home_angle)
        home_y = center.y + home_distance * np.sin(home_angle)

        # Pick street segments for this vehicle's reports, biased to segments
        # near home: sample a shortlist by global weight, then re-weight by
        # proximity to the home location.
        shortlist = rng.choice(len(network.segments), size=min(32, len(network.segments)),
                               replace=False, p=weights)
        seg_mid = np.array(
            [network.segments[i].interpolate(0.5) for i in shortlist], dtype=np.float64
        )
        d = np.hypot(seg_mid[:, 0] - home_x, seg_mid[:, 1] - home_y)
        proximity = 1.0 / (1.0 + (d / (max_radius * 0.15)) ** 2)
        proximity /= proximity.sum()

        chosen = rng.choice(shortlist, size=reports, p=proximity)
        ts = rng.uniform(0, 1, size=reports)
        jitter = rng.normal(0.0, config.gps_jitter, size=(reports, 2))
        for j, seg_idx in enumerate(chosen):
            seg = network.segments[int(seg_idx)]
            x, y = seg.interpolate(float(ts[j]))
            x = float(np.clip(x + jitter[j, 0], config.bounds.xmin, config.bounds.xmax))
            y = float(np.clip(y + jitter[j, 1], config.bounds.ymin, config.bounds.ymax))
            points.append(Point(x, y, pid, payload=("vehicle", vehicle)))
            pid += 1
        remaining -= reports
        vehicle += 1
    return points


class BerlinModTickStream:
    """Per-tick update batches simulating continuously moving vehicles.

    The streaming companion of :func:`berlinmod_snapshot`: starting from a
    snapshot, each :meth:`tick` produces one columnar
    :class:`~repro.storage.update.UpdateBatch` in which a fraction of the
    population *moves* (a bounded random step from its current position —
    vehicles drive on), and optionally a small fraction leaves (``remove``)
    while new vehicles appear (``insert`` near the city core, with fresh
    pids).  The stream tracks its own view of the population, so consecutive
    batches are always consistent: moves and removes only ever name pids
    that are alive at that tick.

    The stream is deterministic given its seed, so two engines fed the same
    stream see byte-identical update sequences.

    Parameters
    ----------
    points:
        The initial snapshot (the same points registered with the engine).
    bounds:
        Spatial extent positions are clipped to.
    move_fraction:
        Fraction of the population relocated per tick (the paper-style
        "1% update batch" is ``0.01``).
    churn_fraction:
        Fraction removed *and* (independently) inserted per tick; ``0.0``
        (the default) keeps the population fixed, which makes the stream
        indefinitely replayable against a snapshot taken at any tick.
    step:
        Expected move distance per tick (Rayleigh-distributed step length).
    seed:
        Determinism seed.
    """

    def __init__(
        self,
        points: Sequence[Point],
        bounds: Rect = DEFAULT_BOUNDS,
        move_fraction: float = 0.01,
        churn_fraction: float = 0.0,
        step: float = 250.0,
        seed: int = 0,
    ) -> None:
        if not points:
            raise InvalidParameterError("tick stream needs a non-empty snapshot")
        if not (0.0 < move_fraction <= 1.0):
            raise InvalidParameterError("move_fraction must be in (0, 1]")
        if not (0.0 <= churn_fraction < 1.0):
            raise InvalidParameterError("churn_fraction must be in [0, 1)")
        if step <= 0:
            raise InvalidParameterError("step must be positive")
        self.bounds = bounds
        self.move_fraction = move_fraction
        self.churn_fraction = churn_fraction
        self.step = step
        self._rng = np.random.default_rng(seed)
        self._pids = np.array([p.pid for p in points], dtype=np.int64)
        self._xs = np.array([p.x for p in points], dtype=np.float64)
        self._ys = np.array([p.y for p in points], dtype=np.float64)
        self._next_pid = int(self._pids.max()) + 1
        #: Number of ticks generated so far.
        self.ticks_generated = 0

    @property
    def population(self) -> int:
        """Current number of live points in the stream's view."""
        return len(self._pids)

    def tick(self) -> UpdateBatch:
        """Generate the next update batch and advance the stream's state."""
        rng = self._rng
        n = len(self._pids)
        num_moves = max(1, int(round(n * self.move_fraction)))
        num_churn = int(round(n * self.churn_fraction))
        chosen = rng.choice(n, size=min(num_moves + num_churn, n), replace=False)
        move_rows = chosen[:num_moves]
        remove_rows = chosen[num_moves:]

        # Rayleigh step length (mean ~ step) in a uniform heading, clipped to
        # the extent — the vehicle drives on from wherever it was.
        headings = rng.uniform(0.0, 2.0 * np.pi, size=len(move_rows))
        lengths = rng.rayleigh(scale=self.step / 1.2533, size=len(move_rows))
        new_xs = np.clip(
            self._xs[move_rows] + lengths * np.cos(headings),
            self.bounds.xmin,
            self.bounds.xmax,
        )
        new_ys = np.clip(
            self._ys[move_rows] + lengths * np.sin(headings),
            self.bounds.ymin,
            self.bounds.ymax,
        )
        move_pids = self._pids[move_rows].copy()
        self._xs[move_rows] = new_xs
        self._ys[move_rows] = new_ys

        removes = self._pids[remove_rows].copy()
        inserts: list[Point] = []
        if num_churn:
            # New vehicles appear with log-normal distance from the center,
            # matching the snapshot generator's concentration profile.
            center = self.bounds.center
            max_radius = 0.5 * min(self.bounds.width, self.bounds.height)
            radii = np.minimum(
                max_radius * 0.98,
                rng.lognormal(mean=np.log(max_radius * 0.35), sigma=0.6, size=num_churn),
            )
            angles = rng.uniform(0.0, 2.0 * np.pi, size=num_churn)
            ixs = np.clip(
                center.x + radii * np.cos(angles), self.bounds.xmin, self.bounds.xmax
            )
            iys = np.clip(
                center.y + radii * np.sin(angles), self.bounds.ymin, self.bounds.ymax
            )
            for x, y in zip(ixs.tolist(), iys.tolist()):
                inserts.append(Point(x, y, self._next_pid))
                self._next_pid += 1

        if len(remove_rows):
            keep = np.ones(n, dtype=bool)
            keep[remove_rows] = False
            self._pids = self._pids[keep]
            self._xs = self._xs[keep]
            self._ys = self._ys[keep]
        if inserts:
            self._pids = np.concatenate(
                (self._pids, np.array([p.pid for p in inserts], dtype=np.int64))
            )
            self._xs = np.concatenate(
                (self._xs, np.array([p.x for p in inserts], dtype=np.float64))
            )
            self._ys = np.concatenate(
                (self._ys, np.array([p.y for p in inserts], dtype=np.float64))
            )
        self.ticks_generated += 1
        return UpdateBatch.from_columns(
            insert_xs=np.array([p.x for p in inserts], dtype=np.float64),
            insert_ys=np.array([p.y for p in inserts], dtype=np.float64),
            insert_pids=np.array([p.pid for p in inserts], dtype=np.int64),
            remove_pids=removes,
            move_pids=move_pids,
            move_xs=new_xs,
            move_ys=new_ys,
        )

    def ticks(self, count: int) -> Iterator[UpdateBatch]:
        """Generate ``count`` consecutive update batches."""
        for _ in range(count):
            yield self.tick()
