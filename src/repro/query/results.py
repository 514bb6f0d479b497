"""Query result container."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.stats import PruningStats
from repro.exceptions import UnsupportedQueryError
from repro.geometry.point import Point
from repro.operators.results import JoinPair, JoinTriplet

__all__ = ["QueryResult"]


@dataclass
class QueryResult:
    """The answer of a :class:`repro.query.query.Query`.

    Exactly one of :attr:`points`, :attr:`pairs`, :attr:`triplets` or
    :attr:`records` is populated, depending on the query's shape (two selects
    produce points, a select/join combination produces pairs, two joins
    produce triplets; algebra queries produce any of these, or generic
    :attr:`records` for aggregates and deeper join chains).
    """

    #: Human-readable description of the physical strategy that was executed.
    strategy: str
    #: Which of the paper's query classes the query belongs to.
    query_class: str
    points: tuple[Point, ...] = ()
    pairs: tuple[JoinPair, ...] = ()
    triplets: tuple[JoinTriplet, ...] = ()
    #: Generic rows for algebra results without a dedicated shape: aggregate
    #: ``(key, value)`` rows, or point-tuples for joins deeper than three.
    records: tuple[tuple, ...] = ()
    #: Pruning counters collected by the optimized algorithms (when available).
    stats: PruningStats = field(default_factory=PruningStats)
    #: Per-operator observed work of an algebra execution, as
    #: ``(node signature, cost)`` pairs — the engine records these into the
    #: calibration store so future plans estimate each operator from its own
    #: history.  Empty for the six paper classes.
    node_costs: tuple[tuple[tuple, float], ...] = ()

    @property
    def rows(
        self,
    ) -> Sequence[Point] | Sequence[JoinPair] | Sequence[JoinTriplet] | Sequence[tuple]:
        """The populated result collection, whichever kind it is."""
        if self.points:
            return self.points
        if self.pairs:
            return self.pairs
        if self.triplets:
            return self.triplets
        if self.records:
            return self.records
        return ()

    def __len__(self) -> int:
        return len(self.rows)

    def require_points(self) -> tuple[Point, ...]:
        """Return the point rows, or raise if this result does not hold points."""
        if self.pairs or self.triplets or self.records:
            raise UnsupportedQueryError("this query produced pairs/triplets, not points")
        return self.points

    def require_pairs(self) -> tuple[JoinPair, ...]:
        """Return the pair rows, or raise if this result does not hold pairs."""
        if self.points or self.triplets or self.records:
            raise UnsupportedQueryError("this query produced points/triplets, not pairs")
        return self.pairs

    def require_triplets(self) -> tuple[JoinTriplet, ...]:
        """Return the triplet rows, or raise if this result does not hold triplets."""
        if self.points or self.pairs or self.records:
            raise UnsupportedQueryError("this query produced points/pairs, not triplets")
        return self.triplets
