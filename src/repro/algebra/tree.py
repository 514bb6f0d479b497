"""Logical operator trees: the composable query algebra.

The paper studies six fixed two-predicate query classes.  This module
generalizes them into an *algebra* of composable operator trees:

* ``Scan(relation)`` — every point of a named relation;
* per-point filters — ``RangeFilter`` (window containment), ``AttrFilter``
  (payload side-table equality), ``KnnFilter`` (keep the k nearest to a
  focal point *among the input*); nesting filters is conjunction (∧);
* ``KnnJoinOp(outer, inner, k)`` — append each row's k nearest inner points,
  chainable to any depth (the output rows grow one point column per join);
* spatial aggregates — ``GridAggregate`` (count/density per grid cell),
  ``RegionAggregate`` (group-by-region counts) and ``TopK`` (windowed top-k
  over the aggregate's cell neighborhoods).

Filters above a join carry an ``on`` column selector: ``"point"`` tests the
row's *last* column (the most recently joined inner point — the paper's
"evaluate the join, then filter its output") and ``"outer"`` tests the row's
*first* column.  The distinction is what makes the paper's validity results
expressible as rewrite rules (see :mod:`repro.algebra.rules`): an
outer-column filter commutes with the join, an inner-column filter does not.

Every node carries a plan-cache :meth:`~AlgebraNode.signature` — a pure
nested tuple of strings and ints, excluding focal points and window
coordinates exactly like :meth:`repro.query.query.Query.signature` — and
:func:`tree_from_signature` rebuilds a placeholder tree from one, which is
how the durable tier warms algebra plans across restarts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterator, Mapping

from repro.exceptions import InvalidParameterError, InvalidPlanError
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.query.predicates import validate_window

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.query.dataset import Dataset

__all__ = [
    "AlgebraNode",
    "Scan",
    "RangeFilter",
    "AttrFilter",
    "KnnFilter",
    "KnnJoinOp",
    "GridAggregate",
    "RegionAggregate",
    "TopK",
    "tree_from_signature",
]


def _bucket_k(k: int) -> int:
    """Power-of-two k bucketing (shared with ``Query.signature``)."""
    if k <= 0:
        raise InvalidParameterError("k must be positive")
    return 1 << (k - 1).bit_length()


@dataclass(frozen=True)
class AlgebraNode:
    """Base class of every logical operator node.

    Nodes are frozen dataclasses: structural equality, hashability and
    pickling (the sharded executor ships subtrees to workers) come for free.
    """

    def children(self) -> tuple["AlgebraNode", ...]:
        """The node's child operators, left to right."""
        return tuple(
            value
            for f in fields(self)
            if isinstance(value := getattr(self, f.name), AlgebraNode)
        )

    def walk(self) -> Iterator["AlgebraNode"]:
        """Yield the node and every descendant, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def relations(self) -> frozenset[str]:
        """Names of every relation scanned anywhere below this node."""
        return frozenset(
            node.relation for node in self.walk() if isinstance(node, Scan)
        )

    def width(self) -> int:
        """Number of point columns per output row (0 for aggregate rows)."""
        children = self.children()
        return children[0].width() if children else 0

    def target_relation(self) -> str:
        """The relation that produced the row's *last* point column."""
        children = self.children()
        if not children:
            raise InvalidParameterError(f"{type(self).__name__} has no input relation")
        return children[-1].target_relation()

    def signature(self, datasets: Mapping[str, "Dataset"]) -> tuple:
        """Canonical plan-relevant shape: nested tuples of strings and ints.

        Focal points, window coordinates, attribute values and region
        rectangles are excluded (plans do not depend on them); k values are
        power-of-two bucketed.  The tuple survives a JSON round trip through
        the durable tier's list re-tuplification unchanged.
        """
        raise NotImplementedError

    def label(self) -> str:
        """Compact one-line rendering for EXPLAIN output and span names."""
        raise NotImplementedError


def _point_producing(node: AlgebraNode, what: str) -> None:
    if node.width() < 1:
        raise InvalidParameterError(
            f"{what} requires point-producing rows, "
            f"got aggregate rows from {type(node).__name__}"
        )


@dataclass(frozen=True)
class Scan(AlgebraNode):
    """Leaf: every point of the named relation."""

    relation: str

    def __post_init__(self) -> None:
        if not self.relation:
            raise InvalidParameterError("Scan.relation must be non-empty")

    def width(self) -> int:
        return 1

    def target_relation(self) -> str:
        return self.relation

    def signature(self, datasets: Mapping[str, "Dataset"]) -> tuple:
        return ("scan", self.relation, str(datasets[self.relation].index_kind))

    def label(self) -> str:
        return f"scan({self.relation})"


def _validate_on(node: AlgebraNode, on: str, child: AlgebraNode) -> None:
    """Shared ``on`` column-selector validation for the three filters."""
    if on not in ("point", "outer"):
        raise InvalidParameterError(
            f"{type(node).__name__}.on must be 'point' or 'outer', got {on!r}"
        )
    if on == "outer" and not isinstance(child, KnnJoinOp):
        raise InvalidParameterError(
            f"{type(node).__name__}.on='outer' is only meaningful above a join"
        )


@dataclass(frozen=True)
class RangeFilter(AlgebraNode):
    """Keep rows whose tested column lies inside a rectangular window."""

    child: AlgebraNode
    window: Rect
    on: str = "point"

    def __post_init__(self) -> None:
        validate_window(self.window, "RangeFilter.window")
        _validate_on(self, self.on, self.child)

    def width(self) -> int:
        return self.child.width()

    def signature(self, datasets: Mapping[str, "Dataset"]) -> tuple:
        return ("range", self.child.signature(datasets), self.on)

    def label(self) -> str:
        tag = "" if self.on == "point" else f"@{self.on}"
        return f"range{tag}({self.child.label()})"


@dataclass(frozen=True)
class AttrFilter(AlgebraNode):
    """Keep rows whose tested column's payload attribute equals ``value``.

    The attribute lives in the relation's payload side-table
    (:attr:`repro.storage.pointstore.PointStore.payloads`); points without a
    mapping payload, or without the key, never match.
    """

    child: AlgebraNode
    key: str
    value: object = None
    on: str = "point"

    def __post_init__(self) -> None:
        if not isinstance(self.key, str) or not self.key:
            raise InvalidParameterError(
                "AttrFilter.key must be a non-empty string (empty attribute-"
                f"filter clause): {self.key!r}"
            )
        _validate_on(self, self.on, self.child)

    def width(self) -> int:
        return self.child.width()

    def signature(self, datasets: Mapping[str, "Dataset"]) -> tuple:
        return ("attr", self.child.signature(datasets), self.key, self.on)

    def label(self) -> str:
        tag = "" if self.on == "point" else f"@{self.on}"
        return f"attr[{self.key}]{tag}({self.child.label()})"


@dataclass(frozen=True)
class KnnFilter(AlgebraNode):
    """Keep rows whose tested column is among the k nearest to ``focal``.

    The k nearest are taken *among the distinct points the input produces
    for that column* — over a bare :class:`Scan` this is exactly the paper's
    kNN-select; over a filtered input it is a kNN within the filtered subset.
    Ties break ascending ``(distance, pid)``, the library-wide order.
    """

    child: AlgebraNode
    focal: Point
    k: int
    on: str = "point"

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise InvalidParameterError("KnnFilter.k must be positive")
        if not math.isfinite(self.focal.x) or not math.isfinite(self.focal.y):
            raise InvalidParameterError("KnnFilter.focal must have finite coordinates")
        _validate_on(self, self.on, self.child)

    def width(self) -> int:
        return self.child.width()

    def signature(self, datasets: Mapping[str, "Dataset"]) -> tuple:
        return ("knn", self.child.signature(datasets), _bucket_k(self.k), self.on)

    def label(self) -> str:
        tag = "" if self.on == "point" else f"@{self.on}"
        return f"knn[{self.k}]{tag}({self.child.label()})"


@dataclass(frozen=True)
class KnnJoinOp(AlgebraNode):
    """Append each row's k nearest ``inner`` points (one new point column).

    The row's *last* column is the join's focal side, so nesting joins
    chains them: ``KnnJoinOp(KnnJoinOp(Scan(a), Scan(b), k1), Scan(c), k2)``
    is the paper's chained A→B→C query generalized to any depth.

    The inner input must be a bare :class:`Scan`.  This is the paper's
    central validity result made structural: a kNN over a *restricted* inner
    relation ranks neighbors within the restriction, which is not the
    intended answer of any select-above-join query — the Counting and
    Block-Marking strategies exist precisely because that shortcut is
    invalid.  Filter the join's *output* (``on="point"``) instead.

    ``batch_inner`` is a physical annotation set by the rewrite engine's
    ``batch-inner-chain`` rule: deduplicate repeated focal points so each
    distinct neighborhood is computed once (the chained-join precomputation).
    """

    outer: AlgebraNode
    inner: AlgebraNode
    k: int
    batch_inner: bool = False

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise InvalidParameterError("KnnJoinOp.k must be positive")
        _point_producing(self.outer, "KnnJoinOp.outer")
        if not isinstance(self.inner, Scan):
            raise InvalidPlanError(
                "KnnJoinOp.inner must be a bare Scan: restricting the inner "
                "relation changes every neighborhood (the paper's select-"
                "inner-of-join invalidity); filter the join output instead"
            )

    def children(self) -> tuple[AlgebraNode, ...]:
        return (self.outer, self.inner)

    def width(self) -> int:
        return self.outer.width() + 1

    def target_relation(self) -> str:
        return self.inner.target_relation()

    def signature(self, datasets: Mapping[str, "Dataset"]) -> tuple:
        return (
            "join",
            self.outer.signature(datasets),
            self.inner.signature(datasets),
            _bucket_k(self.k),
        )

    def label(self) -> str:
        return f"join[{self.k}]({self.outer.label()}, {self.inner.label()})"


#: Aggregate measures supported by :class:`GridAggregate`.
_MEASURES = ("count", "density")


@dataclass(frozen=True)
class GridAggregate(AlgebraNode):
    """Per-grid-cell aggregate over the input rows' last point column.

    The target relation's declared bounds are divided into
    ``cells_per_side × cells_per_side`` cells (the same decomposition as
    :class:`repro.index.grid.GridIndex`); output rows are
    ``((ix, iy), value)`` for every non-empty cell, sorted by cell.
    ``measure="count"`` counts points, ``"density"`` divides by cell area.

    ``prune`` is a physical annotation set by the rewrite engine's
    ``prune-aggregate-window`` rule: every surviving input point lies inside
    it, so executors (sharded fan-out, stream dirty-set maintenance) may
    skip cells disjoint from it.
    """

    child: AlgebraNode
    cells_per_side: int
    measure: str = "count"
    prune: Rect | None = None

    def __post_init__(self) -> None:
        _point_producing_or_rows(self.child, "GridAggregate.child")
        if self.cells_per_side <= 0:
            raise InvalidParameterError("GridAggregate.cells_per_side must be positive")
        if self.measure not in _MEASURES:
            raise InvalidParameterError(
                f"GridAggregate.measure must be one of {_MEASURES}, got {self.measure!r}"
            )

    def children(self) -> tuple[AlgebraNode, ...]:
        return (self.child,)

    def width(self) -> int:
        return 0

    def target_relation(self) -> str:
        return self.child.target_relation()

    def signature(self, datasets: Mapping[str, "Dataset"]) -> tuple:
        return (
            "grid_agg",
            self.child.signature(datasets),
            int(self.cells_per_side),
            self.measure,
        )

    def label(self) -> str:
        return (
            f"grid_agg[{self.cells_per_side}x{self.cells_per_side} "
            f"{self.measure}]({self.child.label()})"
        )


@dataclass(frozen=True)
class RegionAggregate(AlgebraNode):
    """Group-by-region counts over the input rows' last point column.

    ``regions`` is a tuple of ``(name, Rect)`` groups; output rows are
    ``(name, count)`` in the given order, zero counts included (a stable
    schema — consumers see every region every time).
    """

    child: AlgebraNode
    regions: tuple[tuple[str, Rect], ...]

    def __post_init__(self) -> None:
        _point_producing_or_rows(self.child, "RegionAggregate.child")
        if not self.regions:
            raise InvalidParameterError("RegionAggregate.regions must be non-empty")
        seen: set[str] = set()
        for entry in self.regions:
            if not isinstance(entry, tuple) or len(entry) != 2:
                raise InvalidParameterError(
                    f"RegionAggregate.regions entries must be (name, Rect): {entry!r}"
                )
            name, rect = entry
            if not name or not isinstance(name, str):
                raise InvalidParameterError("RegionAggregate region names must be non-empty")
            if name in seen:
                raise InvalidParameterError(f"duplicate region name: {name!r}")
            seen.add(name)
            validate_window(rect, f"RegionAggregate region {name!r}")

    def children(self) -> tuple[AlgebraNode, ...]:
        return (self.child,)

    def width(self) -> int:
        return 0

    def target_relation(self) -> str:
        return self.child.target_relation()

    def signature(self, datasets: Mapping[str, "Dataset"]) -> tuple:
        return ("region_agg", self.child.signature(datasets), len(self.regions))

    def label(self) -> str:
        return f"region_agg[{len(self.regions)}]({self.child.label()})"


@dataclass(frozen=True)
class TopK(AlgebraNode):
    """Keep the ``limit`` highest-valued aggregate rows (the hotspots).

    Rows rank by descending value with ties broken by ascending group key,
    so the answer is deterministic.  The input must be an aggregate
    (grid cells are the "neighborhoods" the top-k windows over).
    """

    child: AlgebraNode
    limit: int

    def __post_init__(self) -> None:
        if self.limit <= 0:
            raise InvalidParameterError("TopK.limit must be positive")
        if self.child.width() != 0:
            raise InvalidParameterError(
                "TopK requires an aggregate input (GridAggregate/RegionAggregate)"
            )

    def children(self) -> tuple[AlgebraNode, ...]:
        return (self.child,)

    def width(self) -> int:
        return 0

    def target_relation(self) -> str:
        return self.child.target_relation()

    def signature(self, datasets: Mapping[str, "Dataset"]) -> tuple:
        return ("topk", self.child.signature(datasets), int(self.limit))

    def label(self) -> str:
        return f"topk[{self.limit}]({self.child.label()})"


def _point_producing_or_rows(node: AlgebraNode, what: str) -> None:
    """Aggregates consume point columns: reject aggregate-over-aggregate."""
    if node.width() < 1:
        raise InvalidParameterError(f"{what} must produce point rows, not aggregates")


# ----------------------------------------------------------------------
# Signature → placeholder tree (durable warm restarts)
# ----------------------------------------------------------------------
_UNIT_WINDOW = (0.0, 0.0, 1.0, 1.0)


def tree_from_signature(entry: tuple) -> AlgebraNode:
    """Rebuild a placeholder tree from a node :meth:`~AlgebraNode.signature`.

    Focal points, windows, attribute values and region rectangles were
    excluded from the signature, so the placeholders carry origin focals,
    unit windows and ``None`` values — exactly enough that the placeholder
    tree re-plans (and re-caches) under the *same* signature, which is what
    :meth:`repro.query.query.Query.from_signature` needs for durable
    warm restarts.  Raises :class:`InvalidParameterError` on malformed input.
    """
    try:
        kind = entry[0]
        if kind == "scan":
            _, relation, _index_kind = entry
            return Scan(str(relation))
        if kind == "range":
            _, child, on = entry
            return RangeFilter(tree_from_signature(child), Rect(*_UNIT_WINDOW), on=str(on))
        if kind == "attr":
            _, child, key, on = entry
            return AttrFilter(tree_from_signature(child), str(key), None, on=str(on))
        if kind == "knn":
            _, child, k, on = entry
            return KnnFilter(
                tree_from_signature(child), Point(0.0, 0.0), int(k), on=str(on)
            )
        if kind == "join":
            _, outer, inner, k = entry
            return KnnJoinOp(
                tree_from_signature(outer), tree_from_signature(inner), int(k)
            )
        if kind == "grid_agg":
            _, child, cells, measure = entry
            return GridAggregate(tree_from_signature(child), int(cells), str(measure))
        if kind == "region_agg":
            _, child, count = entry
            regions = tuple(
                (f"r{i}", Rect(float(i), 0.0, float(i) + 1.0, 1.0))
                for i in range(int(count))
            )
            return RegionAggregate(tree_from_signature(child), regions)
        if kind == "topk":
            _, child, limit = entry
            return TopK(tree_from_signature(child), int(limit))
        raise InvalidParameterError(f"unknown algebra signature kind: {kind!r}")
    except InvalidParameterError:
        raise
    except (TypeError, ValueError, IndexError) as exc:
        raise InvalidParameterError(f"malformed algebra signature: {entry!r}") from exc
