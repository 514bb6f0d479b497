"""Brute-force reference evaluator: the algebra's executable semantics.

Evaluates a tree with plain Python loops over materialized point lists — no
index, no kernels, no rewrite rules, no fast paths.  Every operator is
implemented independently of :mod:`repro.algebra.evaluate`, so the Hypothesis
parity suite (``tests/test_property_algebra_parity.py``) cross-checks two
genuinely different implementations of the same semantics.

Tie-breaking follows the library-wide neighborhood order: ascending
``(distance, pid)`` with the distance computed by ``np.hypot`` — the same
function every index path ranks by, so two points whose squared distances
round apart but whose distances round together tie here exactly as they do
there (``math.hypot`` can differ from it in the last ulp).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import UnsupportedQueryError
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.algebra.tree import (
    AlgebraNode,
    AttrFilter,
    GridAggregate,
    KnnFilter,
    KnnJoinOp,
    RangeFilter,
    RegionAggregate,
    Scan,
    TopK,
)

__all__ = ["reference_evaluate", "reference_rows"]


def reference_evaluate(
    tree: AlgebraNode,
    relations: Mapping[str, Sequence[Point]],
    bounds: Mapping[str, Rect] | None = None,
) -> tuple[list[tuple], int]:
    """Evaluate ``tree`` over plain point lists; returns ``(rows, width)``.

    ``relations`` maps names to point sequences; ``bounds`` supplies each
    relation's grid frame for aggregates (required only when the tree
    aggregates).  Rows are tuples of points (``width`` columns) or
    ``(key, value)`` aggregate rows (``width == 0``).
    """
    return _eval(tree, relations, bounds or {})


def reference_rows(
    tree: AlgebraNode,
    relations: Mapping[str, Sequence[Point]],
    bounds: Mapping[str, Rect] | None = None,
) -> tuple:
    """Canonical sorted row keys of the reference answer.

    Point rows canonicalize to sorted pid tuples (one pid per column);
    aggregate rows are already ``(key, value)`` and sort by key — the same
    canonical form :func:`repro.stream.delta.result_rows` produces for
    algebra results, so every layer can be compared against this.
    """
    rows, width = reference_evaluate(tree, relations, bounds)
    if width == 0:
        return tuple(sorted(rows))
    if width == 1:
        return tuple(sorted(row[0].pid for row in rows))
    return tuple(sorted(tuple(p.pid for p in row) for row in rows))


def _eval(
    node: AlgebraNode,
    relations: Mapping[str, Sequence[Point]],
    bounds: Mapping[str, Rect],
) -> tuple[list[tuple], int]:
    if isinstance(node, Scan):
        return [(p,) for p in relations[node.relation]], 1
    if isinstance(node, RangeFilter):
        rows, width = _eval(node.child, relations, bounds)
        col = _col(width, node.on)
        return [r for r in rows if _inside(r[col], node.window)], width
    if isinstance(node, AttrFilter):
        rows, width = _eval(node.child, relations, bounds)
        col = _col(width, node.on)
        return [r for r in rows if _matches(r[col], node.key, node.value)], width
    if isinstance(node, KnnFilter):
        rows, width = _eval(node.child, relations, bounds)
        col = _col(width, node.on)
        distinct = {r[col].pid: r[col] for r in rows}
        keep = {
            p.pid
            for p in sorted(
                distinct.values(), key=lambda p: (_dist(p, node.focal), p.pid)
            )[: node.k]
        }
        return [r for r in rows if r[col].pid in keep], width
    if isinstance(node, KnnJoinOp):
        rows, width = _eval(node.outer, relations, bounds)
        inner = list(relations[node.inner.relation])
        out: list[tuple] = []
        for row in rows:
            focal = row[-1]
            nearest = sorted(inner, key=lambda p: (_dist(p, focal), p.pid))[: node.k]
            out.extend(row + (e2,) for e2 in nearest)
        return out, width + 1
    if isinstance(node, GridAggregate):
        rows, _width = _eval(node.child, relations, bounds)
        frame = bounds[node.target_relation()]
        cps = node.cells_per_side
        counts: dict[tuple[int, int], int] = {}
        for row in rows:
            cell = _cell(row[-1], frame, cps)
            counts[cell] = counts.get(cell, 0) + 1
        if node.measure == "density":
            area = (frame.width / cps) * (frame.height / cps)
            scale = 1.0 / area if area > 0 else 0.0
            return [(c, counts[c] * scale) for c in sorted(counts) if counts[c]], 0
        return [(c, counts[c]) for c in sorted(counts) if counts[c]], 0
    if isinstance(node, RegionAggregate):
        rows, _width = _eval(node.child, relations, bounds)
        return [
            (name, sum(1 for r in rows if _inside(r[-1], rect)))
            for name, rect in node.regions
        ], 0
    if isinstance(node, TopK):
        rows, _width = _eval(node.child, relations, bounds)
        return sorted(rows, key=lambda r: (-r[1], r[0]))[: node.limit], 0
    raise UnsupportedQueryError(f"unknown algebra node: {type(node).__name__}")


def _col(width: int, on: str) -> int:
    return 0 if on == "outer" else width - 1


def _inside(p: Point, window: Rect) -> bool:
    return window.xmin <= p.x <= window.xmax and window.ymin <= p.y <= window.ymax


def _matches(p: Point, key: str, value: object) -> bool:
    payload = p.payload
    return isinstance(payload, Mapping) and key in payload and payload[key] == value


def _dist(p: Point, q: Point) -> float:
    return float(np.hypot(p.x - q.x, p.y - q.y))


def _cell(p: Point, frame: Rect, cps: int) -> tuple[int, int]:
    cw = frame.width / cps
    ch = frame.height / cps
    ix = int((p.x - frame.xmin) / cw) if cw > 0 else 0
    iy = int((p.y - frame.ymin) / ch) if ch > 0 else 0
    return (min(max(ix, 0), cps - 1), min(max(iy, 0), cps - 1))
