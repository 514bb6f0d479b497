"""The ``Query`` dispatcher: classify, validate, optimize and execute.

A query holds one or two kNN predicates over named relations.  ``run`` maps
the predicate combination onto one of the paper's query classes, checks the
combination against the correctness rules, lets the optimizer pick a physical
algorithm (unless the caller forces one) and executes it.

Planning and execution are split: :meth:`Query.plan` derives a
:class:`~repro.planner.plan.PhysicalPlan` (the chosen strategy plus the
per-class decisions that justify it) and :meth:`Query.run` executes one.
One-shot callers never notice — ``run`` plans implicitly — but the split is
what allows :class:`repro.engine.SpatialEngine` to cache plans across calls
and to substitute cached index statistics for the O(n) recomputation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping, MutableMapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.planner.calibrate import CalibrationStore, StrategyProfile

from repro.core.select_join.baseline import select_join_baseline
from repro.core.select_join.block_marking import select_join_block_marking
from repro.core.select_join.counting import select_join_counting
from repro.core.select_join.outer_select import outer_select_join_pushdown
from repro.core.stats import PruningStats
from repro.core.two_joins.chained import chained_joins_nested
from repro.core.two_joins.unchained import (
    unchained_joins_auto,
    unchained_joins_baseline,
)
from repro.core.two_selects.baseline import two_knn_selects_baseline
from repro.core.two_selects.optimized import two_knn_selects_optimized
from repro.core.select_join.range_inner import (
    range_inner_join_baseline,
    range_inner_join_block_marking,
)
from repro.algebra.tree import AlgebraNode, tree_from_signature
from repro.exceptions import InvalidParameterError, UnsupportedQueryError
from repro.index.stats import IndexStats
from repro.locality.neighborhood import Neighborhood
from repro.operators.intersection import intersect_points
from repro.operators.knn_join import knn_join_pairs
from repro.operators.knn_select import knn_select
from repro.operators.range_select import range_select
from repro.planner.optimizer import Optimizer, SelectJoinStrategy
from repro.planner.plan import PhysicalPlan
from repro.query.dataset import Dataset
from repro.query.predicates import KnnJoin, KnnSelect, RangeSelect
from repro.query.results import QueryResult

__all__ = ["Query", "bucket_k"]

Predicate = KnnSelect | KnnJoin | RangeSelect

#: ``(dataset) -> IndexStats`` — lets the engine substitute cached statistics.
StatsProvider = Callable[[Dataset], IndexStats]


def bucket_k(k: int) -> int:
    """Round ``k`` up to the next power of two.

    Plan-cache signatures bucket k-values so that queries differing only in a
    nearby ``k`` share one cached plan: the optimizer's decisions vary with
    the order of magnitude of ``k``, not its exact value.
    """
    if k <= 0:
        raise InvalidParameterError("k must be positive")
    return 1 << (k - 1).bit_length()


class Query:
    """A spatial query made of one or two kNN predicates.

    Parameters
    ----------
    *predicates:
        One or two :class:`KnnSelect` / :class:`KnnJoin` predicates.
    strategy:
        ``"auto"`` (default) lets the optimizer choose the paper's optimized
        algorithm; ``"baseline"`` forces the conceptually correct QEP;
        ``"counting"`` / ``"block_marking"`` force a specific select+join
        algorithm.
    optimizer:
        Optional custom :class:`~repro.planner.optimizer.Optimizer`.
    tree:
        An :class:`~repro.algebra.tree.AlgebraNode` operator tree instead of
        predicates (see :meth:`from_tree`).  Tree queries are planned by the
        algebra's rewrite-rule engine; ``strategy`` must stay ``"auto"``.
    """

    def __init__(
        self,
        *predicates: Predicate,
        strategy: str = "auto",
        optimizer: Optimizer | None = None,
        tree: AlgebraNode | None = None,
    ) -> None:
        if tree is not None:
            if predicates:
                raise InvalidParameterError(
                    "a query takes predicates or a tree, not both"
                )
            if not isinstance(tree, AlgebraNode):
                raise InvalidParameterError(f"unsupported tree: {tree!r}")
            if strategy != "auto":
                raise InvalidParameterError(
                    "algebra queries are planned by the rewrite engine; "
                    f"strategy must be 'auto', got {strategy!r}"
                )
        else:
            if not 1 <= len(predicates) <= 2:
                raise UnsupportedQueryError("a query must have one or two kNN predicates")
            for predicate in predicates:
                if not isinstance(predicate, (KnnSelect, KnnJoin, RangeSelect)):
                    raise InvalidParameterError(f"unsupported predicate: {predicate!r}")
            if strategy not in ("auto", "baseline", "counting", "block_marking"):
                raise InvalidParameterError(f"unknown strategy: {strategy!r}")
        self.predicates: tuple[Predicate, ...] = tuple(predicates)
        self.tree = tree
        self.strategy = strategy
        self.optimizer = optimizer or Optimizer()

    @classmethod
    def from_tree(cls, tree: AlgebraNode, optimizer: Optimizer | None = None) -> "Query":
        """Build a query over a composable algebra tree.

        The tree is compiled by the rewrite-rule engine
        (:mod:`repro.algebra.rules`) into an ``"algebra"``-class physical
        plan; results arrive as points, pairs or triplets when the tree's
        output width matches a paper shape, and as generic
        :attr:`~repro.query.results.QueryResult.records` for aggregates and
        deeper join chains.
        """
        return cls(tree=tree, optimizer=optimizer)

    # ------------------------------------------------------------------
    # Signature (plan-cache key)
    # ------------------------------------------------------------------
    def signature(self, datasets: Mapping[str, Dataset]) -> tuple:
        """A canonical, hashable description of this query's *plan-relevant* shape.

        Two queries with equal signatures are guaranteed to plan identically
        against unmutated datasets: the signature covers the predicate
        classes, the relation names, their index kinds, the bucketed k-values
        and any forced strategy.  Focal points and range windows are excluded
        on purpose — the physical strategy does not depend on them, which is
        exactly what makes plan caching effective for point-lookup-style
        traffic.
        """
        self._check_relations_exist(datasets)
        if self.tree is not None:
            return (self.strategy, (("algebra", self.tree.signature(datasets)),))
        entries: list[tuple] = []
        for predicate in self.predicates:
            if isinstance(predicate, KnnSelect):
                entries.append(
                    (
                        "knn_select",
                        predicate.relation,
                        datasets[predicate.relation].index_kind,
                        bucket_k(predicate.k),
                    )
                )
            elif isinstance(predicate, RangeSelect):
                entries.append(
                    (
                        "range_select",
                        predicate.relation,
                        datasets[predicate.relation].index_kind,
                    )
                )
            else:
                entries.append(
                    (
                        "knn_join",
                        predicate.outer,
                        datasets[predicate.outer].index_kind,
                        predicate.inner,
                        datasets[predicate.inner].index_kind,
                        bucket_k(predicate.k),
                    )
                )
        return (self.strategy, tuple(sorted(entries)))

    @classmethod
    def from_signature(cls, signature: tuple) -> "Query":
        """Rebuild a query *shape* from a :meth:`signature` value.

        The signature deliberately drops focal points and range windows (the
        plan does not depend on them), so the reconstructed query carries
        placeholder parameters — origin focal points, a unit window, the
        bucketed k.  That is exactly enough to re-derive and re-cache the
        same plan under the same signature, which is how the durable tier
        warms a restarted engine's plan cache; the reconstructed query is
        *not* suitable for running (its results would be for the
        placeholders).
        """
        from repro.geometry.point import Point
        from repro.geometry.rectangle import Rect

        try:
            strategy, entries = signature
            if len(entries) == 1 and entries[0][0] == "algebra":
                return cls(tree=tree_from_signature(entries[0][1]), strategy=strategy)
            predicates: list[Predicate] = []
            for entry in entries:
                if entry[0] == "knn_select":
                    _, relation, _kind, k = entry
                    predicates.append(KnnSelect(relation, Point(0.0, 0.0), int(k)))
                elif entry[0] == "range_select":
                    _, relation, _kind = entry
                    predicates.append(RangeSelect(relation, Rect(0.0, 0.0, 1.0, 1.0)))
                elif entry[0] == "knn_join":
                    _, outer, _okind, inner, _ikind, k = entry
                    predicates.append(KnnJoin(outer, inner, int(k)))
                else:
                    raise InvalidParameterError(
                        f"unknown signature entry kind: {entry[0]!r}"
                    )
        except (TypeError, ValueError) as exc:
            raise InvalidParameterError(f"malformed query signature: {signature!r}") from exc
        return cls(*predicates, strategy=strategy)

    @staticmethod
    def calibration_key_of(signature: tuple) -> tuple:
        """The calibration key embedded in a :meth:`signature` value.

        Single owner of the signature-tuple layout: the engine (which
        already holds the signature) and :meth:`calibration_key` both derive
        the key through here, so a future signature change cannot silently
        diverge the two.
        """
        return signature[1]

    def calibration_key(self, datasets: Mapping[str, Dataset]) -> tuple:
        """The key under which executions of this shape are calibrated.

        This is the plan-cache signature *minus* the forced-strategy
        component: a run with ``strategy="counting"`` and a run with
        ``strategy="auto"`` describe the same workload, so observations from
        either must warm the same profiles (that is also how tests and
        operators can deliberately exercise one strategy to teach the
        planner about it).
        """
        return self.calibration_key_of(self.signature(datasets))

    def relations(self) -> frozenset[str]:
        """Names of every relation this query touches."""
        if self.tree is not None:
            return self.tree.relations()
        names: set[str] = set()
        for predicate in self.predicates:
            if isinstance(predicate, (KnnSelect, RangeSelect)):
                names.add(predicate.relation)
            else:
                names.add(predicate.outer)
                names.add(predicate.inner)
        return frozenset(names)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(
        self,
        datasets: Mapping[str, Dataset],
        stats_provider: StatsProvider | None = None,
        calibration: "CalibrationStore | None" = None,
    ) -> PhysicalPlan:
        """Derive the physical plan without executing anything.

        ``stats_provider`` substitutes a cached-statistics lookup for the
        O(n) :meth:`IndexStats.from_index` recomputation; the engine passes
        its statistics cache here.

        ``calibration`` supplies the engine's observation store
        (:class:`~repro.planner.calibrate.CalibrationStore`): strategies with
        warm profiles are estimated from observed work instead of the static
        constants, and — for the select-inner-of-join class — re-ranked by
        those calibrated estimates.  Every plan carries an estimate for its
        chosen strategy in :attr:`PhysicalPlan.estimates`, so the engine can
        compare it against the observed cost after execution (the
        misprediction check) and EXPLAIN can report estimated-vs-observed.
        """
        self._check_relations_exist(datasets)
        profiles: dict[str, StrategyProfile] = {}
        if calibration is not None:
            profiles = {
                name: profile
                for name, profile in calibration.profiles(
                    self.calibration_key(datasets)
                ).items()
                if profile.warm(calibration.min_observations)
            }
        if self.tree is not None:
            from repro.algebra.compile import compile_tree

            plan = compile_tree(
                self.tree, datasets, self.optimizer.cost_model, calibration
            )
            return self._blend_observed(plan, profiles)
        selects = [p for p in self.predicates if isinstance(p, KnnSelect)]
        joins = [p for p in self.predicates if isinstance(p, KnnJoin)]
        ranges = [p for p in self.predicates if isinstance(p, RangeSelect)]

        plan: PhysicalPlan
        if len(self.predicates) == 1:
            if selects:
                plan = PhysicalPlan(
                    "single-select", "knn-select", estimates={"knn-select": 1.0}
                )
            elif ranges:
                n = len(datasets[ranges[0].relation])
                plan = PhysicalPlan(
                    "single-range",
                    "range-select",
                    estimates={"range-select": self._scan_estimate(n)},
                )
            else:
                outer_size = len(datasets[joins[0].outer])
                plan = PhysicalPlan(
                    "single-join", "knn-join", estimates={"knn-join": float(outer_size)}
                )
        elif len(selects) == 2:
            plan = self._plan_two_selects(selects[0], selects[1])
        elif len(selects) == 1 and len(joins) == 1:
            plan = self._plan_select_join(
                selects[0], joins[0], datasets, stats_provider, profiles
            )
        elif len(ranges) == 1 and len(joins) == 1:
            plan = self._plan_range_join(ranges[0], joins[0], datasets)
        elif len(ranges) == 1 and len(selects) == 1:
            if ranges[0].relation != selects[0].relation:
                raise UnsupportedQueryError(
                    "a range-select and a kNN-select must target the same relation"
                )
            plan = PhysicalPlan(
                "range-and-knn-select",
                "knn-select-then-range-filter",
                estimates={"knn-select-then-range-filter": 1.0},
            )
        elif len(ranges) == 2:
            if ranges[0].relation != ranges[1].relation:
                raise UnsupportedQueryError(
                    "two range-selects must target the same relation to be intersected"
                )
            n = len(datasets[ranges[0].relation])
            plan = PhysicalPlan(
                "two-ranges",
                "range-intersection",
                estimates={"range-intersection": 2.0 * self._scan_estimate(n)},
            )
        else:
            plan = self._plan_two_joins(joins[0], joins[1], datasets, stats_provider)
        return self._blend_observed(plan, profiles)

    def _scan_estimate(self, population: int) -> float:
        """Abstract upper bound for a windowed block scan over ``population``."""
        return 1.0 + population * self.optimizer.cost_model.tuple_check_cost  # type: ignore[union-attr]

    def _blend_observed(
        self, plan: PhysicalPlan, profiles: Mapping[str, "StrategyProfile"]
    ) -> PhysicalPlan:
        """Replace the chosen strategy's estimate with its observed EWMA cost.

        The select-inner-of-join class calibrates *inside* planning (the
        alternatives are re-ranked there); every other class has a single
        physical strategy per plan, so calibration cannot change the choice —
        but it corrects the estimate, which is what the misprediction check
        and EXPLAIN's estimated-vs-observed feedback compare against.
        """
        if plan.query_class == "select-inner-of-join":
            return plan
        profile = profiles.get(plan.strategy)
        if profile is None:
            return plan
        estimates = dict(plan.estimates)
        estimates[plan.strategy] = profile.observed_total
        decisions = dict(plan.decisions)
        decisions["calibrated"] = True
        return PhysicalPlan(plan.query_class, plan.strategy, decisions, estimates)

    def _plan_two_selects(self, first: KnnSelect, second: KnnSelect) -> PhysicalPlan:
        if first.relation != second.relation:
            raise UnsupportedQueryError(
                "two kNN-selects must target the same relation to be intersected"
            )
        if self.strategy == "baseline":
            return PhysicalPlan(
                "two-selects",
                "two-selects-baseline",
                estimates={"two-selects-baseline": 2.0},
            )
        # No decision is cached: Procedure 5 orders the two selects internally
        # (smaller k first), so a stored order would be dead weight — and a
        # positional one would be wrong under the order-independent signature.
        return PhysicalPlan(
            "two-selects", "2-kNN-select", estimates={"2-kNN-select": 2.0}
        )

    def _plan_select_join(
        self,
        select: KnnSelect,
        join: KnnJoin,
        datasets: Mapping[str, Dataset],
        stats_provider: StatsProvider | None,
        profiles: Mapping[str, "StrategyProfile"],
    ) -> PhysicalPlan:
        if select.relation == join.outer:
            return PhysicalPlan(
                "select-outer-of-join",
                "outer-select-pushdown",
                estimates={"outer-select-pushdown": 1.0 + float(select.k)},
            )
        if select.relation != join.inner:
            raise UnsupportedQueryError(
                "the kNN-select must target either the join's outer or inner relation"
            )
        decisions: dict[str, object] = {}
        outer_size = len(datasets[join.outer])
        cost_model = self.optimizer.cost_model
        assert cost_model is not None
        if self.strategy == "baseline":
            strategy = SelectJoinStrategy.BASELINE
            estimates = {"baseline": float(outer_size)}
        elif self.strategy == "counting":
            strategy = SelectJoinStrategy.COUNTING
            profile = profiles.get("counting")
            estimates = {
                "counting": cost_model.counting_select_join(
                    outer_size,
                    selectivity=profile.selectivity if profile else None,
                ).total
            }
        elif self.strategy == "block_marking":
            strategy = SelectJoinStrategy.BLOCK_MARKING
            outer = datasets[join.outer]
            stats = self._stats_for(outer, stats_provider)
            profile = profiles.get("block_marking")
            estimates = {
                "block_marking": cost_model.block_marking_select_join(
                    None,
                    stats,
                    selectivity=profile.selectivity if profile else None,
                    blocks_checked=profile.blocks_examined if profile else None,
                ).total
            }
        else:
            outer = datasets[join.outer]
            stats = self._stats_for(outer, stats_provider)
            # Stats in hand, the optimizer never touches the index — pass
            # None so planning cannot build a monolithic index the caller
            # (e.g. the sharded engine) deliberately avoided building.
            explained = self.optimizer.explain_select_join(None, stats, profiles)
            strategy = explained["strategy"]  # type: ignore[assignment]
            estimates = {
                name: estimate.total
                for name, estimate in explained["estimates"].items()  # type: ignore[union-attr]
            }
            if explained["calibrated"]:
                decisions["calibrated"] = True
        decisions["select_join_strategy"] = strategy
        return PhysicalPlan(
            "select-inner-of-join",
            strategy.value,
            decisions,
            estimates,
        )

    def _plan_range_join(
        self, predicate: RangeSelect, join: KnnJoin, datasets: Mapping[str, Dataset]
    ) -> PhysicalPlan:
        outer_size = float(len(datasets[join.outer]))
        if predicate.relation == join.outer:
            # Upper bound: the window never selects more than the whole outer
            # relation, and each selected point costs one neighborhood.
            return PhysicalPlan(
                "range-outer-of-join",
                "outer-range-pushdown",
                estimates={"outer-range-pushdown": outer_size},
            )
        if predicate.relation != join.inner:
            raise UnsupportedQueryError(
                "the range-select must target either the join's outer or inner relation"
            )
        if self.strategy == "baseline":
            return PhysicalPlan(
                "range-inner-of-join",
                "range-inner-baseline",
                estimates={"range-inner-baseline": outer_size},
            )
        return PhysicalPlan(
            "range-inner-of-join",
            "range-inner-block-marking",
            estimates={"range-inner-block-marking": outer_size},
        )

    def _plan_two_joins(
        self,
        first: KnnJoin,
        second: KnnJoin,
        datasets: Mapping[str, Dataset],
        stats_provider: StatsProvider | None,
    ) -> PhysicalPlan:
        # Chained: A -> B -> C (one join's inner is the other's outer).  The
        # chain direction is re-derived structurally at execution time (it is
        # a property of the predicates, not of statistics), so the cached
        # decision is informational only and safely order-independent.
        chained = self._chain_order(first, second)
        cost_model = self.optimizer.cost_model
        assert cost_model is not None
        if chained is not None:
            ab, bc = chained
            return PhysicalPlan(
                "chained-joins",
                "nested-join-cached",
                {"chain": f"{ab.outer}->{ab.inner}->{bc.inner}"},
                estimates={
                    "nested-join-cached": cost_model.chained_nested(
                        len(datasets[ab.outer]), ab.k
                    ).total
                },
            )
        # Unchained: both joins share the same inner relation.  The cached
        # decision names the relation whose join runs first — relation names,
        # unlike predicate positions, survive the order-independent signature.
        if first.inner == second.inner:
            a = datasets[first.outer]
            c = datasets[second.outer]
            # Upper bound: one neighborhood per A point and per C point (the
            # optimized plan prunes below this; the baseline meets it).
            both = float(len(a) + len(c))
            if self.strategy == "baseline":
                return PhysicalPlan(
                    "unchained-joins",
                    "unchained-baseline",
                    estimates={"unchained-baseline": both},
                )
            # As in _plan_select_join: with stats supplied the indexes are
            # never consulted, so None keeps planning index-build-free.
            order = self.optimizer.unchained_first_join(
                None,
                None,
                self._stats_for(a, stats_provider),
                self._stats_for(c, stats_provider),
            )
            first_outer = first.outer if order == "A" else second.outer
            return PhysicalPlan(
                "unchained-joins",
                "unchained-block-marking",
                {"unchained_first_outer": first_outer},
                estimates={"unchained-block-marking": both},
            )
        raise UnsupportedQueryError(
            "two kNN-joins must be chained (A->B->C) or share their inner relation"
        )

    @staticmethod
    def _chain_order(first: KnnJoin, second: KnnJoin) -> tuple[KnnJoin, KnnJoin] | None:
        """``(ab, bc)`` if the two joins chain, else ``None``."""
        if first.inner == second.outer:
            return (first, second)
        if second.inner == first.outer:
            return (second, first)
        return None

    @staticmethod
    def _stats_for(dataset: Dataset, stats_provider: StatsProvider | None) -> IndexStats:
        if stats_provider is not None:
            return stats_provider(dataset)
        return IndexStats.from_index(dataset.index)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        datasets: Mapping[str, Dataset],
        *,
        plan: PhysicalPlan | None = None,
        stats_provider: StatsProvider | None = None,
        chained_cache: MutableMapping[int, Neighborhood] | None = None,
    ) -> QueryResult:
        """Execute the query against the given relations (name → dataset).

        ``plan`` short-circuits planning with a previously derived (typically
        cached) :class:`PhysicalPlan`; with a plan supplied, execution performs
        no statistics computation and no strategy re-derivation.
        ``chained_cache`` optionally shares a B→C neighborhood cache across
        chained-join queries (see the engine's batch executor).
        """
        if plan is None:
            plan = self.plan(datasets, stats_provider)
        else:
            self._check_relations_exist(datasets)
        selects = [p for p in self.predicates if isinstance(p, KnnSelect)]
        joins = [p for p in self.predicates if isinstance(p, KnnJoin)]
        ranges = [p for p in self.predicates if isinstance(p, RangeSelect)]

        query_class = plan.query_class
        if query_class == "algebra":
            if self.tree is None:
                raise UnsupportedQueryError("cached algebra plan does not fit this query")
            return self._run_algebra(datasets)
        if query_class == "single-select":
            return self._run_single_select(selects[0], datasets)
        if query_class == "single-range":
            return self._run_single_range(ranges[0], datasets)
        if query_class == "single-join":
            return self._run_single_join(joins[0], datasets)
        if query_class == "two-selects":
            return self._run_two_selects(selects[0], selects[1], datasets, plan)
        if query_class == "select-outer-of-join":
            return self._run_outer_select_join(selects[0], joins[0], datasets)
        if query_class == "select-inner-of-join":
            return self._run_inner_select_join(selects[0], joins[0], datasets, plan)
        if query_class == "range-outer-of-join":
            return self._run_outer_range_join(ranges[0], joins[0], datasets)
        if query_class == "range-inner-of-join":
            return self._run_inner_range_join(ranges[0], joins[0], datasets, plan)
        if query_class == "range-and-knn-select":
            return self._run_range_and_knn_select(ranges[0], selects[0], datasets)
        if query_class == "two-ranges":
            return self._run_two_ranges(ranges[0], ranges[1], datasets)
        if query_class == "chained-joins":
            chained = self._chain_order(joins[0], joins[1])
            if chained is None:
                raise UnsupportedQueryError("cached chained plan does not fit these joins")
            ab, bc = chained
            return self._run_chained(ab, bc, datasets, chained_cache)
        if query_class == "unchained-joins":
            return self._run_unchained(joins[0], joins[1], datasets, plan)
        raise UnsupportedQueryError(f"unknown query class in plan: {query_class!r}")

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _check_relations_exist(self, datasets: Mapping[str, Dataset]) -> None:
        missing = sorted(n for n in self.relations() if n not in datasets)
        if missing:
            raise UnsupportedQueryError(f"datasets missing for relations: {', '.join(missing)}")

    # -- algebra trees --------------------------------------------------
    def _run_algebra(self, datasets: Mapping[str, Dataset]) -> QueryResult:
        """Evaluate the rewritten tree and package its rows canonically.

        The rewrite runs fresh on *this* query's tree (not the cached plan's
        rendering) because plan-cache signatures exclude parameter values —
        two same-shape queries share a plan but not their windows/focals.
        Point results sort by pid, pair/triplet rows by their pid keys;
        aggregates and deeper joins arrive as generic ``records``.
        """
        from repro.algebra.compile import rewritten_tree
        from repro.algebra.evaluate import DatasetContext, evaluate, package_output

        assert self.tree is not None
        optimized, _trail = rewritten_tree(self.tree)
        ctx = DatasetContext(datasets)
        out = evaluate(optimized, ctx)
        node_costs = tuple(
            (node.signature(datasets), cost) for node, cost in out.node_costs.items()
        )
        return QueryResult(
            strategy="algebra-tree",
            query_class="algebra",
            stats=ctx.stats,
            node_costs=node_costs,
            **package_output(out),
        )

    # -- single-predicate queries --------------------------------------
    def _run_single_select(
        self, select: KnnSelect, datasets: Mapping[str, Dataset]
    ) -> QueryResult:
        stats = PruningStats()
        neighborhood = knn_select(
            datasets[select.relation].index, select.focal, select.k, stats=stats
        )
        return QueryResult(
            strategy="knn-select",
            query_class="single-select",
            points=tuple(neighborhood),
            stats=stats,
        )

    def _run_single_range(
        self, predicate: RangeSelect, datasets: Mapping[str, Dataset]
    ) -> QueryResult:
        stats = PruningStats()
        points = range_select(
            datasets[predicate.relation].index, predicate.window, stats=stats
        )
        return QueryResult(
            strategy="range-select",
            query_class="single-range",
            points=tuple(points),
            stats=stats,
        )

    def _run_single_join(self, join: KnnJoin, datasets: Mapping[str, Dataset]) -> QueryResult:
        stats = PruningStats()
        pairs = knn_join_pairs(
            datasets[join.outer].points, datasets[join.inner].index, join.k, stats=stats
        )
        return QueryResult(
            strategy="knn-join",
            query_class="single-join",
            pairs=tuple(pairs),
            stats=stats,
        )

    # -- two selects ----------------------------------------------------
    def _run_two_selects(
        self,
        first: KnnSelect,
        second: KnnSelect,
        datasets: Mapping[str, Dataset],
        plan: PhysicalPlan,
    ) -> QueryResult:
        index = datasets[first.relation].index
        stats = PruningStats()
        if plan.strategy == "two-selects-baseline":
            points = two_knn_selects_baseline(index, first.focal, first.k, second.focal, second.k)
        else:
            points = two_knn_selects_optimized(
                index, first.focal, first.k, second.focal, second.k, stats=stats
            )
        stats.neighborhoods_computed += 2  # both plans rank two neighborhoods
        return QueryResult(
            strategy=plan.strategy,
            query_class="two-selects",
            points=tuple(points),
            stats=stats,
        )

    # -- select + join ----------------------------------------------------
    def _run_outer_select_join(
        self, select: KnnSelect, join: KnnJoin, datasets: Mapping[str, Dataset]
    ) -> QueryResult:
        outer = datasets[join.outer]
        inner = datasets[join.inner]
        stats = PruningStats()
        pairs = outer_select_join_pushdown(
            outer.index, inner.index, select.focal, join.k, select.k, stats=stats
        )
        return QueryResult(
            strategy="outer-select-pushdown",
            query_class="select-outer-of-join",
            pairs=tuple(pairs),
            stats=stats,
        )

    def _run_inner_select_join(
        self,
        select: KnnSelect,
        join: KnnJoin,
        datasets: Mapping[str, Dataset],
        plan: PhysicalPlan,
    ) -> QueryResult:
        outer = datasets[join.outer]
        inner = datasets[join.inner]
        stats = PruningStats()
        strategy = plan.decisions["select_join_strategy"]
        if strategy is SelectJoinStrategy.BASELINE:
            pairs = select_join_baseline(
                outer.points, inner.index, select.focal, join.k, select.k, stats=stats
            )
        elif strategy is SelectJoinStrategy.COUNTING:
            # Columnar fast path: hand Counting the outer store so pruned
            # outer rows are never materialized as point objects.
            pairs = select_join_counting(
                outer.store, inner.index, select.focal, join.k, select.k, stats=stats
            )
        else:
            pairs = select_join_block_marking(
                outer.index, inner.index, select.focal, join.k, select.k, stats=stats
            )
        return QueryResult(
            strategy=strategy.value,
            query_class="select-inner-of-join",
            pairs=tuple(pairs),
            stats=stats,
        )

    # -- range-select combinations (footnote 1) ---------------------------
    def _run_outer_range_join(
        self, predicate: RangeSelect, join: KnnJoin, datasets: Mapping[str, Dataset]
    ) -> QueryResult:
        outer = datasets[join.outer]
        inner = datasets[join.inner]
        stats = PruningStats()
        # Valid push-down: restrict the outer relation before joining.
        selected_outer = range_select(outer.index, predicate.window, stats=stats)
        pairs = knn_join_pairs(selected_outer, inner.index, join.k, stats=stats)
        return QueryResult(
            strategy="outer-range-pushdown",
            query_class="range-outer-of-join",
            pairs=tuple(pairs),
            stats=stats,
        )

    def _run_inner_range_join(
        self,
        predicate: RangeSelect,
        join: KnnJoin,
        datasets: Mapping[str, Dataset],
        plan: PhysicalPlan,
    ) -> QueryResult:
        outer = datasets[join.outer]
        inner = datasets[join.inner]
        stats = PruningStats()
        if plan.strategy == "range-inner-baseline":
            pairs = range_inner_join_baseline(
                outer.points, inner.index, predicate.window, join.k
            )
            stats.neighborhoods_computed += len(outer)  # one getkNN per outer point
        else:
            pairs = range_inner_join_block_marking(
                outer.index, inner.index, predicate.window, join.k, stats=stats
            )
        return QueryResult(
            strategy=plan.strategy,
            query_class="range-inner-of-join",
            pairs=tuple(pairs),
            stats=stats,
        )

    def _run_range_and_knn_select(
        self, predicate: RangeSelect, select: KnnSelect, datasets: Mapping[str, Dataset]
    ) -> QueryResult:
        index = datasets[select.relation].index
        stats = PruningStats()
        neighborhood = knn_select(index, select.focal, select.k, stats=stats)
        return QueryResult(
            strategy="knn-select-then-range-filter",
            query_class="range-and-knn-select",
            points=tuple(neighborhood.within(predicate.window)),
            stats=stats,
        )

    def _run_two_ranges(
        self, first: RangeSelect, second: RangeSelect, datasets: Mapping[str, Dataset]
    ) -> QueryResult:
        index = datasets[first.relation].index
        stats = PruningStats()
        points = intersect_points(
            range_select(index, first.window, stats=stats),
            range_select(index, second.window, stats=stats),
        )
        return QueryResult(
            strategy="range-intersection",
            query_class="two-ranges",
            points=tuple(points),
            stats=stats,
        )

    # -- two joins --------------------------------------------------------
    def _run_chained(
        self,
        ab: KnnJoin,
        bc: KnnJoin,
        datasets: Mapping[str, Dataset],
        chained_cache: MutableMapping[int, Neighborhood] | None,
    ) -> QueryResult:
        a = datasets[ab.outer]
        b = datasets[ab.inner]
        c = datasets[bc.inner]
        stats = PruningStats()
        triplets = chained_joins_nested(
            a.points,
            b.index,
            c.index,
            ab.k,
            bc.k,
            cache=True,
            stats=stats,
            neighborhood_cache=chained_cache,
        )
        # The operator counts only the B→C neighborhoods (its cache-hit
        # metric); the A→B batch costs one more per A point.  Charging it
        # keeps the observed cost in the estimate's units — chained_nested
        # prices |A| + matched-B, so omitting the A side would let a warm
        # shared cache drive the observed EWMA toward zero.
        stats.neighborhoods_computed += len(a)
        return QueryResult(
            strategy="nested-join-cached",
            query_class="chained-joins",
            triplets=tuple(triplets),
            stats=stats,
        )

    def _run_unchained(
        self,
        ab: KnnJoin,
        cb: KnnJoin,
        datasets: Mapping[str, Dataset],
        plan: PhysicalPlan,
    ) -> QueryResult:
        a = datasets[ab.outer]
        c = datasets[cb.outer]
        b = datasets[ab.inner]
        stats = PruningStats()
        if plan.strategy == "unchained-baseline":
            triplets = unchained_joins_baseline(a.points, c.points, b.index, ab.k, cb.k)
            stats.neighborhoods_computed += len(a) + len(c)  # no pruning in the baseline
        else:
            # Map the cached relation name back onto this query's predicate
            # positions; an unknown name falls back to re-derivation.
            first_outer = plan.decisions.get("unchained_first_outer")
            order = None
            if first_outer == ab.outer:
                order = "A"
            elif first_outer == cb.outer:
                order = "C"
            triplets = unchained_joins_auto(
                a.index, c.index, b.index, ab.k, cb.k, stats=stats, order=order
            )
        return QueryResult(
            strategy=plan.strategy,
            query_class="unchained-joins",
            triplets=tuple(triplets),
            stats=stats,
        )
