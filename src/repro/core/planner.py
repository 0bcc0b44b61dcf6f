"""Query planning: choosing an execution strategy.

Strategies, in order of preference:

- ``empty``            — the translated expression is trivially empty
                         (Proposition 3.3) or statically unsatisfiable;
- ``index-project``    — an exact selection projected to one atomic
                         attribute ``r.p`` whose endpoint chain is exact
                         (Section 5: ``p ⊂d ... ⊂d r``): the values are read
                         off the endpoint regions inside the selected ones,
                         and nothing is parsed;
- ``index-exact``      — the optimized expression computes exactly the
                         qualifying source regions (full indexing, or partial
                         indexing meeting Section 6.3's condition); only the
                         answer regions are parsed;
- ``index-join``       — a path-to-path comparison: inside each source
                         region of the structural narrowing, both sides'
                         endpoint chains (planned once, optimized like the
                         projection's) locate the attribute regions whose
                         *contents* are joined (Section 5.2); a join whose
                         endpoints the index cannot locate plans
                         ``index-candidates`` over the same narrowing;
- ``index-candidates`` — the expression computes a candidate superset; the
                         candidates are parsed with the query pushed into
                         instantiation, then filtered (Section 6.2);
- ``full-scan``        — the baseline: parse the whole corpus and evaluate
                         in the database.

Selections and endpoint chains come from one translator rule
(:meth:`~repro.core.translate.Translator._index_chain`): a gap without a
star is direct inclusion only where it finds the path's regions on every
instance, and simple inclusion, a superset, elsewhere; so ``exact`` on a
plan is never a guess.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.algebra.ast import RegionExpr
from repro.cache import CacheStats
from repro.core.optimizer import OptimizationTrace, optimize
from repro.core.translate import TranslatedCondition, Translator
from repro.core.triviality import is_trivially_empty
from repro.db.parser import parse_query
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.db.query import (
    PathComparison,
    Query,
    condition_range_variables,
    conjoin,
    split_conjuncts,
)
from repro.rig.graph import RegionInclusionGraph


@dataclass
class Plan:
    """An executable plan for one query."""

    strategy: str
    query: Query
    translated: TranslatedCondition | None = None
    raw_expression: RegionExpr | None = None
    optimized_expression: RegionExpr | None = None
    trace: OptimizationTrace = field(default_factory=OptimizationTrace)
    exact: bool = False
    #: Multi-variable plans: one structural narrowing expression per range
    #: variable (``None`` entry = no narrowing, take the whole extent).
    per_variable: dict[str, RegionExpr | None] = field(default_factory=dict)
    #: ``index-project`` plans: the (optimized) chain locating the output
    #: attribute's endpoint regions, rooted at the source class.
    projection: RegionExpr | None = None
    #: ``index-join`` plans: the (optimized) endpoint chains of the join's
    #: left and right paths, rooted at the source class.
    join_chains: tuple[RegionExpr, RegionExpr] | None = None
    notes: list[str] = field(default_factory=list)


class Planner:
    """Turns queries into plans for one translator + RIG.

    Everything a plan's execution needs from the translator is computed
    here, once per plan: the selection, a projection's endpoint chain and
    both endpoint chains of a join, each optimized.

    ``optimize_expressions=False`` disables the Section 3.2 rewriting —
    translated expressions run as-is.  This exists purely for ablation
    measurements (benchmark E10); answers are unaffected (Theorem 3.6's
    equivalence), only costs change.
    """

    def __init__(
        self,
        translator: Translator,
        optimize_expressions: bool = True,
        plan_cache_size: int = 0,
        cache_stats: CacheStats | None = None,
    ) -> None:
        self._translator = translator
        self._rig = translator.effective_rig()
        self._optimize = optimize_expressions
        #: LRU of plans for *textual* queries (keyed by the raw query text).
        #: Plans are read-only to the executor, so one plan object can serve
        #: every repetition of the same query.  Size 0 disables the cache.
        #: Guarded by a lock: concurrent queries on one engine share it.
        self._plan_cache_size = plan_cache_size
        self._plan_cache: OrderedDict[str, Plan] = OrderedDict()
        self._plan_cache_lock = threading.Lock()
        self._cache_stats = cache_stats if cache_stats is not None else CacheStats()

    @property
    def translator(self) -> Translator:
        return self._translator

    @property
    def rig(self) -> RegionInclusionGraph:
        return self._rig

    def plan(
        self, query: Query | str, tracer: "Tracer | NullTracer" = NULL_TRACER
    ) -> Plan:
        with tracer.span("plan") as plan_span:
            plan = self._plan_traced(query, tracer, plan_span)
            plan_span.annotate(strategy=plan.strategy)
        return plan

    def invalidate_plan_cache(self) -> int:
        """Drop every cached plan; returns how many were dropped."""
        with self._plan_cache_lock:
            dropped = len(self._plan_cache)
            self._plan_cache.clear()
        return dropped

    def _plan_traced(self, query: Query | str, tracer, plan_span) -> Plan:
        cache_key: str | None = None
        if isinstance(query, str):
            if self._plan_cache_size > 0:
                with self._plan_cache_lock:
                    cached = self._plan_cache.get(query)
                    if cached is not None:
                        self._plan_cache.move_to_end(query)
                        self._cache_stats.plan_hits += 1
                    else:
                        self._cache_stats.plan_misses += 1
                        cache_key = query
                if cached is not None:
                    plan_span.annotate(plan_cache="hit")
                    return cached
                plan_span.annotate(plan_cache="miss")
            with tracer.span("parse-query"):
                query = parse_query(query)
        plan = self._plan_parsed(query, tracer)
        if cache_key is not None:
            with self._plan_cache_lock:
                self._plan_cache[cache_key] = plan
                while len(self._plan_cache) > self._plan_cache_size:
                    self._plan_cache.popitem(last=False)
        return plan

    def _plan_parsed(
        self, query: Query, tracer: "Tracer | NullTracer" = NULL_TRACER
    ) -> Plan:
        if not query.is_single_source():
            return self._plan_multi(query, tracer)
        with tracer.span("translate") as span:
            translated = self._translator.translate_query(query)
            span.annotate(exact=translated.exact, never=translated.never)
        if translated.never:
            return Plan(
                strategy="empty",
                query=query,
                translated=translated,
                exact=True,
                notes=translated.notes + ["statically unsatisfiable"],
            )
        if translated.expression is None:
            return Plan(
                strategy="full-scan",
                query=query,
                translated=translated,
                notes=translated.notes + ["no index support: scanning the corpus"],
            )
        trace = OptimizationTrace()
        if self._optimize:
            with tracer.span("optimize") as span:
                optimized = optimize(translated.expression, self._rig, trace, tracer)
                span.annotate(rewrites=trace.rewrite_count)
        else:
            optimized = translated.expression
        if is_trivially_empty(optimized, self._rig):
            return Plan(
                strategy="empty",
                query=query,
                translated=translated,
                raw_expression=translated.expression,
                optimized_expression=optimized,
                trace=trace,
                exact=True,
                notes=translated.notes
                + ["expression is trivially empty on every instance (Prop. 3.3)"],
            )
        join = self._join_condition(query)
        notes = list(translated.notes)
        if join is not None:
            sides = {"left": join.left, "right": join.right}
            chains = {
                side: self._translator.endpoint_chain(query.source_class, path)
                for side, path in sides.items()
            }
            if None not in chains.values():
                return Plan(
                    strategy="index-join",
                    query=query,
                    translated=translated,
                    raw_expression=translated.expression,
                    optimized_expression=optimized,
                    trace=trace,
                    exact=all(exact for _, exact in chains.values()),
                    join_chains=tuple(
                        self._optimize_chain(chain, tracer, join=side)
                        for side, (chain, _) in chains.items()
                    ),
                    notes=notes,
                )
            notes.append("join endpoints not located through the index: candidates filtered")
        plan = Plan(
            strategy="index-exact" if translated.exact else "index-candidates",
            query=query,
            translated=translated,
            raw_expression=translated.expression,
            optimized_expression=optimized,
            trace=trace,
            exact=translated.exact,
            notes=notes,
        )
        chain = self._translator.projection_chain(query) if translated.exact else None
        if chain is not None:
            plan.projection = self._optimize_chain(chain, tracer, projection=True)
            plan.strategy = "index-project"
        return plan

    def _optimize_chain(self, chain: RegionExpr, tracer, **span_metrics) -> RegionExpr:
        """Optimize an endpoint chain under its own ``optimize`` span."""
        if not self._optimize:
            return chain
        with tracer.span("optimize", **span_metrics):
            return optimize(chain, self._rig, tracer=tracer)

    def _plan_multi(
        self, query: Query, tracer: "Tracer | NullTracer" = NULL_TRACER
    ) -> Plan:
        """Plan a multi-variable query (Section 5.2's join discussion).

        Each variable's single-variable conjuncts translate to a structural
        narrowing over its class; cross-variable conjuncts are evaluated in
        the database over the narrowed extents.  If any class is unindexed,
        the whole query falls back to the scan pipeline.
        """
        conjuncts = split_conjuncts(query.where)
        per_variable: dict[str, RegionExpr | None] = {}
        notes: list[str] = []
        for source in query.sources:
            if source.class_name not in self._translator.indexed_names:
                return Plan(
                    strategy="full-scan",
                    query=query,
                    notes=[f"class {source.class_name!r} is not indexed"],
                )
            own = [
                conjunct
                for conjunct in conjuncts
                if condition_range_variables(conjunct) == {source.var}
            ]
            if not own:
                per_variable[source.var] = None
                continue
            with tracer.span("translate", variable=source.var):
                translated = self._translator.translate_condition_for(
                    conjoin(own), source.class_name
                )
            if translated.never:
                return Plan(
                    strategy="empty",
                    query=query,
                    exact=True,
                    notes=translated.notes + [f"{source.var}: statically unsatisfiable"],
                )
            if translated.expression is None:
                per_variable[source.var] = None
                notes.extend(translated.notes)
                continue
            trace = OptimizationTrace()
            if self._optimize:
                with tracer.span("optimize", variable=source.var) as span:
                    optimized = optimize(
                        translated.expression, self._rig, trace, tracer
                    )
                    span.annotate(rewrites=trace.rewrite_count)
            else:
                optimized = translated.expression
            if is_trivially_empty(optimized, self._rig):
                return Plan(
                    strategy="empty",
                    query=query,
                    exact=True,
                    notes=[f"{source.var}: trivially empty narrowing (Prop. 3.3)"],
                )
            per_variable[source.var] = optimized
            notes.extend(translated.notes)
        return Plan(
            strategy="index-multi",
            query=query,
            per_variable=per_variable,
            exact=False,
            notes=notes,
        )

    def _join_condition(self, query: Query) -> PathComparison | None:
        """Use the join strategy only for a lone equality path comparison."""
        where = query.where
        if isinstance(where, PathComparison) and where.op == "=":
            if not where.left.has_variables() and not where.right.has_variables():
                return where
        return None
