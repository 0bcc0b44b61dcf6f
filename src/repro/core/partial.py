"""Plan execution: candidate evaluation, parsing, filtering, joining.

Implements the two-phase evaluation of Section 6 — "(i) the query is
compiled into an inclusion expression that computes a super set of the
required result - a set of candidate regions, and (ii) the candidate regions
are further processed to obtain the exact result" — plus the index-assisted
join of Section 5.2 and the full-scan baseline.

All costs are tallied in an :class:`ExecutionStats`: algebra operation
counts, candidate counts, bytes of file text parsed, and database values
built.  Benchmarks read these next to wall-clock numbers.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from repro.algebra.counters import OperationCounters
from repro.algebra.region import Region, RegionSet
from repro.cache import (
    CacheConfig,
    CacheStats,
    CandidateParseMemo,
    ParseFailure,
    ParseOutcome,
)
from repro.cache.config import PARSE_MEMO_SIZE
from repro.core.planner import Plan
from repro.core.translate import Translator
from repro.db.evaluator import NaiveEvaluator
from repro.db.model import Database
from repro.db.query import PathComparison, Query, TrueCondition
from repro.db.values import ObjectValue, Value
from repro.errors import CandidateParseError, ParseError, PlanningError
from repro.index.engine import IndexEngine
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.resilience.warnings import QueryWarning, malformed_region_warning
from repro.schema.parser import ParseNode
from repro.schema.pushdown import AnchoredTrie, InstantiationStats, PathTrie
from repro.schema.structuring import StructuringSchema

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.budget import BudgetMeter


@dataclass
class ExecutionStats:
    """The measured cost of executing one plan."""

    strategy: str = ""
    candidate_regions: int = 0
    result_regions: int = 0
    bytes_parsed: int = 0
    values_built: int = 0
    objects_filtered_out: int = 0
    rows: int = 0
    algebra: OperationCounters = field(default_factory=OperationCounters)
    join_bytes_compared: int = 0
    #: Engine-cache activity attributed to this query (zero when the engine
    #: runs uncached): region-expression cache and candidate-parse memo
    #: hits/misses, and the file bytes a memo hit saved from re-parsing.
    cache_expression_hits: int = 0
    cache_expression_misses: int = 0
    cache_parse_hits: int = 0
    cache_parse_misses: int = 0
    bytes_parse_avoided: int = 0
    #: Structured non-fatal incidents (skipped malformed regions, index
    #: degradation decisions) — :class:`~repro.resilience.QueryWarning`s.
    warnings: list[QueryWarning] = field(default_factory=list)
    #: Candidate regions that failed to re-parse (a subset of
    #: ``objects_filtered_out`` — corruption/staleness signal, not filtering).
    malformed_regions: int = 0

    def merge(self, other: "ExecutionStats") -> None:
        """Fold another execution's counters into this one — every integer
        field and the algebra tally (the gather sums its sources this way;
        ``strategy`` and ``warnings`` are the caller's)."""
        for spec in fields(self):
            value = getattr(other, spec.name)
            if isinstance(value, int):
                setattr(self, spec.name, getattr(self, spec.name) + value)
        self.algebra.merge(other.algebra)

    @property
    def cache_hits(self) -> int:
        return self.cache_expression_hits + self.cache_parse_hits

    @property
    def cache_misses(self) -> int:
        return self.cache_expression_misses + self.cache_parse_misses

    def summary(self) -> str:
        lines = [
            f"strategy:          {self.strategy}",
            f"candidates:        {self.candidate_regions}",
            f"results:           {self.result_regions} regions, {self.rows} rows",
            f"bytes parsed:      {self.bytes_parsed}",
            f"values built:      {self.values_built}",
            f"filtered out:      {self.objects_filtered_out}",
            f"algebra ops:       {self.algebra.total_operations} "
            f"({self.algebra.comparisons} comparisons)",
        ]
        if self.join_bytes_compared:
            lines.append(f"join bytes:        {self.join_bytes_compared}")
        if self.warnings:
            lines.append(f"warnings:          {len(self.warnings)}")
        if self.cache_hits or self.cache_misses:
            lines.append(
                f"cache:             expr {self.cache_expression_hits}h/"
                f"{self.cache_expression_misses}m, parse {self.cache_parse_hits}h/"
                f"{self.cache_parse_misses}m, {self.bytes_parse_avoided} bytes "
                "not reparsed"
            )
        return "\n".join(lines)


@dataclass
class Execution:
    """Rows plus the regions they came from plus the cost tally, and the
    evaluator's digest of each row."""

    rows: list[tuple[Value, ...]]
    regions: RegionSet
    stats: ExecutionStats
    row_hashes: list[int] = field(default_factory=list)


class PlanExecutor:
    """Executes plans against one indexed corpus."""

    def __init__(
        self,
        schema: StructuringSchema,
        index_engine: IndexEngine,
        translator: Translator,
        cache_config: CacheConfig | None = None,
        cache_stats: CacheStats | None = None,
    ) -> None:
        self._schema = schema
        self._engine = index_engine
        self._translator = translator
        self._cache_config = cache_config if cache_config is not None else CacheConfig.disabled()
        self._cache_stats = cache_stats if cache_stats is not None else CacheStats()
        self._parse_memo: CandidateParseMemo | None = (
            CandidateParseMemo(max_entries=PARSE_MEMO_SIZE, stats=self._cache_stats)
            if self._cache_config.enabled
            else None
        )
        #: The parse tree (and its byte cost) of the last planner-chosen
        #: full scan; the corpus is immutable, so one tree serves them all.
        #: Guarded by a lock: concurrent queries on one engine must not
        #: observe a half-assigned memo.
        self._full_scan_tree: tuple[ParseNode, int] | None = None
        self._full_scan_lock = threading.Lock()

    # -- dispatch -----------------------------------------------------------------

    def execute(
        self,
        plan: Plan,
        use_cache: bool = True,
        tracer: "Tracer | NullTracer" = NULL_TRACER,
        meter: "BudgetMeter | None" = None,
        skip_malformed: bool = True,
    ) -> Execution:
        """Execute ``plan``.  ``use_cache=False`` bypasses the parse memo
        and full-scan tree cache (the forced-baseline pipeline uses this so
        baseline measurements always pay the real parsing cost).

        ``meter`` enforces a :class:`~repro.resilience.ResourceBudget`
        inside the operator and candidate-parsing loops
        (:class:`~repro.errors.BudgetExceededError` on breach).
        ``skip_malformed=False`` aborts on a candidate region that fails to
        re-parse (:class:`~repro.errors.CandidateParseError`) instead of
        skipping it with a structured warning.
        """
        expr_hits = self._cache_stats.expression_hits
        expr_misses = self._cache_stats.expression_misses
        with tracer.span("execute") as span:
            execution = self._dispatch(plan, use_cache, tracer, meter, skip_malformed)
            stats = execution.stats
            stats.cache_expression_hits += (
                self._cache_stats.expression_hits - expr_hits
            )
            stats.cache_expression_misses += (
                self._cache_stats.expression_misses - expr_misses
            )
            span.annotate(
                strategy=stats.strategy,
                rows=stats.rows,
                candidate_regions=stats.candidate_regions,
                bytes_parsed=stats.bytes_parsed,
                cache_hits=stats.cache_hits,
                cache_misses=stats.cache_misses,
            )
        return execution

    def _dispatch(
        self,
        plan: Plan,
        use_cache: bool,
        tracer: "Tracer | NullTracer" = NULL_TRACER,
        meter: "BudgetMeter | None" = None,
        skip_malformed: bool = True,
    ) -> Execution:
        if plan.strategy == "empty":
            stats = ExecutionStats(strategy="empty")
            return Execution(rows=[], regions=RegionSet.empty(), stats=stats)
        if plan.strategy == "full-scan":
            return self._execute_full_scan(plan, use_cache, tracer, meter)
        if plan.strategy == "index-join":
            return self._execute_join(plan, use_cache, tracer, meter, skip_malformed)
        if plan.strategy == "index-multi":
            return self._execute_multi(plan, use_cache, tracer, meter, skip_malformed)
        if plan.strategy in ("index-exact", "index-candidates"):
            return self._execute_index(plan, use_cache, tracer, meter, skip_malformed)
        raise PlanningError(f"unknown strategy {plan.strategy!r}")

    def _run_indexed(
        self,
        expression,
        tracer: "Tracer | NullTracer",
        label: str = "index-eval",
        meter: "BudgetMeter | None" = None,
        **span_metrics,
    ):
        """Evaluate a region expression under an ``index-eval`` span with
        per-algebra-operator child spans synthesized from the counters."""
        with tracer.span(label, **span_metrics) as span:
            evaluation = self._engine.run(expression, budget=meter)
            counters = evaluation.counters
            span.annotate(
                regions=len(evaluation.result),
                operations=counters.total_operations,
                comparisons=counters.comparisons,
                regions_out=counters.regions_out,
            )
            for symbol, count in sorted(counters.operations.items()):
                span.add_child(f"op:{symbol}", applications=count)
        return evaluation

    # -- index strategies ------------------------------------------------------------

    def _execute_index(
        self,
        plan: Plan,
        use_cache: bool = True,
        tracer: "Tracer | NullTracer" = NULL_TRACER,
        meter: "BudgetMeter | None" = None,
        skip_malformed: bool = True,
    ) -> Execution:
        stats = ExecutionStats(strategy=plan.strategy)
        assert plan.optimized_expression is not None
        evaluation = self._run_indexed(plan.optimized_expression, tracer, meter=meter)
        stats.algebra = evaluation.counters
        candidates = evaluation.result
        stats.candidate_regions = len(candidates)
        return self._parse_filter_output(
            plan, candidates, stats, exact=plan.exact, use_cache=use_cache,
            tracer=tracer, meter=meter, skip_malformed=skip_malformed,
        )

    def _parse_filter_output(
        self,
        plan: Plan,
        candidates: RegionSet,
        stats: ExecutionStats,
        exact: bool,
        use_cache: bool = True,
        tracer: "Tracer | NullTracer" = NULL_TRACER,
        meter: "BudgetMeter | None" = None,
        skip_malformed: bool = True,
    ) -> Execution:
        """Parse candidate regions, filter if needed, and produce rows."""
        query = plan.query
        trie = self._translator.needed_paths(query)
        parsed = self._parse_candidates(
            query.source_class, candidates, trie, stats, use_cache=use_cache,
            tracer=tracer, meter=meter, skip_malformed=skip_malformed,
        )
        database = Database()
        region_of: dict[int, Region] = {}
        kept_objects: list[ObjectValue] = []
        checker = NaiveEvaluator(Database())  # only used for object_satisfies
        with tracer.span("db-instantiate") as span:
            for region, obj in parsed:
                if not exact and not checker.object_satisfies(query, obj):
                    stats.objects_filtered_out += 1
                    continue
                kept_objects.append(obj)
                region_of[obj.oid] = region
                database.insert(obj)
            span.annotate(
                objects=len(kept_objects),
                filtered_out=stats.objects_filtered_out,
            )
        final_query = query if not exact else Query(
            outputs=query.outputs,
            source_class=query.source_class,
            var=query.var,
            where=query.where if _outputs_need_where(query) else TrueCondition(),
        )
        evaluator = NaiveEvaluator(database)
        with tracer.span("db-evaluate") as span:
            rows = evaluator.evaluate(final_query)
            span.annotate(rows=len(rows))
        stats.rows = len(rows)
        if query.is_identity_select():
            result_regions = RegionSet(
                region_of[row[0].oid]
                for row in rows
                if isinstance(row[0], ObjectValue) and row[0].oid in region_of
            )
        else:
            result_regions = RegionSet(region_of[obj.oid] for obj in kept_objects)
        stats.result_regions = len(result_regions)
        return Execution(rows, result_regions, stats, rows.hashes)

    def _parse_candidates(
        self,
        source_class: str,
        candidates: RegionSet,
        trie: PathTrie,
        stats: ExecutionStats,
        use_cache: bool = True,
        tracer: "Tracer | NullTracer" = NULL_TRACER,
        meter: "BudgetMeter | None" = None,
        skip_malformed: bool = True,
    ) -> list[tuple[Region, ObjectValue]]:
        """Re-parse each candidate region as the source non-terminal and
        instantiate it (restricted to the push-down trie).

        Parses are memoized per ``(source class, region, trie fingerprint)``
        when the engine caches: repeated or overlapping queries skip the
        file bytes entirely (the corpus is immutable, so an outcome can
        never go stale).  Failed parses memoize too.
        """
        with tracer.span("candidate-parse", source=source_class) as parse_span:
            parsed = self._parse_candidate_regions(
                source_class, candidates, trie, stats, use_cache, parse_span,
                meter, skip_malformed,
            )
        return parsed

    def _reject_candidate(
        self,
        error: ParseError,
        region: Region,
        stats: ExecutionStats,
        skip_malformed: bool,
    ) -> None:
        """Account one candidate region that failed to re-parse: skip it
        with a structured warning, or abort the query under a strict
        policy — re-raising with ``position``/``symbol`` preserved."""
        if not skip_malformed:
            raise CandidateParseError.wrap(error, (region.start, region.end)) from error
        stats.objects_filtered_out += 1
        stats.malformed_regions += 1
        stats.warnings.append(malformed_region_warning(error, region))

    def _parse_candidate_regions(
        self,
        source_class: str,
        candidates: RegionSet,
        trie: PathTrie,
        stats: ExecutionStats,
        use_cache: bool,
        parse_span,
        meter: "BudgetMeter | None" = None,
        skip_malformed: bool = True,
    ) -> list[tuple[Region, ObjectValue]]:
        memo = self._parse_memo if use_cache else None
        trie_fingerprint = trie.fingerprint() if memo is not None else None
        parsed: list[tuple[Region, ObjectValue]] = []
        counters = OperationCounters()
        instantiation = InstantiationStats()
        cache_hits_before = stats.cache_parse_hits
        cache_misses_before = stats.cache_parse_misses
        for region in candidates:
            if meter is not None:
                meter.check_deadline()
            memo_key = None
            if memo is not None:
                memo_key = CandidateParseMemo.key(source_class, region, trie_fingerprint)
                outcome = memo.get(memo_key)
                if outcome is not None:
                    stats.cache_parse_hits += 1
                    stats.bytes_parse_avoided += outcome.bytes_cost
                    if outcome.value is not None:
                        parsed.append((region, outcome.value))
                    elif outcome.parse_error is not None:
                        self._reject_candidate(
                            ParseError(
                                outcome.parse_error.message,
                                position=outcome.parse_error.position,
                                symbol=outcome.parse_error.symbol,
                            ),
                            region,
                            stats,
                            skip_malformed,
                        )
                    else:
                        stats.objects_filtered_out += 1
                    continue
                stats.cache_parse_misses += 1
            bytes_before = counters.bytes_scanned
            values_before = instantiation.values_built
            try:
                node = self._schema.parse(
                    self._engine.text,
                    symbol=source_class,
                    start=region.start,
                    end=region.end,
                    counters=counters,
                )
            except ParseError as error:
                # A candidate that fails to re-parse cannot be an answer.
                if memo_key is not None:
                    memo.put(
                        memo_key,
                        ParseOutcome(
                            value=None,
                            bytes_cost=counters.bytes_scanned - bytes_before,
                            values_built=0,
                            parse_error=ParseFailure.of(error),
                        ),
                    )
                self._reject_candidate(error, region, stats, skip_malformed)
                continue
            if meter is not None:
                meter.charge_bytes(counters.bytes_scanned - bytes_before)
            value = self._schema.instantiate(node, needed=trie, stats=instantiation)
            obj = value if isinstance(value, ObjectValue) else None
            if obj is not None:
                parsed.append((region, obj))
            else:
                stats.objects_filtered_out += 1
            if memo_key is not None:
                memo.put(
                    memo_key,
                    ParseOutcome(
                        value=obj,
                        bytes_cost=counters.bytes_scanned - bytes_before,
                        values_built=instantiation.values_built - values_before,
                    ),
                )
        stats.bytes_parsed += counters.bytes_scanned
        stats.values_built += instantiation.values_built
        parse_span.annotate(
            candidates=len(candidates),
            parsed=len(parsed),
            bytes_parsed=counters.bytes_scanned,
            values_built=instantiation.values_built,
            cache_hits=stats.cache_parse_hits - cache_hits_before,
            cache_misses=stats.cache_parse_misses - cache_misses_before,
        )
        return parsed

    # -- multi-variable queries (Section 5.2's join discussion) ----------------------------

    def _execute_multi(
        self,
        plan: Plan,
        use_cache: bool = True,
        tracer: "Tracer | NullTracer" = NULL_TRACER,
        meter: "BudgetMeter | None" = None,
        skip_malformed: bool = True,
    ) -> Execution:
        """Narrow each range variable's extent through the index, parse only
        the surviving candidates, then run the database join loops."""
        stats = ExecutionStats(strategy="index-multi")
        query = plan.query
        database = Database()
        extents_by_var: dict[str, tuple[ObjectValue, ...]] = {}
        region_of: dict[int, Region] = {}
        for source in query.sources:
            expression = plan.per_variable.get(source.var)
            if expression is None:
                candidates = self._engine.instance.get(source.class_name)
                if meter is not None:
                    meter.charge_regions(len(candidates))
            else:
                evaluation = self._run_indexed(
                    expression, tracer, variable=source.var, meter=meter
                )
                stats.algebra.merge(evaluation.counters)
                candidates = evaluation.result
            stats.candidate_regions += len(candidates)
            trie = self._translator.needed_paths(query, var=source.var)
            parsed = self._parse_candidates(
                source.class_name, candidates, trie, stats, use_cache=use_cache,
                tracer=tracer, meter=meter, skip_malformed=skip_malformed,
            )
            objects = []
            with tracer.span("db-instantiate", variable=source.var) as span:
                for region, obj in parsed:
                    database.insert(obj)
                    region_of[obj.oid] = region
                    objects.append(obj)
                span.annotate(objects=len(objects))
            extents_by_var[source.var] = tuple(objects)
        evaluator = NaiveEvaluator(database, extents_by_var=extents_by_var)
        with tracer.span("db-evaluate") as span:
            rows = evaluator.evaluate(query)
            span.annotate(rows=len(rows))
        stats.rows = len(rows)
        result_regions = RegionSet.empty()
        if query.is_identity_select():
            result_regions = RegionSet(
                region_of[row[0].oid]
                for row in rows
                if isinstance(row[0], ObjectValue) and row[0].oid in region_of
            )
        stats.result_regions = len(result_regions)
        return Execution(rows, result_regions, stats, rows.hashes)

    # -- the index-assisted join (Section 5.2) --------------------------------------------

    def _execute_join(
        self,
        plan: Plan,
        use_cache: bool = True,
        tracer: "Tracer | NullTracer" = NULL_TRACER,
        meter: "BudgetMeter | None" = None,
        skip_malformed: bool = True,
    ) -> Execution:
        stats = ExecutionStats(strategy="index-join")
        query = plan.query
        join = plan.join_condition
        assert join is not None
        source = query.source_class
        left = self._endpoint_regions(
            source, join, side="left", stats=stats, tracer=tracer, meter=meter
        )
        right = self._endpoint_regions(
            source, join, side="right", stats=stats, tracer=tracer, meter=meter
        )
        if left is None or right is None:
            # The endpoints cannot be located exactly through the index;
            # fall back to candidate filtering over the structural narrowing.
            assert plan.optimized_expression is not None
            evaluation = self._run_indexed(plan.optimized_expression, tracer, meter=meter)
            stats.algebra.merge(evaluation.counters)
            stats.candidate_regions = len(evaluation.result)
            stats.strategy = "index-join(fallback)"
            return self._parse_filter_output(
                plan, evaluation.result, stats, exact=False, use_cache=use_cache,
                tracer=tracer, meter=meter, skip_malformed=skip_malformed,
            )
        left_regions, left_exact = left
        right_regions, right_exact = right
        sources = self._engine.instance.get(source)
        with tracer.span("join-compare") as span:
            left_texts = self._texts_by_source(sources, left_regions, stats)
            right_texts = self._texts_by_source(sources, right_regions, stats)
            qualifying = [
                region
                for region in sources
                if left_texts.get(region) and right_texts.get(region)
                and left_texts[region] & right_texts[region]
            ]
            span.annotate(
                sources=len(sources),
                qualifying=len(qualifying),
                bytes_compared=stats.join_bytes_compared,
            )
        candidates = RegionSet(qualifying)
        stats.candidate_regions = len(candidates)
        exact = left_exact and right_exact
        return self._parse_filter_output(
            plan, candidates, stats, exact=exact, use_cache=use_cache,
            tracer=tracer, meter=meter, skip_malformed=skip_malformed,
        )

    def _endpoint_regions(
        self,
        source: str,
        join: PathComparison,
        side: str,
        stats: ExecutionStats,
        tracer: "Tracer | NullTracer" = NULL_TRACER,
        meter: "BudgetMeter | None" = None,
    ) -> tuple[RegionSet, bool] | None:
        """Locate the regions of one join side's endpoint attribute.

        Returns ``(regions, exact)`` where ``exact`` means "region text
        equals the attribute value and the path context is unambiguous"."""
        path = join.left if side == "left" else join.right
        resolved = self._translator.translate_path(source, path, word=None)
        if resolved.expression is None:
            return None
        endpoint = self._translator.endpoint_chain(source, path)
        if endpoint is None:
            return None
        expression, exact = endpoint
        evaluation = self._run_indexed(expression, tracer, side=side, meter=meter)
        stats.algebra.merge(evaluation.counters)
        return evaluation.result, exact

    def _texts_by_source(
        self, sources: RegionSet, endpoints: RegionSet, stats: ExecutionStats
    ) -> dict[Region, set[str]]:
        """Group endpoint-region texts by their enclosing source region —
        "the content of the regions is then loaded into the database"."""
        texts: dict[Region, set[str]] = defaultdict(set)
        for source_region in sources:
            for endpoint in endpoints.iter_included_in(source_region):
                content = self._engine.region_text(endpoint).strip()
                stats.join_bytes_compared += len(endpoint)
                texts[source_region].add(content)
        return dict(texts)

    # -- the baseline ----------------------------------------------------------------------

    def _execute_full_scan(
        self,
        plan: Plan,
        use_cache: bool = True,
        tracer: "Tracer | NullTracer" = NULL_TRACER,
        meter: "BudgetMeter | None" = None,
    ) -> Execution:
        stats = ExecutionStats(strategy="full-scan")
        query = plan.query
        with tracer.span("full-scan-parse") as span:
            tree = self._full_scan_parse(stats, use_cache, meter)
            span.annotate(
                bytes_parsed=stats.bytes_parsed,
                bytes_parse_avoided=stats.bytes_parse_avoided,
            )
        if meter is not None:
            meter.check_deadline()
        instantiation = InstantiationStats()
        if query.is_single_source():
            # The query trie is rooted at the source class; instantiation
            # starts at the grammar root, so anchor it (outer structure kept).
            trie = AnchoredTrie(
                anchor=query.source_class, inner=self._translator.needed_paths(query)
            )
        else:
            # Multi-variable scans build the full image (each class would
            # need its own anchor; correctness over cleverness here).
            trie = PathTrie.everything()
        spans_by_oid: dict[int, tuple[int, int]] = {}
        with tracer.span("db-instantiate") as span:
            root = self._schema.instantiate(
                tree, needed=trie, stats=instantiation, spans=spans_by_oid
            )
            stats.values_built = instantiation.values_built
            database = Database()
            database.load_value(root)
            span.annotate(values_built=stats.values_built)
        evaluator = NaiveEvaluator(database)
        with tracer.span("db-evaluate") as span:
            rows = evaluator.evaluate(query)
            span.annotate(rows=len(rows))
        stats.rows = len(rows)
        stats.candidate_regions = len(database.extent(query.source_class))
        # Map qualifying objects back to their parse regions for parity with
        # the index strategies.  Each object's span was recorded when it was
        # instantiated — no assumption that the parse-tree walk order matches
        # the extent's insertion order.
        regions: list[Region] = []
        if query.is_identity_select():
            qualifying = {
                row[0].oid for row in rows if isinstance(row[0], ObjectValue)
            }
            for oid in qualifying:
                span = spans_by_oid.get(oid)
                if span is not None:
                    regions.append(Region(span[0], span[1]))
            stats.objects_filtered_out = stats.candidate_regions - len(qualifying)
        result_regions = RegionSet(regions)
        stats.result_regions = len(result_regions)
        return Execution(rows, result_regions, stats, rows.hashes)

    def _full_scan_parse(
        self,
        stats: ExecutionStats,
        use_cache: bool,
        meter: "BudgetMeter | None" = None,
    ) -> ParseNode:
        """Parse the whole corpus, reusing the cached tree when allowed.

        The corpus never changes after indexing, so one tree serves every
        planner-chosen full scan.  The forced baseline (``use_cache=False``)
        always re-parses — its measurements must reflect real work.
        Concurrent queries serialize on the memo lock so the expensive parse
        happens once and a half-assigned tuple is never observed.
        """
        cache_tree = use_cache and self._cache_config.enabled
        with self._full_scan_lock:
            if cache_tree and self._full_scan_tree is not None:
                tree, byte_cost = self._full_scan_tree
                stats.cache_parse_hits += 1
                stats.bytes_parse_avoided += byte_cost
                self._cache_stats.parse_hits += 1
                self._cache_stats.bytes_parse_avoided += byte_cost
                return tree
            counters = OperationCounters()
            tree = self._schema.parse(self._engine.text, counters=counters)
            stats.bytes_parsed = counters.bytes_scanned
            if meter is not None:
                meter.charge_bytes(counters.bytes_scanned)
            if cache_tree:
                stats.cache_parse_misses += 1
                self._cache_stats.parse_misses += 1
                self._full_scan_tree = (tree, counters.bytes_scanned)
            return tree


def _outputs_need_where(query: Query) -> bool:
    """Variable-using outputs need WHERE bindings even on exact plans."""
    return any(output.has_variables() for output in query.outputs)
