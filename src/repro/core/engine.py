"""The public facade: :class:`FileQueryEngine`.

Ties everything together the way the paper's system does:

1. a structuring schema maps the file(s) to a database view (Section 4);
2. an index configuration decides which regions/words get indexed
   (Sections 5–7);
3. queries in the XSQL subset are translated to region expressions,
   optimized against the derived RIG, evaluated on the index engine, and —
   when the indexes are not sufficient for full computation — completed by
   parsing just the candidate regions (Section 6).

Example
-------
>>> from repro.workloads.bibtex import bibtex_schema, generate_bibtex
>>> schema = bibtex_schema()
>>> engine = FileQueryEngine(schema, generate_bibtex(entries=50, seed=1))
>>> result = engine.query(
...     'SELECT r FROM Reference r '
...     'WHERE r.Authors.Name.Last_Name = "Chang"')
>>> result.stats.strategy
'index-exact'
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.algebra.counters import OperationCounters
from repro.algebra.region import Instance, RegionSet
from repro.api import StatsResponse
from repro.cache import CacheConfig, CacheStats
from repro.cache.config import PLAN_CACHE_SIZE
from repro.core.partial import Execution, ExecutionStats, PlanExecutor
from repro.core.planner import Plan, Planner
from repro.core.translate import Translator
from repro.db.model import Database
from repro.db.parser import parse_query
from repro.db.query import Query
from repro.db.values import Value, canonical_row
from repro.errors import (
    BudgetExceededError,
    IndexCorruptError,
    IndexNotFoundError,
    IndexStaleError,
    RegionIndexError,
)
from repro.index.builder import build_engine
from repro.index.config import IndexConfig
from repro.index.engine import IndexEngine
from repro.index.stats import IndexStatistics
from repro.obs.analyze import Analysis, build_node_table
from repro.obs.hooks import HookRegistry
from repro.obs.stats import QueryStats
from repro.obs.trace import NULL_TRACER, NullTracer, SpanHook, Trace, Tracer
from repro.resilience.budget import ResourceBudget
from repro.resilience.policy import FULL_SCAN, RAISE, REBUILD, DegradationPolicy
from repro.resilience.warnings import (
    BUDGET_DEGRADED,
    DEGRADED_FULL_SCAN,
    INDEX_CORRUPT,
    INDEX_MISSING,
    INDEX_REBUILT,
    INDEX_STALE,
    STALE_STAGING_REMOVED,
    QueryWarning,
)
from repro.schema.structuring import StructuringSchema
from repro.text.document import Corpus


@dataclass
class QueryResult:
    """Rows, the plan, the statistics and the trace of one answer.

    Every answer's ``stats`` is a :class:`~repro.obs.stats.QueryStats`.
    One corpus's answer also carries its source ``regions``; an answer
    merged over several sources (:class:`~repro.shard.ShardedEngine`)
    holds each source's record in ``stats.shards``.  ``row_hashes`` holds
    each row's digest (:class:`~repro.db.evaluator.Rows`), in row order."""

    rows: list[tuple[Value, ...]]
    plan: Plan | None
    stats: QueryStats
    regions: RegionSet | None = None
    trace: Trace | None = None
    row_hashes: list[int] = field(default_factory=list)

    @property
    def shard_results(self) -> "dict[str, QueryResult]":
        """Each healthy source's own answer, by source name (empty for a
        single corpus's answer)."""
        return {
            record.shard: record.result
            for record in self.stats.shards
            if record.result is not None
        }

    @property
    def warnings(self) -> list[QueryWarning]:
        """Structured non-fatal incidents: degradation decisions taken while
        loading the engine or executing this query, malformed regions
        skipped under a tolerant policy, failed or skipped sources."""
        return self.stats.warnings

    @property
    def values(self) -> list[Value]:
        """First column of every row (convenience for single-output queries)."""
        return [row[0] for row in self.rows]

    def canonical_rows(self) -> set[tuple]:
        """Identity-free row representations, for comparing strategies."""
        return set(map(canonical_row, self.rows))

    def __len__(self) -> int:
        return len(self.rows)


class EngineBase:
    """What an engine answers besides rows, written once.

    The paper has one pipeline; shards, live deltas and replicas are
    deployment layers around it.  So the three engines differ only in how
    they run a query (``query``), which loaded single-corpus engines hold
    the indexes (``_engines``) and how they describe themselves
    (``_index_summary``, ``_backend``, ``_roster``); ``explain``,
    ``analyze`` and ``stats`` — the rest of the
    :class:`~repro.api.QueryBackend` surface — derive from those here.
    """

    # -- what a subclass supplies -------------------------------------------------

    def _engines(self, load: bool = False) -> "list[FileQueryEngine]":
        """The loaded single-corpus engines behind this one, in shard order
        (``load=True``: load one if none is loaded yet)."""
        raise NotImplementedError

    def _index_summary(self) -> dict:
        raise NotImplementedError

    def _backend(self) -> dict:
        """The ``backend`` descriptor of :meth:`stats`: what kind of engine
        answered, and its roster/health state."""
        raise NotImplementedError

    def _roster(self) -> list[str]:
        """Extra :meth:`explain` lines describing the shard roster."""
        return []

    # -- the shared surface -------------------------------------------------------

    def plan(self, query: Query | str) -> Plan:
        """Plan a query without executing it (on the first loadable shard:
        every shard shares the schema and index configuration)."""
        return self._engines(load=True)[0].planner.plan(query)

    def explain(self, query: "QueryResult | Query | str") -> str:
        """A human-readable account of the plan for a query, including the
        engine's cache state and, for sharded engines, the shard roster.
        Accepts an executed result (its plan is reused), query text or a
        parsed :class:`Query`."""
        from repro.core.explain import explain_plan

        plan = self.plan(query) if isinstance(query, (str, Query)) else query.plan
        described = explain_plan(plan, cache=self.cache_description())
        return "\n".join([described, *self._roster()])

    def analyze(
        self,
        query: "QueryResult | Query | str",
        budget: ResourceBudget | None = None,
    ) -> Analysis:
        """EXPLAIN ANALYZE: execute the query under ``budget`` (or reuse an
        executed result) and pair the static cost-model estimates and cold
        cardinality estimates (:mod:`repro.core.cost`) with measured
        actuals — per-stage wall-time/bytes from the trace, per-plan-node
        timing and region counts from an instrumented evaluation on one
        healthy loaded index, and for sharded engines the per-shard stats.
        """
        if isinstance(query, (str, Query)):
            result = self.query(query, budget=budget)
        else:
            result = query
        plan = result.plan
        if plan is None:
            # Every healthy shard ran degraded (local full-scan plans);
            # report the plan the degraded engines actually used.
            plan = next(iter(result.shard_results.values())).plan
        nodes = []
        engine = next((e for e in self._engines() if not e.degraded), None)
        if plan.optimized_expression is not None and engine is not None:
            # Re-run the expression with per-node instrumentation, bypassing
            # the shared result cache so every node's cost is measured.
            node_log: dict = {}
            engine.index.run(
                plan.optimized_expression, node_log=node_log, use_cache=False
            )
            nodes = build_node_table(
                plan.optimized_expression, node_log, engine.index.instance
            )
        return Analysis(
            plan=plan,
            stats=result.stats,
            nodes=nodes,
            trace=result.trace,
            cache=self.cache_description(),
        )

    def stats(self) -> StatsResponse:
        """Index statistics, cache configuration + lifetime activity summed
        over the engines loaded so far and the ``backend`` descriptor — one
        wire-ready object shared by the CLI's ``stats --json`` and the
        server's ``GET /stats``."""
        engines = self._engines()
        return StatsResponse(
            index=self._index_summary(),
            cache_config=self._cache_config(engines),
            cache=self._cache_totals(engines).to_dict(),
            backend=self._backend(),
        )

    def replica_health(self) -> list[dict] | None:
        """Per-replica health of every replicated shard, as served under
        ``replicas`` in ``GET /healthz`` (``[]``: no shard is replicated;
        ``None``: this engine has no shard roster)."""
        return self._backend().get("replica_health")

    def _cache_config(self, engines: "list[FileQueryEngine]") -> str:
        if not engines:
            return "no shard engines loaded yet"
        described = engines[0].cache_config.describe()
        if engines == [self]:  # a single-corpus engine describes itself
            return described
        return f"{described} x{len(engines)} shard(s)"

    @staticmethod
    def _cache_totals(engines: "list[FileQueryEngine]") -> CacheStats:
        totals = CacheStats()
        for engine in engines:
            for counter, value in vars(engine.cache_stats).items():
                setattr(totals, counter, getattr(totals, counter) + value)
        return totals

    def cache_description(self) -> str:
        """One line: cache configuration plus lifetime hit/miss totals over
        the engines loaded so far."""
        engines = self._engines()
        stats = self._cache_totals(engines)
        return (
            f"{self._cache_config(engines)}; "
            f"expr {stats.expression_hits}h/{stats.expression_misses}m, "
            f"parse {stats.parse_hits}h/{stats.parse_misses}m, "
            f"plan {stats.plan_hits}h/{stats.plan_misses}m, "
            f"{stats.bytes_parse_avoided} bytes not reparsed"
        )


class FileQueryEngine(EngineBase):
    """Query files through their database view, via text indexes."""

    def __init__(
        self,
        schema: StructuringSchema,
        corpus: Corpus | str | IndexEngine,
        config: IndexConfig | None = None,
        cache_config: CacheConfig | None = None,
        tracing: bool = True,
        policy: DegradationPolicy | None = None,
        budget: ResourceBudget | None = None,
    ) -> None:
        """Parse and index ``corpus`` under ``config``.  :meth:`from_saved`
        passes an already loaded (or, degraded, an empty)
        :class:`~repro.index.engine.IndexEngine` in its place: it is adopted
        as is — nothing is parsed and ``config`` is the index's own."""
        self.schema = schema
        self.corpus: Corpus | None = corpus if isinstance(corpus, Corpus) else None
        self.cache_config = cache_config if cache_config is not None else CacheConfig()
        self.cache_stats = CacheStats()
        self.tracing = tracing
        self.policy = policy if policy is not None else DegradationPolicy()
        self.budget = budget
        self._span_hooks = HookRegistry()
        self._load_warnings: list[QueryWarning] = []
        self._load_degradation: dict | None = None
        self.index_build_bytes = 0
        if isinstance(corpus, IndexEngine):
            self.index = corpus
        else:
            text = corpus.text if isinstance(corpus, Corpus) else corpus
            build_counters = OperationCounters()
            tree = schema.parse(text, counters=build_counters)
            self.index_build_bytes = build_counters.bytes_scanned
            self.index = build_engine(
                text,
                tree,
                config if config is not None else IndexConfig.full(),
                root=schema.grammar.start,
                known_names=schema.grammar.nonterminals,
            )
        self.text = self.index.text
        self.config = self.index.config

        # The corpus is immutable once indexed, so every cache layer (region
        # expressions, candidate parses, plans) is sound for the engine's
        # lifetime; ``CacheConfig.disabled()`` turns them all off.
        self.index.configure_cache(self.cache_config, stats=self.cache_stats)
        self.translator = Translator(
            self.schema, self.config, has_word_index=self.index.word_index is not None
        )
        self.planner = Planner(
            self.translator,
            plan_cache_size=PLAN_CACHE_SIZE if self.cache_config.enabled else 0,
            cache_stats=self.cache_stats,
        )
        self._executor = PlanExecutor(
            self.schema,
            self.index,
            cache_config=self.cache_config,
            cache_stats=self.cache_stats,
        )

    # -- persistence ------------------------------------------------------------------

    def save(
        self,
        directory: str,
        source_path: str | os.PathLike[str] | None = None,
        live: dict | None = None,
        replicas: int | None = None,
    ) -> None:
        """Persist the built indexes (see :mod:`repro.index.persist`).

        The structuring schema's fingerprint is stored alongside, so a later
        ``from_saved`` under a different schema fails loudly instead of
        silently answering wrongly.  ``source_path`` (optional) records the
        original file's identity next to the corpus content hash, enabling
        staleness detection at load time.  ``live`` (optional) attaches
        live-ingestion manifest state; ``replicas`` (optional) writes N
        sibling copies in the replicated layout (see
        :func:`~repro.index.persist.save_index`).
        """
        from repro.index.persist import save_index, schema_fingerprint

        save_index(
            self.index,
            directory,
            schema_fingerprint=schema_fingerprint(self.schema),
            source_path=source_path,
            live=live,
            replicas=replicas,
        )

    @classmethod
    def from_saved(
        cls,
        schema: StructuringSchema,
        directory: str,
        cache_config: CacheConfig | None = None,
        tracing: bool = True,
        policy: DegradationPolicy | None = None,
        budget: ResourceBudget | None = None,
        source_text: str | None = None,
        source_path: str | os.PathLike[str] | None = None,
    ) -> "FileQueryEngine":
        """Load a persisted engine, skipping the corpus re-parse.

        Integrity and staleness failures are typed
        (:class:`~repro.errors.IndexNotFoundError` /
        :class:`~repro.errors.IndexCorruptError` /
        :class:`~repro.errors.IndexStaleError`) and handled per the
        :class:`~repro.resilience.DegradationPolicy`: raise, serve every
        query through the cached full-scan pipeline, or rebuild the index
        from the best surviving text.  ``source_text``/``source_path``
        provide the *current* source for staleness checks and recovery.
        The directory's copies are opened through
        :meth:`~repro.shard.replica.ReplicaSet.load_under`: a plain
        directory directly, a replicated root (``repro index --replicas
        N``) by routing to its first healthy copy like a replicated shard.

        Always raises :class:`~repro.errors.RegionIndexError` when the saved
        index was built with a different structuring schema (region names
        would bind to the wrong grammar and yield wrong answers) — no
        policy degrades past that.  Indexes saved before fingerprints
        existed load without the check.
        """
        from repro.shard.replica import ReplicaSet

        options = dict(
            cache_config=cache_config,
            tracing=tracing,
            budget=budget,
        )
        return ReplicaSet.open(directory).load_under(
            policy if policy is not None else DegradationPolicy(),
            lambda path, copy_policy: cls._load_copy(
                schema, path, copy_policy, source_text, source_path, **options
            ),
        ).value

    @classmethod
    def _load_copy(
        cls,
        schema: StructuringSchema,
        directory: str,
        policy: DegradationPolicy,
        source_text: str | None = None,
        source_path: str | os.PathLike[str] | None = None,
        **options,
    ) -> "FileQueryEngine":
        """Open the one saved index at ``directory`` (a single copy, see
        :meth:`from_saved`) under ``policy``."""
        from repro.index.persist import (
            load_index,
            load_schema_fingerprint,
            schema_fingerprint,
            stale_reason,
            sweep_stale_staging,
        )

        load_warnings = [
            QueryWarning(
                STALE_STAGING_REMOVED,
                f"removed orphaned staging directory {orphan}",
                detail={"path": orphan, "index": str(directory)},
            )
            for orphan in sweep_stale_staging(directory)
        ]

        def recover(error: RegionIndexError, action: str, code: str) -> "FileQueryEngine":
            if action == RAISE:
                raise error
            fresh_only = code == INDEX_STALE  # a stale index's saved corpus is wrong
            text = cls._recover_text(
                directory, error, source_text, source_path, fresh_only=fresh_only
            )
            if text is None:
                raise error
            if action == REBUILD:
                engine = cls(schema, text, policy=policy, **options)
                outcome = QueryWarning(
                    INDEX_REBUILT,
                    f"index rebuilt from source text after {code}",
                    detail={"path": str(directory)},
                )
            else:
                engine = cls(schema, cls._unindexed(text), policy=policy, **options)
                engine._load_degradation = {"reason": str(error), "code": code}
                outcome = QueryWarning(
                    DEGRADED_FULL_SCAN,
                    "index unusable: serving queries via the cached "
                    "full-scan pipeline",
                    detail={"path": str(directory), "cause": code},
                )
            engine._load_warnings += [
                *load_warnings, QueryWarning(code, str(error)), outcome
            ]
            return engine

        try:
            saved_fingerprint = load_schema_fingerprint(directory)
            expected_fingerprint = schema_fingerprint(schema)
            if (
                saved_fingerprint is not None
                and saved_fingerprint != expected_fingerprint
            ):
                raise RegionIndexError(
                    f"saved index at {directory!r} was built with a different "
                    f"structuring schema (saved {saved_fingerprint}, "
                    f"loading under {expected_fingerprint}); rebuild the index "
                    "with this schema instead"
                )
            reason = stale_reason(
                directory, source_text=source_text, source_path=source_path
            )
            if reason is not None:
                raise IndexStaleError(str(directory), reason)
            index = load_index(directory)
        except IndexNotFoundError as error:
            return recover(error, policy.on_missing, INDEX_MISSING)
        except IndexStaleError as error:
            return recover(error, policy.on_stale, INDEX_STALE)
        except IndexCorruptError as error:
            return recover(error, policy.on_corrupt, INDEX_CORRUPT)
        engine = cls(schema, index, policy=policy, **options)
        engine._load_warnings += load_warnings
        return engine

    @staticmethod
    def _recover_text(
        directory: str,
        error: RegionIndexError,
        source_text: str | None,
        source_path: str | os.PathLike[str] | None,
        fresh_only: bool = False,
    ) -> str | None:
        """The best surviving corpus text for degradation/rebuild, or
        ``None`` when nothing trustworthy remains.  Prefers the *current*
        source; falls back to the saved ``corpus.txt`` unless the failure
        implicates it (or the index is stale, in which case the saved text
        is exactly what must not be served)."""
        if source_text is not None:
            return source_text
        if source_path is not None:
            try:
                return Path(source_path).read_text(encoding="utf-8")
            except OSError:
                pass
        if fresh_only or getattr(error, "part", None) == "corpus.txt":
            return None
        try:
            return (Path(directory) / "corpus.txt").read_text(encoding="utf-8")
        except OSError:
            return None

    @staticmethod
    def _unindexed(text: str) -> IndexEngine:
        """An index with *no* index support: the translator finds no
        indexed names, so the planner routes every query to the full-scan
        strategy — whose parse tree is cached after the first query (the
        "cached full-scan pipeline").  Answers are identical to an indexed
        engine's; only costs differ."""
        return IndexEngine(
            text=text,
            instance=Instance({}),
            word_index=None,
            config=IndexConfig.partial((), word_index=False),
        )

    @property
    def degraded(self) -> bool:
        """True when load-time degradation left this engine serving every
        query through the no-index full-scan fallback (its planner must
        plan locally — plans from an indexed engine do not apply)."""
        return self._load_degradation is not None

    # -- observability ------------------------------------------------------------

    def on_span(self, hook: SpanHook):
        """Register an opt-in span hook, fired whenever a pipeline span
        closes during this engine's traced queries.  Returns a
        zero-argument callable that unregisters the hook.

        Hooks let harnesses assert *stage-level* budgets (e.g. "index-eval
        under 2 ms") instead of only end-to-end times; with no hooks
        registered, tracing cost is unchanged.
        """
        return self._span_hooks.register(hook)

    def _tracer(self) -> Tracer | NullTracer:
        return Tracer("query", hooks=self._span_hooks) if self.tracing else NULL_TRACER

    def _package_result(
        self, plan: Plan, execution: Execution, tracer: Tracer | NullTracer
    ) -> QueryResult:
        if self._load_warnings:
            # Load-time degradation decisions surface on every query result.
            execution.stats.warnings = (
                list(self._load_warnings) + execution.stats.warnings
            )
        trace = tracer.finish()
        if trace is not None:
            trace.root.annotate(
                strategy=execution.stats.strategy, rows=execution.stats.rows
            )
            if self._load_degradation is not None:
                trace.root.add_child("degraded", **self._load_degradation)
        return QueryResult(
            rows=execution.rows,
            regions=execution.regions,
            plan=plan,
            stats=QueryStats(execution.stats, trace=trace),
            trace=trace,
            row_hashes=execution.row_hashes,
        )

    # -- querying -----------------------------------------------------------------

    def query(
        self, query: Query | str, budget: ResourceBudget | None = None
    ) -> QueryResult:
        """Plan and execute a query (text or a parsed
        :class:`~repro.db.query.Query`).

        When tracing is enabled (the default) the result carries a
        hierarchical :class:`~repro.obs.trace.Trace` of the pipeline —
        parse → translate → optimize → plan → index evaluation → candidate
        parsing → database instantiation — as ``result.trace`` (also
        reachable as ``result.stats.trace``).

        ``budget`` (or the engine-wide default) guards the execution; on a
        breach the engine either raises
        :class:`~repro.errors.BudgetExceededError` — carrying the partial
        statistics and trace — or, under an ``on_budget="full-scan"``
        policy, retries once through the unguarded full-scan pipeline under
        a ``degraded`` span.
        """
        tracer = self._tracer()
        return self._run_plan(self.planner.plan(query, tracer=tracer), budget, tracer)

    def execute_plan(
        self, plan: Plan, budget: ResourceBudget | None = None
    ) -> QueryResult:
        """Execute an already-built plan against this engine's corpus.

        Sharded execution plans a query once and reuses the plan on every
        shard (:class:`~repro.shard.ShardedEngine`): translation and
        optimization depend only on the structuring schema and index
        configuration, which all shards share, so re-planning per shard
        would be pure waste.  The plan must come from an engine with the
        same schema and index configuration — region names in its
        expressions bind against this engine's instance.
        """
        return self._run_plan(plan, budget, self._tracer())

    def _run_plan(
        self, plan: Plan, budget: ResourceBudget | None, tracer: Tracer | NullTracer
    ) -> QueryResult:
        budget = budget if budget is not None else self.budget
        meter = (
            budget.meter() if budget is not None and not budget.unlimited else None
        )
        skip_malformed = self.policy.skip_malformed
        try:
            execution: Execution = self._executor.execute(
                plan, tracer=tracer, meter=meter, skip_malformed=skip_malformed
            )
        except BudgetExceededError as error:
            if self.policy.on_budget != FULL_SCAN:
                error.trace = tracer.finish()
                raise
            plan, execution = self._budget_fallback(
                plan, error, tracer, skip_malformed
            )
        return self._package_result(plan, execution, tracer)

    def _budget_fallback(
        self,
        plan: Plan,
        error: BudgetExceededError,
        tracer: Tracer | NullTracer,
        skip_malformed: bool,
    ) -> tuple[Plan, Execution]:
        """Retry a budget-blown query once through the full-scan pipeline —
        predictable cost (one corpus parse, cached across queries), no
        meter — and record the decision as a warning + ``degraded`` span."""
        fallback = Plan(
            strategy="full-scan",
            query=plan.query,
            notes=list(plan.notes) + [f"budget degraded: {error}"],
        )
        with tracer.span("degraded", reason=str(error), code=BUDGET_DEGRADED):
            execution = self._executor.execute(
                fallback, tracer=tracer, skip_malformed=skip_malformed
            )
        execution.stats.warnings.insert(
            0,
            QueryWarning(
                BUDGET_DEGRADED,
                f"budget exceeded ({error.resource}); retried via full scan",
                detail={
                    "resource": error.resource,
                    "limit": error.limit,
                    "spent": error.spent,
                    "partial": dict(error.partial),
                },
            ),
        )
        return fallback, execution

    # -- the baseline ----------------------------------------------------------------

    def baseline_query(self, query: Query | str) -> QueryResult:
        """Run the query through the standard-database pipeline (parse the
        whole corpus, load, evaluate) regardless of index support.

        The baseline deliberately bypasses the engine's caches: it exists to
        measure the cost of *not* having the index layer, so it must pay the
        real parsing cost every time.
        """
        if isinstance(query, str):
            query = parse_query(query)
        plan = Plan(strategy="full-scan", query=query, notes=["forced baseline"])
        tracer = self._tracer()
        execution = self._executor.execute(plan, use_cache=False, tracer=tracer)
        return self._package_result(plan, execution, tracer)

    def load_baseline_database(self) -> Database:
        """Parse the whole corpus once and load its full database image —
        the amortised variant of the baseline."""
        from repro.db.loader import load_database

        return load_database(self.schema, self.text).database

    # -- introspection -----------------------------------------------------------------

    def locate_results(self, result: QueryResult) -> list[tuple[str, int, int]]:
        """Map a result's regions back to ``(document name, local start,
        local end)`` triples — which *file* each answer lives in.

        Requires the engine to have been built from a :class:`Corpus`; with
        a bare string the single pseudo-document is named ``"<text>"``.
        """
        located: list[tuple[str, int, int]] = []
        for region in result.regions:
            if self.corpus is None:
                located.append(("<text>", region.start, region.end))
                continue
            doc_index, local_start = self.corpus.locate(region.start)
            document = self.corpus.documents[doc_index]
            located.append(
                (document.name, local_start, local_start + (region.end - region.start))
            )
        return located

    def statistics(self) -> IndexStatistics:
        return self.index.statistics()

    def _engines(self, load: bool = False) -> "list[FileQueryEngine]":
        return [self]

    def _index_summary(self) -> dict:
        return self.statistics().to_dict()

    def _backend(self) -> dict:
        return {
            "type": "file",
            "corpus_bytes": len(self.text),
            "indexed_names": sorted(self.indexed_names),
            "degraded": self.degraded,
        }

    @property
    def indexed_names(self) -> frozenset[str]:
        return self.translator.indexed_names
