"""repro — a reproduction of "Optimizing Queries on Files"
(Consens & Milo, SIGMOD 1994).

The library lets you view semi-structured files as a database and evaluate
XSQL-style queries on them through text indexes, with the paper's
RIG-based optimization of region expressions.

Quickstart
----------
>>> from repro import FileQueryEngine
>>> from repro.workloads.bibtex import bibtex_schema, generate_bibtex
>>> engine = FileQueryEngine(bibtex_schema(), generate_bibtex(entries=100))
>>> result = engine.query(
...     'SELECT r FROM Reference r '
...     'WHERE r.Authors.Name.Last_Name = "Chang"')
>>> print(engine.explain(result.plan.query))  # doctest: +SKIP

Package layout
--------------
- :mod:`repro.algebra` — the PAT region algebra (Section 3.1);
- :mod:`repro.rig` — region inclusion graphs (Section 3.2 / 4.2 / 6.1);
- :mod:`repro.core` — the optimizer (Theorem 3.6) and query engine;
- :mod:`repro.schema` — structuring schemas (Section 4);
- :mod:`repro.index` — the text indexing engine (PAT stand-in);
- :mod:`repro.db` — the object-database baseline;
- :mod:`repro.text` — documents, corpora, tokenization;
- :mod:`repro.workloads` — BibTeX / logs / SGML grammars and generators;
- :mod:`repro.resilience` — degradation policies, budgets, retry/backoff,
  circuit breakers, fault injectors;
- :mod:`repro.shard` — sharded corpora: scatter-gather queries over one
  fault-isolated engine + index per corpus file;
- :mod:`repro.api` — the unified engine API: one request/response
  dataclass family and the :class:`~repro.api.QueryBackend` protocol every
  engine satisfies;
- :mod:`repro.server` — a concurrent HTTP serving layer (``repro serve``)
  with admission control, budget quotas, and cursor pagination.
"""

from repro.api import (
    AnalyzeResponse,
    ExplainResponse,
    QueryBackend,
    QueryRequest,
    QueryResponse,
    StatsResponse,
)
from repro.algebra import (
    Region,
    RegionSet,
    Instance,
    parse_expression,
)
from repro.core import (
    ExecutionStats,
    FileQueryEngine,
    Plan,
    QueryResult,
    IndexAdvisor,
    optimize,
    is_trivially_empty,
    explain_plan,
)
from repro.db import parse_query
from repro.errors import (
    AlgebraError,
    BudgetExceededError,
    CandidateParseError,
    DatabaseError,
    GrammarError,
    IndexConfigError,
    IndexCorruptError,
    IndexNotFoundError,
    IndexStaleError,
    ParseError,
    PlanningError,
    QueryError,
    QuerySyntaxError,
    RegionError,
    RegionIndexError,
    ReproError,
    RigError,
    TranslationError,
    UnknownRegionNameError,
)
from repro.index import IndexConfig, ScopedRegionSpec
from repro.obs import (
    Analysis,
    HookRegistry,
    QueryStats,
    Span,
    SpanCollector,
    Trace,
    Tracer,
)
from repro.errors import ShardError, ShardFailedError
from repro.errors import PaginationError, ServerError, ServerOverloadedError
from repro.resilience import (
    BreakerConfig,
    CircuitBreaker,
    DegradationPolicy,
    QueryWarning,
    ResourceBudget,
    RetryPolicy,
    call_with_retry,
)
from repro.rig import RegionInclusionGraph, derive_full_rig, derive_partial_rig
from repro.schema import Grammar, StructuringSchema
from repro.server import QueryServer, ServerConfig
from repro.shard import ShardedEngine, split_corpus
from repro.text import Corpus, Document

__version__ = "1.7.0"

__all__ = [
    "Region",
    "RegionSet",
    "Instance",
    "parse_expression",
    "FileQueryEngine",
    "QueryResult",
    "Plan",
    "ExecutionStats",
    "IndexAdvisor",
    "optimize",
    "is_trivially_empty",
    "explain_plan",
    "parse_query",
    "IndexConfig",
    "ScopedRegionSpec",
    "RegionInclusionGraph",
    "derive_full_rig",
    "derive_partial_rig",
    "Grammar",
    "StructuringSchema",
    "Corpus",
    "Document",
    # observability
    "Analysis",
    "HookRegistry",
    "QueryStats",
    "Span",
    "SpanCollector",
    "Trace",
    "Tracer",
    # resilience
    "BreakerConfig",
    "CircuitBreaker",
    "DegradationPolicy",
    "QueryWarning",
    "ResourceBudget",
    "RetryPolicy",
    "call_with_retry",
    # sharded execution
    "ShardedEngine",
    "split_corpus",
    # unified engine API
    "AnalyzeResponse",
    "ExplainResponse",
    "QueryBackend",
    "QueryRequest",
    "QueryResponse",
    "StatsResponse",
    # serving layer
    "QueryServer",
    "ServerConfig",
    # error hierarchy
    "ReproError",
    "RegionError",
    "AlgebraError",
    "UnknownRegionNameError",
    "RigError",
    "GrammarError",
    "ParseError",
    "CandidateParseError",
    "QueryError",
    "QuerySyntaxError",
    "TranslationError",
    "PlanningError",
    "DatabaseError",
    "RegionIndexError",
    "IndexConfigError",
    "IndexNotFoundError",
    "IndexCorruptError",
    "IndexStaleError",
    "BudgetExceededError",
    "ShardError",
    "ShardFailedError",
    "PaginationError",
    "ServerError",
    "ServerOverloadedError",
    "__version__",
]

