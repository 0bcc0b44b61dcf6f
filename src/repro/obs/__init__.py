"""Query-pipeline observability: tracing, per-stage metrics, EXPLAIN ANALYZE.

The engine's cost story (index-only vs. candidate-parsing vs. full-scan,
Sections 5–7 of the paper) is only as credible as its instrumentation.
This package records, for every query, a hierarchical :class:`Trace` of the
pipeline — parse → translate → optimize (per-rewrite-rule spans) → plan →
index evaluation (per-algebra-operator spans) → candidate parsing →
database instantiation — with wall-time, bytes scanned/parsed, regions
produced, and cache hits per span:

- :mod:`repro.obs.trace` — :class:`Span`/:class:`Trace`/:class:`Tracer`
  plus the zero-cost :data:`NULL_TRACER` used when tracing is off;
- :mod:`repro.obs.hooks` — the opt-in span-hook registry
  (:class:`HookRegistry`, :class:`SpanCollector`) benchmarks use to assert
  stage-level budgets;
- :mod:`repro.obs.stats` — :class:`QueryStats`, the one facade over
  execution stats / algebra counters / cache activity with a stable
  ``to_dict()``;
- :mod:`repro.obs.analyze` — :class:`Analysis`, the EXPLAIN ANALYZE report
  pairing :mod:`repro.core.cost` estimates with measured actuals per node.
"""

from repro.obs.analyze import Analysis, NodeAnalysis, build_node_table, node_label
from repro.obs.hooks import HookRegistry, SpanCollector
from repro.obs.stats import QueryStats
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanHook,
    Trace,
    Tracer,
)

__all__ = [
    "Analysis",
    "NodeAnalysis",
    "build_node_table",
    "node_label",
    "HookRegistry",
    "SpanCollector",
    "QueryStats",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "SpanHook",
    "Trace",
    "Tracer",
]
