"""The paper's primary contribution: RIG-based optimization of region
expressions and the file query engine built on it.

- :mod:`repro.core.chains` — inclusion-chain view of region expressions;
- :mod:`repro.core.triviality` — Proposition 3.3 (statically-empty tests);
- :mod:`repro.core.optimizer` — Proposition 3.5 rewrites + the Theorem 3.6
  fixpoint algorithm computing the unique most efficient version;
- :mod:`repro.core.cost` — static cost model used for explain output;
- :mod:`repro.core.translate` — database query -> inclusion expression
  (Sections 5.1/5.2/6.1), with exactness tracking (Section 6.3);
- :mod:`repro.core.planner` / :mod:`repro.core.partial` — execution
  strategies: pure-index, two-phase candidate filtering, index-assisted
  join, full-scan baseline;
- :mod:`repro.core.engine` — :class:`FileQueryEngine`, the public facade;
- :mod:`repro.core.advisor` — Section 7 index selection;
- :mod:`repro.core.pathexpr` — extended path expressions (star variables,
  fixed-arity variables, regular-path closure helpers, Section 5.3).
"""

from repro.core.chains import ChainView, Link, extract_chain, chain_to_expression
from repro.core.triviality import is_trivially_empty
from repro.core.optimizer import optimize, OptimizationTrace
from repro.core.cost import node_weight, static_cost
from repro.core.translate import Translator, TranslatedCondition
from repro.core.planner import Plan, Planner
from repro.core.partial import ExecutionStats
from repro.core.engine import FileQueryEngine, QueryResult
from repro.core.advisor import IndexAdvisor, AdvisorReport
from repro.core.explain import explain_plan

__all__ = [
    "ChainView",
    "Link",
    "extract_chain",
    "chain_to_expression",
    "is_trivially_empty",
    "optimize",
    "OptimizationTrace",
    "node_weight",
    "static_cost",
    "Translator",
    "TranslatedCondition",
    "Plan",
    "Planner",
    "ExecutionStats",
    "FileQueryEngine",
    "QueryResult",
    "IndexAdvisor",
    "AdvisorReport",
    "explain_plan",
]
