"""EXPLAIN ANALYZE: estimated plan costs side-by-side with measured actuals.

``FileQueryEngine.analyze()`` executes a query with tracing on, re-runs the
plan's optimized region expression with per-node instrumentation, and
returns an :class:`Analysis`: for every plan node the static cost-model
estimate (:mod:`repro.core.cost`) next to the measured wall-time and
regions produced, plus the per-stage pipeline trace and the consolidated
query statistics.  ``str(analysis)`` renders the classic annotated-plan
text; :meth:`Analysis.to_dict` feeds the CLI's ``--json`` output (validated
in CI against ``schemas/analyze.schema.json``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.algebra.ast import (
    Inclusion,
    Innermost,
    Name,
    Outermost,
    RegionExpr,
    Select,
    SetOp,
)
from repro.algebra.evaluator import NodeRecord
from repro.core.cost import estimate_rows, node_weight, static_cost
from repro.obs.stats import QueryStats
from repro.obs.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - core imports obs; annotations only
    from repro.algebra.region import Instance
    from repro.core.planner import Plan

_OP_LABELS = {
    ">": "⊃",
    ">d": "⊃d",
    "<": "⊂",
    "<d": "⊂d",
    "union": "∪",
    "intersect": "∩",
    "difference": "−",
}


def node_label(node: RegionExpr) -> str:
    """A one-token operator label for a plan-node row."""
    if isinstance(node, Name):
        return node.region_name
    if isinstance(node, Select):
        marker = {"exact": "", "contains": "c", "prefix": "p", "prefix_contains": "pc"}
        return f"σ{marker.get(node.mode, '?')}[{node.word}]"
    if isinstance(node, Inclusion):
        return _OP_LABELS.get(node.op, node.op)
    if isinstance(node, SetOp):
        return _OP_LABELS.get(node.kind, node.kind)
    if isinstance(node, Innermost):
        return "ι"
    if isinstance(node, Outermost):
        return "ω"
    return type(node).__name__


@dataclass
class NodeAnalysis:
    """One plan-node row: the estimate next to what actually happened.

    ``estimated_rows`` is the cardinality estimate in *regions* — the same
    unit as ``actual_regions`` — so estimate-vs-actual deltas are
    rows-vs-rows, not cost-units-vs-rows (static cost units are only
    comparable to other static costs).
    """

    depth: int
    label: str
    expression: str
    estimated_cost: int
    estimated_subtree_cost: int
    estimated_rows: float | None = None
    actual_seconds: float | None = None
    actual_regions: int | None = None
    cached: bool | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "depth": self.depth,
            "label": self.label,
            "expression": self.expression,
            "estimated_cost": self.estimated_cost,
            "estimated_subtree_cost": self.estimated_subtree_cost,
            "estimated_rows": self.estimated_rows,
            "actual_s": self.actual_seconds,
            "actual_regions": self.actual_regions,
            "cached": self.cached,
        }


def build_node_table(
    expression: RegionExpr,
    node_log: dict[RegionExpr, NodeRecord] | None,
    instance: "Instance | None" = None,
) -> list[NodeAnalysis]:
    """Pre-order plan-node rows pairing each node's static estimate with
    its measured record (when the expression was instrumented).

    ``instance`` seeds each node's estimated output cardinality in regions
    (:func:`~repro.core.cost.estimate_rows`); omitted, the rows carry no
    cardinality estimates.
    """
    rows: list[NodeAnalysis] = []

    def visit(node: RegionExpr, depth: int) -> None:
        record = node_log.get(node) if node_log is not None else None
        rows.append(
            NodeAnalysis(
                depth=depth,
                label=node_label(node),
                expression=str(node),
                estimated_cost=node_weight(node),
                estimated_subtree_cost=static_cost(node),
                estimated_rows=(
                    estimate_rows(node, instance) if instance is not None else None
                ),
                actual_seconds=record.elapsed if record is not None else None,
                actual_regions=record.regions if record is not None else None,
                cached=record.cached if record is not None else None,
            )
        )
        for child in node.children():
            visit(child, depth + 1)

    visit(expression, 0)
    return rows


@dataclass
class Analysis:
    """The full EXPLAIN ANALYZE report for one executed query."""

    plan: "Plan"
    stats: QueryStats
    nodes: list[NodeAnalysis] = field(default_factory=list)
    trace: Trace | None = None
    cache: str | None = None

    @property
    def strategy(self) -> str:
        return self.plan.strategy

    def render(self) -> str:
        plan = self.plan
        lines = [
            "EXPLAIN ANALYZE",
            f"query:     {plan.query.render()}",
            f"strategy:  {plan.strategy}  (exact={plan.exact})",
        ]
        if plan.raw_expression is not None:
            lines.append(
                f"translated: {plan.raw_expression}"
                f"  (est. cost {static_cost(plan.raw_expression)})"
            )
        if plan.optimized_expression is not None:
            lines.append(
                f"optimized:  {plan.optimized_expression}"
                f"  (est. cost {static_cost(plan.optimized_expression)})"
            )
        if plan.projection is not None:
            lines.append(f"projection: {plan.projection}")
        if plan.trace.rewrite_count:
            for line in plan.trace.describe().splitlines():
                lines.append(f"  rewrite: {line}")
        for note in plan.notes:
            lines.append(f"note:      {note}")
        if self.nodes:
            lines.append("")
            lines.append("plan nodes (estimated cost | measured):")
            lines.append("  est  subtree  est.rows     actual    regions  node")
            for row in self.nodes:
                est_rows = (
                    f"{row.estimated_rows:8.1f}"
                    if row.estimated_rows is not None
                    else "       –"
                )
                actual = (
                    f"{row.actual_seconds * 1e3:7.3f}ms"
                    if row.actual_seconds is not None
                    else "        –"
                )
                regions = (
                    f"{row.actual_regions:7d}"
                    if row.actual_regions is not None
                    else "      –"
                )
                cached = " (cached)" if row.cached else ""
                indent = "  " * row.depth
                lines.append(
                    f"  {row.estimated_cost:<4d} {row.estimated_subtree_cost:<7d} "
                    f"{est_rows}  {actual}  {regions}  {indent}{row.label}{cached}"
                )
        if self.trace is not None:
            lines.append("")
            lines.append("pipeline stages (measured):")
            lines.extend("  " + line for line in self.trace.describe().splitlines())
        lines.append("")
        lines.append("totals:")
        lines.extend("  " + line for line in self.stats.summary().splitlines())
        if self.cache:
            lines.append(f"cache:     {self.cache}")
        return "\n".join(lines)

    __str__ = render

    def to_dict(self) -> dict[str, Any]:
        """The stable JSON shape consumed by ``--json`` and CI's schema
        check: ``query``, ``strategy``, ``exact``, ``notes``,
        ``expression`` (raw/optimized or ``None``), ``nodes``, ``stages``
        (the span tree or ``None``), and ``stats``."""
        plan = self.plan
        return {
            "query": plan.query.render(),
            "strategy": plan.strategy,
            "exact": plan.exact,
            "notes": list(plan.notes),
            "expression": (
                {
                    "raw": str(plan.raw_expression)
                    if plan.raw_expression is not None
                    else None,
                    "optimized": str(plan.optimized_expression),
                    "estimated_cost": static_cost(plan.optimized_expression),
                    "rewrites": plan.trace.rewrite_count,
                }
                if plan.optimized_expression is not None
                else None
            ),
            "nodes": [row.to_dict() for row in self.nodes],
            "stages": self.trace.to_dict() if self.trace is not None else None,
            "stats": self.stats.to_dict(),
        }
