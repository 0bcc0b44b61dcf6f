"""Human-readable plan explanations."""

from __future__ import annotations

from repro.core.cost import static_cost
from repro.core.planner import Plan


def explain_plan(plan: Plan, cache: str | None = None) -> str:
    """Render a plan the way EXPLAIN would.

    ``cache`` is an optional one-line description of the engine's cache
    state (configuration + lifetime hits), appended when provided.
    """
    lines = [f"query:     {plan.query.render()}", f"strategy:  {plan.strategy}"]
    if plan.raw_expression is not None:
        lines.append(f"translated: {plan.raw_expression}")
        lines.append(f"            (static cost {static_cost(plan.raw_expression)})")
    if plan.optimized_expression is not None:
        lines.append(f"optimized:  {plan.optimized_expression}")
        lines.append(
            f"            (static cost {static_cost(plan.optimized_expression)})"
        )
    if plan.projection is not None:
        lines.append(f"projection: {plan.projection}")
    if plan.trace.rewrite_count:
        for line in plan.trace.describe().splitlines():
            lines.append(f"  rewrite: {line}")
    for var, expression in plan.per_variable.items():
        if expression is None:
            lines.append(f"narrow {var}: (whole extent)")
        else:
            lines.append(f"narrow {var}: {expression}")
    lines.append(f"exact:     {plan.exact}")
    if plan.join_chains is not None:
        left, right = plan.join_chains
        lines.append(f"join:      contents of {left} = contents of {right}")
    for note in plan.notes:
        lines.append(f"note:      {note}")
    if cache is not None:
        lines.append(f"cache:     {cache}")
    return "\n".join(lines)
