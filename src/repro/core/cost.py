"""Static cost model for region expressions.

Definition 3.4 orders expressions by rewriting ("e2 was obtained from e1 by
replacing ..."), so the optimizer itself never needs numeric costs.  This
model exists for *explain* output and for asserting, in tests, that every
rewrite strictly decreases cost: fewer operations are cheaper, and a direct
inclusion is far more expensive than a simple one (Section 3.1's layered
program runs one ``ω``/``⊃``/``−`` round per nesting layer).
:func:`estimate_rows` is the matching cold cardinality estimate that
EXPLAIN ANALYZE sets beside each node's measured region count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.algebra.ast import (
    DIRECTLY_INCLUDED,
    DIRECTLY_INCLUDING,
    Inclusion,
    Innermost,
    Name,
    Outermost,
    RegionExpr,
    Select,
    SetOp,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.algebra.region import Instance

#: Relative operator weights (arbitrary units; only the ordering matters).
WEIGHTS = {
    "name": 1,
    "select": 3,
    "set_op": 2,
    "extremal": 4,
    "simple_inclusion": 5,
    "direct_inclusion": 40,
}


def node_weight(node: RegionExpr) -> int:
    """The weight of one operator node (children excluded)."""
    if isinstance(node, Name):
        return WEIGHTS["name"]
    if isinstance(node, Select):
        return WEIGHTS["select"]
    if isinstance(node, SetOp):
        return WEIGHTS["set_op"]
    if isinstance(node, (Innermost, Outermost)):
        return WEIGHTS["extremal"]
    if isinstance(node, Inclusion):
        if node.op in (DIRECTLY_INCLUDING, DIRECTLY_INCLUDED):
            return WEIGHTS["direct_inclusion"]
        return WEIGHTS["simple_inclusion"]
    return 0


def static_cost(expression: RegionExpr) -> int:
    """The summed operator weight of an expression."""
    return sum(node_weight(node) for node in expression.walk())


#: Cold-start selectivity priors: the share of its input a σ-selection and
#: an inclusion (``⊃``/``⊃d`` and their inverses) keep.
SELECT_SELECTIVITY = 0.2
INCLUSION_SELECTIVITY = 0.5


def estimate_rows(node: RegionExpr, instance: "Instance") -> float:
    """The estimated output cardinality, in regions, of ``node`` over
    ``instance`` — EXPLAIN ANALYZE's ``estimated_rows``.

    A name is seeded by its exact region count; selections and inclusions
    scale their input by the fixed priors above; a union adds its inputs,
    an intersection keeps the smaller and a difference the left one;
    innermost/outermost keep their input.
    """
    child_rows = [estimate_rows(child, instance) for child in node.children()]
    if isinstance(node, Name):
        return float(len(instance.get(node.region_name)))
    if isinstance(node, Select):
        return child_rows[0] * SELECT_SELECTIVITY
    if isinstance(node, Inclusion):
        return child_rows[0] * INCLUSION_SELECTIVITY
    if isinstance(node, SetOp):
        left, right = child_rows
        if node.kind == "union":
            return left + right
        if node.kind == "intersect":
            return min(left, right)
        return left  # difference: at most everything on the left
    return child_rows[0]  # innermost/outermost: at most their input
