"""Proposition 3.3: statically-empty inclusion expressions.

"e(I) = ∅ for every I ∈ Z_G iff at least one of the following holds:
 (i)  e has a subexpression Ri ⊃d Rj, and (Ri, Rj) ∉ E;
 (ii) e has a subexpression Ri ⊃ Rj, and G does not contain a path from Ri
      to Rj."

With bare-extent regions, two names can share an extent, in which case
``Ri ⊃ Rj`` holds without any strict nesting; the conditions therefore also
require the pair not to be *coincidence-related* (see
:mod:`repro.rig.graph`).  On RIGs with an empty coincidence relation — all
of the paper's examples — this is exactly Proposition 3.3.

The test is *sound* for general expressions (a trivial subexpression only
forces emptiness where the algebra is monotone), so it is applied to
chains; set operations are handled conservatively (``∩``/chain positions
propagate, ``∪`` requires both sides, difference only its left side).
"""

from __future__ import annotations

from repro.algebra.ast import (
    BACKWARD_OPS,
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
from repro.core.chains import extract_chain
from repro.rig.graph import RegionInclusionGraph
from repro.rig.paths import reach_plus


def _coincidence_cluster(graph: RegionInclusionGraph, name: str) -> frozenset[str]:
    """Names that can share an extent with ``name``: the weakly-connected
    component of ``name`` in the coincident-edge subgraph."""
    adjacency: dict[str, set[str]] = {}
    for parent, child in graph.coincident_edges:
        adjacency.setdefault(parent, set()).add(child)
        adjacency.setdefault(child, set()).add(parent)
    component = {name}
    frontier = [name]
    while frontier:
        node = frontier.pop()
        for neighbour in adjacency.get(node, ()):
            if neighbour not in component:
                component.add(neighbour)
                frontier.append(neighbour)
    return frozenset(component)


def _pair_is_trivial(
    graph: RegionInclusionGraph, op: str, left: str, right: str
) -> bool:
    """Is ``left op right`` empty on every satisfying instance?

    Checked on coincidence *clusters*: a region of name ``N`` can share its
    extent with any name in ``N``'s cluster, so inclusion between the pair
    is realisable whenever an edge (for ``⊃d``) or a walk (for ``⊃``)
    connects the two clusters — or the clusters intersect (equal extents).
    On coincidence-free RIGs this is exactly Proposition 3.3.
    """
    if op in BACKWARD_OPS:
        # left ⊂ right: the container is the right name.
        container, containee = right, left
    else:
        container, containee = left, right
    container_cluster = _coincidence_cluster(graph, container)
    containee_cluster = _coincidence_cluster(graph, containee)
    if container_cluster & containee_cluster:
        return False
    if op in (DIRECTLY_INCLUDING, DIRECTLY_INCLUDED):
        return not any(
            graph.has_edge(outer, inner)
            for outer in container_cluster
            for inner in containee_cluster
        )
    return not any(
        inner in reach_plus(graph, outer)
        for outer in container_cluster
        for inner in containee_cluster
    )


def is_trivially_empty(expression: RegionExpr, graph: RegionInclusionGraph) -> bool:
    """Is ``expression`` empty on every instance satisfying ``graph``?

    Sound (never claims emptiness wrongly); complete for inclusion chains
    per Proposition 3.3, conservative for set operations.
    """
    if isinstance(expression, Name):
        return False
    if isinstance(expression, (Select, Innermost, Outermost)):
        return is_trivially_empty(expression.child, graph)
    if isinstance(expression, SetOp):
        if expression.kind == "union":
            return is_trivially_empty(expression.left, graph) and is_trivially_empty(
                expression.right, graph
            )
        if expression.kind == "intersect":
            return is_trivially_empty(expression.left, graph) or is_trivially_empty(
                expression.right, graph
            )
        return is_trivially_empty(expression.left, graph)  # difference
    if isinstance(expression, Inclusion):
        chain = extract_chain(expression)
        if chain is not None:
            for index, op in enumerate(chain.ops):
                if _pair_is_trivial(
                    graph, op, chain.links[index].region, chain.links[index + 1].region
                ):
                    return True
            return False
        # Not a recognisable chain: an inclusion is empty whenever either
        # operand is.
        return is_trivially_empty(expression.left, graph) or is_trivially_empty(
            expression.right, graph
        )
    return False
