"""Path analyses over region inclusion graphs.

These are the graph-side preconditions of the optimizer's rewrite rules
(Proposition 3.5) and of the triviality test (Proposition 3.3).  "Path"
follows the paper's usage but is implemented with *walk* semantics (nodes and
edges may repeat), which is what region nesting actually realises when the
RIG has cycles (self-nested regions); on acyclic RIGs walks and paths select
the same conditions.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from repro.rig.graph import RegionInclusionGraph


def reach_plus(graph: RegionInclusionGraph, source: str) -> frozenset[str]:
    """Nodes reachable from ``source`` by a walk of at least one edge."""
    seen: set[str] = set()
    frontier = deque(graph.successors(source))
    while frontier:
        node = frontier.popleft()
        if node in seen:
            continue
        seen.add(node)
        frontier.extend(graph.successors(node))
    return frozenset(seen)


def co_reach_plus(graph: RegionInclusionGraph, target: str) -> frozenset[str]:
    """Nodes from which ``target`` is reachable by a walk of at least one edge."""
    seen: set[str] = set()
    frontier = deque(graph.predecessors(target))
    while frontier:
        node = frontier.popleft()
        if node in seen:
            continue
        seen.add(node)
        frontier.extend(graph.predecessors(node))
    return frozenset(seen)


def has_intermediate(graph: RegionInclusionGraph, source: str, target: str) -> bool:
    """Is there a node ``t`` with ``source →⁺ t →⁺ target``?

    When false (and the edge exists), no indexed region can ever sit between
    a ``source`` region and a ``target`` region, so ``⊃`` and ``⊃d``
    coincide — the paper's "the edge (Ri, Rj) is the only path from Ri to
    Rj", generalised to cyclic graphs.  Note ``t`` may be ``source`` or
    ``target`` themselves when they lie on cycles.
    """
    return bool(reach_plus(graph, source) & co_reach_plus(graph, target))


def every_path_starts_with_edge(graph: RegionInclusionGraph, source: str, target: str) -> bool:
    """Does every walk from ``source`` to ``target`` start with the edge
    ``(source, target)``?  (Second disjunct of Proposition 3.5(a).)"""
    if not graph.has_edge(source, target):
        return False
    for neighbour in graph.successors(source):
        if neighbour == target:
            continue
        if neighbour == source:
            # A self-loop lets a walk begin source -> source -> ... -> target.
            return False
        if target == neighbour or target in reach_plus(graph, neighbour):
            return False
    return True


def every_path_ends_with_edge(graph: RegionInclusionGraph, source: str, target: str) -> bool:
    """Does every walk from ``source`` to ``target`` end with the edge
    ``(source, target)``?  Mirror of :func:`every_path_starts_with_edge`,
    used for the ``⊂d -> ⊂`` rewrite on projection chains."""
    if not graph.has_edge(source, target):
        return False
    reachable = reach_plus(graph, source)
    for predecessor in graph.predecessors(target):
        if predecessor == source:
            continue
        if predecessor == target:
            # A self-loop lets a walk end target -> target.
            return False
        if predecessor in reachable:
            return False
    return True


def every_path_through(graph: RegionInclusionGraph, source: str, target: str, via: str) -> bool:
    """Does every walk ``source →⁺ target`` pass through node ``via``?

    Precondition of the shortening rule (Proposition 3.5(b)): used to decide
    whether ``Ri ⊃ Rj ⊃ Rk`` can become ``Ri ⊃ Rk``.  Endpoints count: if
    ``via`` equals ``source`` or ``target``, every walk trivially passes
    through it.  Requires at least one walk to exist (otherwise the
    expression is trivially empty — Proposition 3.3 — and shortening is moot).
    """
    if via == source or via == target:
        return target in reach_plus(graph, source)
    if target not in reach_plus(graph, source):
        return False
    # Remove `via`; if target is still reachable, some walk avoids it.
    seen: set[str] = set()
    frontier = deque(node for node in graph.successors(source) if node != via)
    while frontier:
        node = frontier.popleft()
        if node in seen:
            continue
        seen.add(node)
        if node == target:
            return False
        frontier.extend(n for n in graph.successors(node) if n != via)
    return True


def _coincidence_reach(graph: RegionInclusionGraph, source: str) -> frozenset[str]:
    """Nodes reachable from ``source`` by ≥1 *coincident* edge."""
    succ: dict[str, set[str]] = {}
    for parent, child in graph.coincident_edges:
        succ.setdefault(parent, set()).add(child)
    seen: set[str] = set()
    frontier = deque(succ.get(source, ()))
    while frontier:
        node = frontier.popleft()
        if node in seen:
            continue
        seen.add(node)
        frontier.extend(succ.get(node, ()))
    return frozenset(seen)


def coincident_related(graph: RegionInclusionGraph, first: str, second: str) -> bool:
    """Can regions named ``first`` and ``second`` legally share an extent?

    True when a chain of coincident edges connects the two names in either
    direction.  Always false on RIGs with an empty coincidence relation (the
    paper's setting).
    """
    if first == second:
        return True
    return second in _coincidence_reach(graph, first) or first in _coincidence_reach(
        graph, second
    )


def simple_paths(
    graph: RegionInclusionGraph,
    source: str,
    target: str,
    max_length: int | None = None,
) -> Iterator[tuple[str, ...]]:
    """Enumerate simple paths (no repeated node) from ``source`` to
    ``target``.  Used by extended path expressions with variables, where each
    variable assignment corresponds to one simple path (Section 5.3).

    ``max_length`` bounds the number of *edges*.
    """
    limit = max_length if max_length is not None else len(graph.nodes)

    def extend(path: tuple[str, ...], visited: frozenset[str]) -> Iterator[tuple[str, ...]]:
        current = path[-1]
        if current == target and len(path) > 1:
            yield path
            return
        if len(path) - 1 >= limit:
            return
        for neighbour in sorted(graph.successors(current)):
            if neighbour in visited and neighbour != target:
                continue
            yield from extend(path + (neighbour,), visited | {neighbour})

    if source == target:
        # A "path" of length zero; callers decide whether that is meaningful.
        yield (source,)
        return
    if source not in graph.nodes:
        return
    yield from extend((source,), frozenset({source}))
