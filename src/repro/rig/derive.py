"""Deriving RIGs from structuring-schema grammars.

Section 4.2 (full indexing): "the region inclusion graph of Z can be
automatically derived from the grammar G.  The nodes are the non-terminals
of the grammar, and the graph has an edge (Ai, Aj) iff G has a rule where Ai
appears as the left side, and Aj as the right side."

Section 6.1 (partial indexing): "The nodes are the indexed non-terminals.
The graph has an edge (Ai, Aj) iff in the RIG of the full grammar there is a
path from Ai to Aj where all the non-terminals on the path other than Ai, Aj
are not indexed."

Beyond the paper, we also derive the *coincidence* relation (see
:mod:`repro.rig.graph`): an edge ``(A, B)`` is coincidence-capable when a
``B`` child can span its whole ``A`` parent — a star rule's single
repetition, or a sequence rule whose other items can derive zero width.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.errors import RigError
from repro.rig.graph import RegionInclusionGraph
from repro.schema.grammar import Grammar, NonTerminal, StarRule


def _coincident_edges(grammar: Grammar) -> set[tuple[str, str]]:
    """Edges whose child region can coincide with the parent's extent."""
    coincident: set[tuple[str, str]] = set()
    for rule in grammar.rules:
        if isinstance(rule, StarRule):
            # A single repetition spans the whole star region.
            coincident.add((rule.lhs, rule.item.name))
            continue
        for index, item in enumerate(rule.items):
            if not isinstance(item, NonTerminal):
                continue
            others = rule.items[:index] + rule.items[index + 1 :]
            if all(grammar.derives_empty(other) for other in others):
                coincident.add((rule.lhs, item.name))
    return coincident


def derive_full_rig(grammar: Grammar, include_root: bool = True) -> RegionInclusionGraph:
    """The RIG of the fully indexed grammar (Section 4.2).

    ``include_root=False`` drops the grammar's start symbol, matching the
    paper's region index that "contains all the non-terminal names in the
    grammar, except the root".
    """
    graph = RegionInclusionGraph()
    for nonterminal in grammar.nonterminals:
        if not include_root and nonterminal == grammar.start:
            continue
        graph.add_node(nonterminal)
    for source, target in grammar.iter_edges():
        if not include_root and grammar.start in (source, target):
            continue
        graph.add_edge(source, target)
    for source, target in _coincident_edges(grammar):
        if graph.has_edge(source, target):
            graph.mark_coincident(source, target)
    return graph


def derive_partial_rig(
    grammar: Grammar, indexed: Iterable[str]
) -> RegionInclusionGraph:
    """The RIG of a partial region index (Section 6.1).

    Contracts the full RIG: an edge ``(Ai, Aj)`` exists iff some full-RIG
    path from ``Ai`` to ``Aj`` passes only through unindexed non-terminals.
    An edge is coincidence-capable iff some such path consists entirely of
    coincidence-capable steps.
    """
    keep = set(indexed)
    unknown = keep - set(grammar.nonterminals)
    if unknown:
        raise RigError(f"cannot index unknown non-terminals: {sorted(unknown)}")
    full = derive_full_rig(grammar, include_root=True)
    partial = RegionInclusionGraph(nodes=keep)
    for source in sorted(keep):
        for target, all_coincident in _contracted_targets(full, source, keep):
            partial.add_edge(source, target)
            if all_coincident:
                partial.mark_coincident(source, target)
    return partial


def _contracted_targets(
    full: RegionInclusionGraph, source: str, keep: set[str]
) -> list[tuple[str, bool]]:
    """Indexed nodes reachable from ``source`` through unindexed interiors.

    Returns ``(target, coincident_path_exists)`` pairs.  The search tracks,
    per visited unindexed node, whether it was reached by an all-coincident
    path (a node may first be reached non-coincidently and later
    coincidently, so states are (node, coincident-flag) pairs).
    """
    results: dict[str, bool] = {}
    seen: set[tuple[str, bool]] = set()
    queue: deque[tuple[str, bool]] = deque()
    for child in full.successors(source):
        coincident = (source, child) in full.coincident_edges
        queue.append((child, coincident))
    while queue:
        node, coincident = queue.popleft()
        if (node, coincident) in seen:
            continue
        seen.add((node, coincident))
        if node in keep:
            results[node] = results.get(node, False) or coincident
            continue
        for child in full.successors(node):
            step_coincident = coincident and (node, child) in full.coincident_edges
            queue.append((child, step_coincident))
    return sorted(results.items())
