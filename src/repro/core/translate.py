"""Translating database queries into region expressions.

Section 5.1: a path ``p`` in ``SELECT r FROM R r WHERE r.p = w`` matches a
path ``A1 -> A2 -> ... -> An`` in the RIG; the matching regions are selected
by ``A1 ⊃d A2 ⊃d ... ⊃d σw(An)``.  Under partial indexing (Section 6.1) the
same expression over the indexed non-terminals "retrieves a set of candidate
regions, that is a superset of the regions required by the query", and
Section 6.3 gives the condition under which the candidates are exact.

The translator works in three stages:

1. **Resolve** the query path over the *attribute RIG* — the full RIG with
   transparent (unit-rule) non-terminals contracted away, so its edges are
   exactly the attribute steps visible in the database image.  Star
   variables become *loose* joints; plain variables enumerate successor
   branches (consistently per variable name).
2. **Project** each resolved node path onto the indexed non-terminals,
   preferring a scoped index (``Name@Authors``) when its scope appears
   earlier in the path.  One rule decides each gap, for selections
   (``⊃``/``⊃d``) and for the endpoint chains of projections and joins
   (``⊂``/``⊂d``) alike (:meth:`Translator._index_chain`): a gap without a
   star is direct only where direct inclusion finds the path's regions on
   every instance (:meth:`Translator._direct_gap_is_exact`); every other
   gap is simple inclusion (Section 5.3: "simple inclusion may be
   applicable instead of direct inclusion"), a superset.
3. **Assess exactness** per gap: the gap is exact iff every alternative
   full-RIG path between its endpoints (through unindexed interiors, and
   realisable under the scoped index in use) matches the queried attribute
   pattern, no unindexed cycle makes further alternatives possible, and a
   gap without a star is direct.

Conditions combine structurally: ``AND -> ∩``, ``OR -> ∪``, ``NOT`` of an
exact translation -> set difference from the source extent; ``NOT`` of an
approximate translation must widen to all source regions (subtracting a
superset would *under*-approximate).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.algebra.ast import (
    DIRECTLY_INCLUDED,
    DIRECTLY_INCLUDING,
    INCLUDED,
    INCLUDING,
    Inclusion,
    Name,
    RegionExpr,
    Select,
    SetOp,
)
from repro.db.query import (
    And,
    Attr,
    Comparison,
    Condition,
    Not,
    Or,
    PathComparison,
    PathExpr,
    Query,
    SeqVars,
    StarVar,
    TrueCondition,
    iter_condition_paths,
)
from repro.errors import TranslationError
from repro.index.config import IndexConfig, ScopedRegionSpec
from repro.rig.derive import derive_full_rig, derive_partial_rig
from repro.rig.graph import RegionInclusionGraph
from repro.rig.paths import co_reach_plus, reach_plus
from repro.schema.pushdown import PathTrie
from repro.schema.structuring import StructuringSchema
from repro.schema.types import AtomicTypeDesc
from repro.text.tokenizer import tokenize_words


@dataclass(frozen=True)
class ResolvedPath:
    """One assignment of a query path to attribute-RIG nodes.

    ``nodes[0]`` is the source class; ``loose_after[i]`` marks a star gap
    between ``nodes[i]`` and ``nodes[i+1]``.  ``trailing_star`` marks a path
    ending in a star variable (``r.*X = "w"``)."""

    nodes: tuple[str, ...]
    loose_after: tuple[bool, ...]
    bindings: tuple[tuple[str, str], ...] = ()
    trailing_star: bool = False


def needed_paths(query: Query, var: str | None = None) -> PathTrie:
    """The push-down trie of attributes the query touches.

    ``var`` restricts to one range variable's paths (multi-variable
    execution builds one trie per variable).
    """
    paths: list[list[str | None]] = []
    for path in list(query.outputs) + list(iter_condition_paths(query.where)):
        if var is not None and path.var != var:
            continue
        steps: list[str | None] = []
        for step in path.steps:
            if isinstance(step, Attr):
                steps.append(step.name)
            else:
                steps.append(None)
                break
        paths.append(steps)
    return PathTrie.from_paths(paths)


@dataclass(frozen=True)
class IndexChain:
    """A resolved path projected onto the index: the names it keeps, from
    the source down, as ``(position in nodes, index name)``, whether each
    gap between two kept names is direct (``⊃d``/``⊂d``) or simple
    inclusion, and whether the chain finds exactly the path's regions."""

    kept: tuple[tuple[int, str], ...]
    direct: tuple[bool, ...]
    exact: bool
    notes: tuple[str, ...]


@dataclass
class TranslatedCondition:
    """A condition's region-level translation.

    ``expression`` evaluates to a set of source-class regions that is a
    superset of (``exact=False``) or exactly (``exact=True``) the regions of
    qualifying objects.  ``expression=None`` means the index gives no
    narrowing at all (planner falls back to a full scan); ``never=True``
    means the condition is statically unsatisfiable.
    """

    expression: RegionExpr | None
    exact: bool
    never: bool = False
    variables: frozenset[str] = frozenset()
    notes: list[str] = field(default_factory=list)


class Translator:
    """Query -> region expression, for one schema + index configuration."""

    def __init__(
        self,
        schema: StructuringSchema,
        config: IndexConfig,
        has_word_index: bool | None = None,
    ) -> None:
        self._schema = schema
        self._config = config
        grammar = schema.grammar
        self._full_rig = derive_full_rig(grammar, include_root=True)
        transparent = schema.transparent_nonterminals()
        self._attr_rig = derive_partial_rig(
            grammar, set(grammar.nonterminals) - transparent
        )
        self._indexed = config.indexed_names(grammar.nonterminals, grammar.start)
        self._transparent = transparent
        self._partial_rig = derive_partial_rig(grammar, self._indexed)
        self._scoped: tuple[ScopedRegionSpec, ...] = config.scoped
        self._has_word_index = (
            config.word_index if has_word_index is None else has_word_index
        )
        self._atomic = {
            nonterminal
            for nonterminal, description in schema.describe_types().items()
            if isinstance(description, AtomicTypeDesc)
        }

    # -- public API -------------------------------------------------------------

    @property
    def indexed_names(self) -> frozenset[str]:
        return self._indexed

    @property
    def attribute_rig(self) -> RegionInclusionGraph:
        return self._attr_rig

    @property
    def partial_rig(self) -> RegionInclusionGraph:
        return self._partial_rig

    def effective_rig(self) -> RegionInclusionGraph:
        """The partial RIG extended with scoped-index nodes (a scoped node
        copies its source's edges — a sound over-approximation, since scoped
        instances are subsets of their source's)."""
        graph = RegionInclusionGraph(
            nodes=self._partial_rig.nodes, edges=self._partial_rig.edges
        )
        for source, target in self._partial_rig.coincident_edges:
            graph.mark_coincident(source, target)
        for spec in self._scoped:
            graph.add_node(spec.name)
            if spec.source in self._partial_rig.nodes:
                for target in self._partial_rig.successors(spec.source):
                    graph.add_edge(spec.name, target)
                for origin in self._partial_rig.predecessors(spec.source):
                    graph.add_edge(origin, spec.name)
            else:
                # The underlying source is not itself indexed: connect the
                # scoped node by contraction through unindexed names.
                extended = derive_partial_rig(
                    self._schema.grammar, set(self._indexed) | {spec.source}
                )
                for target in extended.successors(spec.source):
                    graph.add_edge(spec.name, target)
                for origin in extended.predecessors(spec.source):
                    graph.add_edge(origin, spec.name)
        return graph

    def translate_query(self, query: Query) -> TranslatedCondition:
        """Translate a single-source query's WHERE clause, anchored at its
        source class."""
        if query.source_class not in self._indexed:
            return TranslatedCondition(
                expression=None,
                exact=False,
                notes=[f"source class {query.source_class!r} is not indexed"],
            )
        return self._translate_condition(query.where, query.source_class)

    def translate_condition_for(self, condition: Condition, class_name: str) -> TranslatedCondition:
        """Translate one condition anchored at a class (multi-variable
        planning translates each variable's conjuncts separately)."""
        if class_name not in self._indexed:
            return TranslatedCondition(
                expression=None,
                exact=False,
                notes=[f"class {class_name!r} is not indexed"],
            )
        return self._translate_condition(condition, class_name)

    # -- condition translation -----------------------------------------------------

    def _translate_condition(self, condition: Condition, source: str) -> TranslatedCondition:
        anchor = Name(source)
        if isinstance(condition, TrueCondition):
            return TranslatedCondition(expression=anchor, exact=True)
        if isinstance(condition, Comparison):
            return self._translate_comparison(condition, source)
        if isinstance(condition, PathComparison):
            return self._translate_join_narrowing(condition, source)
        if isinstance(condition, And):
            left = self._translate_condition(condition.left, source)
            right = self._translate_condition(condition.right, source)
            return self._combine(left, right, "intersect", source)
        if isinstance(condition, Or):
            left = self._translate_condition(condition.left, source)
            right = self._translate_condition(condition.right, source)
            return self._combine(left, right, "union", source)
        if isinstance(condition, Not):
            inner = self._translate_condition(condition.child, source)
            if inner.never:
                return TranslatedCondition(expression=anchor, exact=True)
            if inner.exact and inner.expression is not None:
                return TranslatedCondition(
                    expression=SetOp("difference", anchor, inner.expression),
                    exact=True,
                    variables=inner.variables,
                )
            return TranslatedCondition(
                expression=anchor,
                exact=False,
                variables=inner.variables,
                notes=inner.notes + ["NOT over an approximate translation widens to all regions"],
            )
        raise TranslationError(f"cannot translate condition {condition!r}")

    def _combine(
        self,
        left: TranslatedCondition,
        right: TranslatedCondition,
        kind: str,
        source: str,
    ) -> TranslatedCondition:
        if kind == "intersect":
            if left.never or right.never:
                return TranslatedCondition(
                    expression=None, exact=True, never=True, notes=["statically empty"]
                )
        else:
            if left.never:
                return right
            if right.never:
                return left
        if left.expression is None or right.expression is None:
            if kind == "intersect":
                survivor = left if left.expression is not None else right
                if survivor.expression is not None:
                    return replace(survivor, exact=False)
            return TranslatedCondition(
                expression=None,
                exact=False,
                variables=left.variables | right.variables,
                notes=left.notes + right.notes,
            )
        shared = left.variables & right.variables
        exact = left.exact and right.exact and not shared
        notes = left.notes + right.notes
        if shared:
            notes.append(
                f"variables {sorted(shared)} shared across conditions: "
                "consistency is checked in the filtering phase"
            )
        return TranslatedCondition(
            expression=SetOp(kind, left.expression, right.expression),
            exact=exact,
            variables=left.variables | right.variables,
            notes=notes,
        )

    def _translate_comparison(self, condition: Comparison, source: str) -> TranslatedCondition:
        if condition.op == "<>":
            return TranslatedCondition(
                expression=Name(source),
                exact=False,
                variables=frozenset(condition.path.variable_names()),
                notes=["'<>' comparisons are checked in the filtering phase"],
            )
        if condition.op == "like":
            translated = self.translate_path(
                source, condition.path, word=condition.prefix, prefix=True
            )
            if translated.exact:
                # Lexical-prefix narrowing is always verified by filtering
                # (a multi-word value can start with the prefix without any
                # single token doing so exclusively).
                translated = replace(
                    translated,
                    exact=False,
                    notes=translated.notes
                    + ["LIKE narrows via word-prefix containment"],
                )
            return translated
        return self.translate_path(
            source, condition.path, word=condition.literal
        )

    def _translate_join_narrowing(
        self, condition: PathComparison, source: str
    ) -> TranslatedCondition:
        """Structural narrowing for a join: sources that contain endpoint
        regions of both paths (the value comparison happens later)."""
        left = self.translate_path(source, condition.left, word=None)
        right = self.translate_path(source, condition.right, word=None)
        variables = frozenset(condition.left.variable_names()) | frozenset(
            condition.right.variable_names()
        )
        if left.expression is None or right.expression is None:
            return TranslatedCondition(
                expression=None, exact=False, variables=variables,
                notes=left.notes + right.notes,
            )
        expression = SetOp("intersect", left.expression, right.expression)
        return TranslatedCondition(
            expression=expression,
            exact=False,
            variables=variables,
            notes=left.notes + right.notes + ["join values are compared inside the narrowed regions"],
        )

    # -- path translation --------------------------------------------------------------

    def translate_path(
        self, source: str, path: PathExpr, word: str | None, prefix: bool = False
    ) -> TranslatedCondition:
        """Translate one ``r.p [= w]`` into a source-region expression.

        ``prefix=True`` selects by word prefix (LIKE): always a containment
        narrowing, verified in the filtering phase.
        """
        variables = frozenset(path.variable_names())
        try:
            resolved_paths = self._resolve(source, path)
        except TranslationError as error:
            return TranslatedCondition(
                expression=Name(source), exact=False, variables=variables,
                notes=[str(error)],
            )
        if not resolved_paths:
            # The path matches no attribute structure: no object can satisfy
            # an equality on it.
            return TranslatedCondition(
                expression=None, exact=True, never=word is not None,
                variables=variables,
                notes=[f"path {path.render()!r} matches no attribute path"],
            )
        star_repeats = _repeated_star_variables(path)
        branches: list[TranslatedCondition] = []
        for resolved in resolved_paths:
            branches.append(self._translate_resolved(source, resolved, word, prefix))
        expression: RegionExpr | None = None
        exact = all(branch.exact for branch in branches) and not star_repeats
        notes: list[str] = [note for branch in branches for note in branch.notes]
        if star_repeats:
            notes.append(
                f"star variables {sorted(star_repeats)} occur more than once: "
                "consistency is checked in the filtering phase"
            )
        for branch in branches:
            if branch.expression is None:
                continue
            expression = (
                branch.expression
                if expression is None
                else SetOp("union", expression, branch.expression)
            )
        if expression is None:
            return TranslatedCondition(
                expression=None, exact=True, never=word is not None,
                variables=variables, notes=notes,
            )
        if word is not None:
            # Value comparisons on non-atomic endpoints are never true.
            satisfiable = any(
                resolved.trailing_star or resolved.nodes[-1] in self._atomic
                for resolved in resolved_paths
            )
            if not satisfiable:
                endpoint_types = {resolved.nodes[-1] for resolved in resolved_paths}
                return TranslatedCondition(
                    expression=None, exact=True, never=True, variables=variables,
                    notes=[f"endpoint(s) {sorted(endpoint_types)} are not atomic"],
                )
        return TranslatedCondition(
            expression=expression, exact=exact, variables=variables, notes=notes
        )

    def endpoint_chain(
        self, source: str, path: PathExpr
    ) -> tuple[RegionExpr, bool] | None:
        """The projection chain locating a path's *endpoint* regions
        (Section 5.2: ``Last_Name ⊂d Name ⊂d Authors ⊂d Reference``).

        Returns ``(expression, exact)``; ``exact`` means each located region
        is precisely one attribute value's span and the path context is
        unambiguous, so region text can stand in for the value in a join.
        Its gaps follow a selection's rule (:meth:`_index_chain`): ``⊂d``
        only where it holds on every instance, else ``⊂`` and inexact.
        ``None`` when the index cannot anchor the chain.  The planner
        builds a join's two chains once (``Plan.join_chains``).
        """
        try:
            resolved_paths = self._resolve(source, path)
        except TranslationError:
            return None
        expression: RegionExpr | None = None
        # A source region inside another would hold that one's endpoints too.
        exact = source not in reach_plus(self._full_rig, source)
        for resolved in resolved_paths:
            chain = self._index_chain(resolved)
            if (
                chain is None
                or len(chain.kept) < 2
                or chain.kept[-1][0] != len(resolved.nodes) - 1
                or resolved.trailing_star
            ):
                # No region below the source, or the endpoint attribute is
                # not indexed: other regions would hold the wrong text.
                return None
            exact = exact and chain.exact and resolved.nodes[-1] in self._atomic
            branch: RegionExpr = Name(chain.kept[0][1])
            for (_, name), direct in zip(chain.kept[1:], chain.direct):
                op = DIRECTLY_INCLUDED if direct else INCLUDED
                branch = Inclusion(op=op, left=Name(name), right=branch)
            expression = (
                branch if expression is None else SetOp("union", expression, branch)
            )
        if expression is None:
            return None
        return expression, exact

    def projection_chain(self, query: Query) -> RegionExpr | None:
        """The chain that answers ``SELECT r.p`` from the index (Section 5:
        ``p``'s endpoint region ``⊂d`` the selected object), whose regions
        hold values of ``p``'s last attribute.

        ``None`` unless the query has one output ``r.p`` with no variables,
        the endpoint's value reads straight off its region text
        (:meth:`~repro.schema.structuring.StructuringSchema.region_reader`)
        and :meth:`endpoint_chain` is exact.
        """
        if len(query.outputs) != 1:
            return None
        output = query.outputs[0]
        if not output.steps or output.has_variables() or output.var != query.var:
            return None
        if self._schema.region_reader(output.steps[-1].name) is None:
            return None
        chain = self.endpoint_chain(query.source_class, output)
        if chain is None or not chain[1]:
            return None
        return chain[0]

    def _direct_gap_is_exact(self, upper: str, lower: str) -> bool:
        """Does ``lower ⊂d upper`` find, inside every ``upper`` region,
        exactly the ``lower`` regions derived from it through unindexed
        regions only (the walks :meth:`_gap_is_exact` matches against the
        queried path), whatever the instance?

        Every full-RIG walk from ``upper`` to ``lower`` is followed.  ``⊂d``
        looks through an indexed region that shares an end's extent, so a
        walk through an indexed region is found on some instances and not
        on others, unless that region surely lies strictly between: cut
        off from ``upper``'s extent by a step that cannot coincide, and
        from ``lower``'s by a later one.  Such a walk is never found, which
        is wrong only if it is one the path asks for (every indexed region
        on it a transparent wrapper, such as an indexed ``Title -> "<t>"
        TitleText "</t>"``).  A walk that can reach ``lower`` round a cycle
        (nested structure) fails the test.  A starless gap that fails is
        simple inclusion and inexact, in selections and endpoint chains
        alike (:meth:`_index_chain`).
        """
        rig = self._full_rig
        coincident_edges = rig.coincident_edges
        scoped_sources = {spec.source for spec in self._scoped}
        leads_down = co_reach_plus(rig, lower)

        def indexed(node: str) -> bool:
            return node in self._indexed or node in scoped_sources

        def walk(node, on_path, apart, crossed, pending, asked) -> bool:
            # ``apart``: a step that cannot coincide was taken since upper;
            # ``crossed``: an indexed region lies on the walk;
            # ``pending``: one of them is cut off from upper's extent, and
            # every step since may keep its extent; ``asked``: every
            # indexed region crossed is a transparent wrapper.
            for child in rig.successors(node):
                if child != lower and child not in leads_down:
                    continue
                coincident = (node, child) in coincident_edges
                if pending and not coincident:
                    # An indexed region surely lies strictly between.
                    if asked:
                        return False
                    continue
                if child == lower:
                    if crossed:
                        return False
                    continue
                if child in on_path:
                    return False
                child_apart = apart or not coincident
                child_indexed = indexed(child)
                if not walk(
                    child,
                    on_path | {child},
                    child_apart,
                    crossed or child_indexed,
                    pending or (child_indexed and child_apart),
                    asked and (not child_indexed or child in self._transparent),
                ):
                    return False
            return True

        return walk(upper, frozenset({upper}), False, False, False, True)

    # -- stage 1: resolution over the attribute RIG ----------------------------------------

    def _resolve(self, source: str, path: PathExpr) -> list[ResolvedPath]:
        if source not in self._attr_rig.nodes:
            raise TranslationError(f"class {source!r} is not a grammar non-terminal")
        results: list[ResolvedPath] = []

        def walk(
            node: str,
            steps: tuple,
            nodes: tuple[str, ...],
            loose: tuple[bool, ...],
            bindings: dict[str, str],
            pending_loose: bool,
        ) -> None:
            if not steps:
                results.append(
                    ResolvedPath(
                        nodes=nodes,
                        loose_after=loose,
                        bindings=tuple(sorted(bindings.items())),
                        trailing_star=pending_loose,
                    )
                )
                return
            step, rest = steps[0], steps[1:]
            if isinstance(step, StarVar):
                walk(node, rest, nodes, loose, bindings, True)
                return
            if isinstance(step, Attr):
                if pending_loose:
                    if step.name in reach_plus(self._attr_rig, node):
                        walk(
                            step.name,
                            rest,
                            nodes + (step.name,),
                            loose + (True,),
                            bindings,
                            False,
                        )
                    return
                if self._attr_rig.has_edge(node, step.name):
                    walk(
                        step.name,
                        rest,
                        nodes + (step.name,),
                        loose + (False,),
                        bindings,
                        False,
                    )
                return
            if isinstance(step, SeqVars):
                if pending_loose:
                    raise TranslationError(
                        "a star variable directly followed by a plain variable "
                        "is not supported"
                    )
                bound = bindings.get(step.name)
                successors = (
                    [bound]
                    if bound is not None
                    else sorted(self._attr_rig.successors(node))
                )
                for successor in successors:
                    if not self._attr_rig.has_edge(node, successor):
                        continue
                    new_bindings = dict(bindings)
                    new_bindings[step.name] = successor
                    walk(
                        successor,
                        rest,
                        nodes + (successor,),
                        loose + (False,),
                        new_bindings,
                        False,
                    )
                return
            raise TranslationError(f"unknown path step {step!r}")

        walk(source, tuple(path.steps), (source,), (), {}, False)
        return results

    # -- stage 2+3: projection to indexed names with exactness --------------------------------

    def _index_chain(self, resolved: ResolvedPath) -> IndexChain | None:
        """The one path-to-chain rule, for selections and endpoint chains
        alike: the indexed names a resolved path keeps; each gap direct
        where it has no star and :meth:`_direct_gap_is_exact` holds, simple
        inclusion (a superset) elsewhere; exact iff every gap passes
        :meth:`_gap_is_exact` and every starless one is direct.  ``None``
        when the source itself is not kept."""
        kept = tuple(
            (position, name)
            for position in range(len(resolved.nodes))
            if (name := self._index_name_for(resolved, position)) is not None
        )
        if not kept or kept[0][0] != 0:
            return None
        direct: list[bool] = []
        notes: list[str] = []
        for (upper, _), (lower, _) in zip(kept, kept[1:]):
            gap = f"gap {resolved.nodes[upper]!r} -> {resolved.nodes[lower]!r}"
            if not self._gap_is_exact(resolved, upper, lower):
                notes.append(f"{gap} is ambiguous under this index")
            loose = any(resolved.loose_after[upper:lower])
            direct.append(
                not loose
                and self._direct_gap_is_exact(resolved.nodes[upper], resolved.nodes[lower])
            )
            if not loose and not direct[-1]:
                notes.append(f"{gap}: direct inclusion may miss or add regions, so simple")
        return IndexChain(kept, tuple(direct), not notes, tuple(notes))

    def _translate_resolved(
        self, source: str, resolved: ResolvedPath, word: str | None, prefix: bool = False
    ) -> TranslatedCondition:
        chain = self._index_chain(resolved)
        if chain is None:
            return TranslatedCondition(
                expression=Name(source), exact=False,
                notes=[f"source {source!r} not indexed"],
            )
        notes: list[str] = []
        exact = True

        # Build the chain bottom-up.
        last_position, last_name = chain.kept[-1]
        endpoint_indexed = last_position == len(resolved.nodes) - 1
        select_word = word
        select_mode = "exact"
        if select_word is not None and not self._has_word_index:
            select_word = None
            exact = False
            notes.append("no word index: selection deferred to filtering phase")
        if select_word is not None and (not endpoint_indexed or resolved.trailing_star):
            select_mode = "contains"
            exact = False
            if resolved.trailing_star:
                notes.append("trailing star variable: containment selection")
            else:
                dropped = resolved.nodes[last_position + 1 :]
                notes.append(
                    f"endpoint attributes {list(dropped)} not indexed: "
                    "containment selection on the deepest indexed region"
                )
        tail: RegionExpr = Name(last_name)
        if select_word is not None and prefix:
            prefix_tokens = tokenize_words(select_word)
            if len(prefix_tokens) == 1 and prefix_tokens[0] == select_word:
                tail = Select(child=tail, word=select_word, mode="prefix_contains")
            else:
                exact = False
                notes.append(
                    f"LIKE prefix {select_word!r} is not a single word stem: "
                    "no index narrowing"
                )
        elif select_word is not None:
            literal_tokens = tokenize_words(select_word)
            if not literal_tokens:
                exact = False
                notes.append(
                    f"constant {select_word!r} contains no indexable word: "
                    "selection deferred to filtering phase"
                )
            elif len(literal_tokens) > 1 or literal_tokens[0] != select_word:
                # Multi-word or punctuated constants: conjunctive word
                # containment, verified in the filtering phase.
                for token in literal_tokens:
                    tail = Select(child=tail, word=token, mode="contains")
                if exact:
                    exact = False
                    notes.append(
                        f"constant {select_word!r} is not a single word: "
                        "containment selection"
                    )
            else:
                tail = Select(child=tail, word=select_word, mode=select_mode)
        elif word is not None:
            # No usable selection at all: structural narrowing only.
            exact = False

        expression = tail
        for (_, upper_name), direct in zip(chain.kept[-2::-1], chain.direct[::-1]):
            op = DIRECTLY_INCLUDING if direct else INCLUDING
            expression = Inclusion(op=op, left=Name(upper_name), right=expression)
        return TranslatedCondition(
            expression=expression,
            exact=exact and chain.exact,
            notes=notes + list(chain.notes),
        )

    def _index_name_for(self, resolved: ResolvedPath, position: int) -> str | None:
        """The index name to use for a path node, or None if unindexed.

        Prefers a scoped index whose scope appears earlier in the path (an
        ancestor); otherwise the plain name when indexed."""
        spec = self._scoped_spec_in_use(resolved, position)
        if spec is not None:
            return spec.name
        node = resolved.nodes[position]
        return node if node in self._indexed else None

    def _gap_is_exact(
        self, resolved: ResolvedPath, upper_position: int, lower_position: int
    ) -> bool:
        """Section 6.3, refined: the gap is exact iff every alternative
        attribute path between its endpoints (realisable under the index in
        use) matches the queried pattern."""
        upper = resolved.nodes[upper_position]
        lower = resolved.nodes[lower_position]
        tokens: list[str | None] = []
        for position in range(upper_position, lower_position):
            if resolved.loose_after[position]:
                tokens.append(None)  # wildcard joint
            if position + 1 < lower_position:
                tokens.append(resolved.nodes[position + 1])
        if tokens and all(token is None for token in tokens):
            return True  # "any path is acceptable" (Section 5.3)
        scoped_spec = self._scoped_spec_in_use(resolved, lower_position)
        alternatives = self._alternative_interiors(upper, lower, scoped_spec, resolved)
        if alternatives is None:
            return False  # unindexed cycle: unbounded alternative walks
        for interior in alternatives:
            if not _matches_pattern(interior, tokens):
                return False
        return True

    def _scoped_spec_in_use(
        self, resolved: ResolvedPath, position: int
    ) -> ScopedRegionSpec | None:
        node = resolved.nodes[position]
        ancestors = set(resolved.nodes[:position])
        for spec in self._scoped:
            if spec.source == node and spec.scope in ancestors:
                return spec
        return None

    def _alternative_interiors(
        self,
        upper: str,
        lower: str,
        scoped_spec: ScopedRegionSpec | None,
        resolved: ResolvedPath,
    ) -> list[tuple[str, ...]] | None:
        """All interior attribute sequences of paths ``upper -> lower``
        through unindexed interiors; ``None`` when a cycle makes them
        unbounded."""
        interiors: list[tuple[str, ...]] = []
        unbounded = False

        def walk(node: str, interior: tuple[str, ...], visited: frozenset[str]) -> None:
            nonlocal unbounded
            for successor in sorted(self._attr_rig.successors(node)):
                if successor == lower:
                    interiors.append(interior)
                    continue
                if successor in self._indexed:
                    continue
                if successor in visited:
                    unbounded = True
                    continue
                walk(successor, interior + (successor,), visited | {successor})

        walk(upper, (), frozenset({upper}))
        if unbounded:
            return None
        if scoped_spec is not None:
            # Only alternatives realisable inside the scope survive: the
            # scope must be able to enclose the endpoint.  It encloses it
            # when it appears on the interior, equals/encloses `upper`
            # (an ancestor of upper reaches it), or when uncertain we keep
            # the alternative (conservative towards "inexact").
            scope = scoped_spec.scope
            upper_in_scope = upper == scope or upper in reach_plus(self._attr_rig, scope)
            if not upper_in_scope:
                interiors = [
                    interior for interior in interiors if scope in interior
                ]
        return interiors


def _matches_pattern(interior: tuple[str, ...], tokens: list[str | None]) -> bool:
    """Anchored glob match: ``None`` tokens match any (possibly empty)
    subsequence, names match one position."""
    memo: dict[tuple[int, int], bool] = {}

    def match(token_index: int, position: int) -> bool:
        key = (token_index, position)
        if key in memo:
            return memo[key]
        if token_index == len(tokens):
            result = position == len(interior)
        else:
            token = tokens[token_index]
            if token is None:
                result = any(
                    match(token_index + 1, next_position)
                    for next_position in range(position, len(interior) + 1)
                )
            else:
                result = (
                    position < len(interior)
                    and interior[position] == token
                    and match(token_index + 1, position + 1)
                )
        memo[key] = result
        return result

    return match(0, 0)


def _repeated_star_variables(path: PathExpr) -> set[str]:
    seen: set[str] = set()
    repeated: set[str] = set()
    for step in path.steps:
        if isinstance(step, StarVar):
            if step.name in seen:
                repeated.add(step.name)
            seen.add(step.name)
    return repeated
