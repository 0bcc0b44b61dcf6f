"""The :class:`StructuringSchema` façade.

A structuring schema bundles a grammar with its database annotations
(Section 4.1) and provides:

- parsing a file (or a file region) into a parse tree;
- instantiating parse trees into database values, optionally restricted by a
  :class:`~repro.schema.pushdown.PathTrie` (query push-down);
- describing the derived database schema (classes / types), reproducing the
  paper's example annotation listing;
- the *transparency* analysis used by query translation: non-terminals whose
  natural action passes a value through never appear as attribute names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from repro.algebra.counters import OperationCounters
from repro.db.values import AtomicValue, ObjectValue, Value
from repro.errors import GrammarError
from repro.schema.actions import CustomAction, natural_value, terminal_value
from repro.schema.grammar import Grammar, NonTerminal, SeqRule, StarRule
from repro.schema.parser import ParseNode, Parser, terminal_region_reader
from repro.schema.pushdown import InstantiationStats, PathTrie
from repro.schema.types import (
    AtomicTypeDesc,
    ClassTypeDesc,
    ListTypeDesc,
    SetTypeDesc,
    TupleTypeDesc,
    TypeDesc,
)

_EVERYTHING = PathTrie.everything()


@dataclass(frozen=True)
class DatabaseImage:
    """The result of mapping a file into the database: the root value plus
    the parse tree it came from (whose spans feed the region indexes)."""

    root: Value
    tree: ParseNode


class StructuringSchema:
    """A grammar annotated with database programs.

    Parameters
    ----------
    grammar:
        The file grammar.
    classes:
        Non-terminals represented as classes (objects with identity) rather
        than tuple values — e.g. ``{"Reference"}`` for BibTeX.
    list_valued:
        Star non-terminals represented as lists instead of sets.
    actions:
        Optional custom actions per non-terminal, overriding the natural
        ones (for non-natural schemas).
    name:
        A label for diagnostics.
    """

    def __init__(
        self,
        grammar: Grammar,
        classes: Iterable[str] = (),
        list_valued: Iterable[str] = (),
        actions: Mapping[str, CustomAction] | None = None,
        name: str = "",
    ) -> None:
        self.grammar = grammar
        self.classes = frozenset(classes)
        self.list_valued = frozenset(list_valued)
        self.custom_actions = dict(actions or {})
        self.name = name or grammar.start
        unknown = (self.classes | self.list_valued | set(self.custom_actions)) - set(
            grammar.nonterminals
        )
        if unknown:
            raise GrammarError(f"schema annotates unknown non-terminals: {sorted(unknown)}")
        # Non-terminals whose value the schema, not the grammar shape,
        # decides: they are never transparent.
        self._opaque = self.classes | frozenset(self.custom_actions)
        self._parser = Parser(grammar)

    # -- parsing ----------------------------------------------------------------

    @property
    def parser(self) -> Parser:
        return self._parser

    def parse(
        self,
        text: str,
        symbol: str | None = None,
        start: int = 0,
        end: int | None = None,
        counters: OperationCounters | None = None,
    ) -> ParseNode:
        """Parse ``text[start:end]`` as ``symbol`` (default: the start symbol)."""
        return self._parser.parse(text, symbol=symbol, start=start, end=end, counters=counters)

    def database_image(
        self, text: str, counters: OperationCounters | None = None
    ) -> DatabaseImage:
        """Parse the whole text and build its full database value — the
        paper's unoptimized baseline pipeline."""
        tree = self.parse(text, counters=counters)
        return DatabaseImage(root=self.instantiate(tree), tree=tree)

    # -- instantiation ------------------------------------------------------------

    def instantiate(
        self,
        node: ParseNode,
        needed: PathTrie | None = None,
        stats: InstantiationStats | None = None,
        spans: dict[int, tuple[int, int]] | None = None,
    ) -> Value:
        """Build the database value of ``node``.

        ``needed`` restricts construction to the attribute paths a query
        touches ([ACM93] push-down); ``None`` builds everything.  When
        ``spans`` is given, every object's source span is recorded into it
        (``oid -> (start, end)``) as the object is built — callers that map
        answers back to file regions use this instead of assuming any
        correspondence between traversal orders.
        """
        trie = needed if needed is not None else _EVERYTHING
        return self._instantiate(node, trie, stats, spans)

    def _instantiate(
        self,
        node: ParseNode,
        needed: PathTrie,
        stats: InstantiationStats | None,
        spans: dict[int, tuple[int, int]] | None = None,
    ) -> Value:
        if stats is not None:
            stats.nodes_visited += 1
        if node.is_terminal:
            if stats is not None:
                stats.values_built += 1
            return terminal_value(node)
        child_values: list[tuple[str, Value]] = []
        passthrough = self._passes_through(node)
        for child in node.children:
            if child.is_terminal:
                # A terminal capture is always built, whole.
                if stats is not None:
                    stats.nodes_visited += 1
                    stats.values_built += 1
                child_values.append((child.symbol, AtomicValue(child.text)))
                continue
            step_name = self._step_name(child)
            if passthrough:
                child_needed = needed  # transparent: same trie applies below
            else:
                child_needed = needed.child(step_name)
                if child_needed is None:
                    if stats is not None:
                        stats.values_skipped += 1
                    continue
            child_values.append(
                (step_name, self._instantiate(child, child_needed, stats, spans))
            )
        value = self._apply_action(node, child_values)
        if (
            spans is not None
            and isinstance(value, ObjectValue)
            and value.class_name == node.symbol
        ):
            # Record at the node that *created* the object (passthrough
            # wrappers return a child's object under a different symbol and
            # must not widen its span).
            spans[value.oid] = (node.start, node.end)
        if stats is not None:
            stats.values_built += 1
        return value

    def _apply_action(self, node: ParseNode, child_values: list[tuple[str, Value]]) -> Value:
        custom = self.custom_actions.get(node.symbol)
        if custom is not None:
            return custom(node, child_values)
        return natural_value(
            node, child_values, classes=self.classes, list_valued=self.list_valued
        )

    def _passes_through(self, node: ParseNode) -> bool:
        """Does *this parse node's* matched rule pass one non-terminal
        child's value through?  (Per-node variant of transparency: for a
        disjunctive wrapper each node matched exactly one alternative.)"""
        return node.rule.passes_nonterminal and node.symbol not in self._opaque

    def _step_name(self, node: ParseNode) -> str:
        """The attribute/type name a non-terminal child exposes: follow
        passthrough wrappers down to the innermost visible node.  (A
        passthrough node's only child is the non-terminal it passes.)"""
        while self._passes_through(node):
            node = node.children[0]
        return node.symbol

    # -- structural analyses -------------------------------------------------------

    def is_transparent(self, nonterminal: str) -> bool:
        """Is this non-terminal invisible in attribute paths?

        True when *every* rule for it passes one non-terminal child's value
        through and it is neither a class nor custom-acted.  Attribute
        paths, push-down tries, and region selections then address the
        inner name(s): a ``Title -> "<t>" TitleText "</t>"`` wrapper exposes
        the attribute ``TitleText`` whose region is the trimmed inner text —
        which is also the right region for exact word selections.  A
        disjunctive wrapper ``Stmt -> Call | Assign | If`` (footnote 5's
        disjunctive types) is transparent too: paths address ``Call`` /
        ``Assign`` / ``If`` directly.  (``Key -> string`` is a passthrough
        but terminal-backed, so ``Key`` itself is the innermost name and
        stays visible.)
        """
        if nonterminal in self._opaque:
            return False
        return all(rule.passes_nonterminal for rule in self.grammar.rules_for(nonterminal))

    def resolved_name(self, nonterminal: str) -> str:
        """Follow transparent unit rules down to the innermost visible name."""
        seen = {nonterminal}
        current = nonterminal
        while self.is_transparent(current):
            rule = self.grammar.rules_for(current)[0]
            current = rule.captures[0].name  # type: ignore[union-attr]
            if current in seen:
                break
            seen.add(current)
        return current

    def region_reader(self, nonterminal: str) -> Callable[[str], str] | None:
        """How to read ``nonterminal``'s atomic value straight from the text
        of one of its regions, parsing nothing; ``None`` unless it has one
        rule, deriving one terminal and no literal, and the natural action
        (the value is that terminal's text, tagged ``nonterminal``)."""
        if nonterminal in self._opaque:
            return None
        rules = self.grammar.rules_for(nonterminal)
        if len(rules) != 1 or not isinstance(rules[0], SeqRule) or len(rules[0].items) != 1:
            return None
        return terminal_region_reader(rules[0].items[0])

    def transparent_nonterminals(self) -> frozenset[str]:
        return frozenset(
            nonterminal
            for nonterminal in self.grammar.nonterminals
            if self.is_transparent(nonterminal)
        )

    # -- schema description (the paper's annotation listing) -----------------------

    def describe_types(self) -> dict[str, TypeDesc]:
        """Derive the type of each non-terminal (Section 4.1's second part)."""
        described: dict[str, TypeDesc] = {}
        for nonterminal in self.grammar.nonterminals:
            described[nonterminal] = self._type_of(nonterminal, frozenset())
        return described

    def _type_of(self, nonterminal: str, visiting: frozenset[str]) -> TypeDesc:
        if nonterminal in visiting:
            # Recursive type (e.g. self-nested sections): stop at the name.
            return TupleTypeDesc(name=nonterminal, fields={})
        visiting = visiting | {nonterminal}
        rules = self.grammar.rules_for(nonterminal)
        first = rules[0]
        if isinstance(first, StarRule):
            element = self._value_type_name(first.item.name, visiting)
            if nonterminal in self.list_valued:
                return ListTypeDesc(element=element)
            return SetTypeDesc(element=element)
        capturing = first.captures
        if first.passthrough and nonterminal not in self.classes:
            item = capturing[0]
            if isinstance(item, NonTerminal):
                return self._type_of(item.name, visiting)
            return AtomicTypeDesc()
        fields = {
            item.name: self._value_type_name(item.name, visiting)
            for item in capturing
            if isinstance(item, NonTerminal)
        }
        if nonterminal in self.classes:
            return ClassTypeDesc(name=nonterminal, fields=fields)
        return TupleTypeDesc(name=nonterminal, fields=fields)

    def _value_type_name(self, nonterminal: str, visiting: frozenset[str]) -> str:
        """A shallow type name for use inside field listings."""
        if nonterminal in visiting:
            return nonterminal
        described = self._type_of(nonterminal, visiting)
        if isinstance(described, AtomicTypeDesc):
            return "string"
        if isinstance(described, (SetTypeDesc, ListTypeDesc)):
            return described.render()
        return getattr(described, "name", "string")

    def describe(self) -> str:
        """Render the schema the way the paper lists it (classes and types)."""
        lines = [f"/* structuring schema {self.name} */"]
        for nonterminal, described in sorted(self.describe_types().items()):
            if isinstance(described, ClassTypeDesc):
                lines.append(described.render())
        for nonterminal, described in sorted(self.describe_types().items()):
            lines.append(f"Type ({nonterminal}) = {described.render()}")
        return "\n".join(lines)
