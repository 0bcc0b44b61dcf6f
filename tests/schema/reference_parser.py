"""Test-only oracle: the interpretive parser and instantiation, verbatim.

This is the backtracking recursive-descent parser (and the natural-action
instantiation walk) that :mod:`repro.schema.parser` and
:class:`~repro.schema.structuring.StructuringSchema` replaced with a
compiled form.  It re-derives every grammar fact at every parse node, which
makes it slow but obviously faithful to the grammar; the differential tests
in ``test_compiled_parser.py`` check the compiled code against it tree for
tree, error for error, and value for value.  Nothing in ``src`` imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.algebra.counters import OperationCounters
from repro.errors import ParseError
from repro.schema.grammar import (
    Grammar,
    Literal,
    NonTerminal,
    Rule,
    SeqRule,
    StarRule,
    Symbol,
    TNumber,
    TQuoted,
    TUntil,
    TWord,
)

_WHITESPACE = " \t\r\n"


@dataclass(frozen=True)
class ParseNode:
    """A node of the parse tree.

    ``symbol`` is the non-terminal name for inner nodes, or ``"#word"`` /
    ``"#string"`` / ``"#text"`` / ``"#number"`` for terminal captures.
    ``start``/``end`` is the node's region (half-open offsets into the parsed
    text).  ``text`` is the captured value for terminal nodes, ``None``
    otherwise.  ``rule`` records which grammar rule produced an inner node
    (actions dispatch on it).
    """

    symbol: str
    start: int
    end: int
    children: tuple["ParseNode", ...] = ()
    text: str | None = None
    rule: Rule | None = None

    @property
    def is_terminal(self) -> bool:
        return self.symbol.startswith("#")

    def walk(self) -> Iterator["ParseNode"]:
        """Pre-order traversal."""
        yield self
        for child in self.children:
            yield from child.walk()

    def nonterminal_spans(self) -> Iterator[tuple[str, int, int]]:
        """Yield ``(non-terminal, start, end)`` for every inner node — the
        raw region-index entries."""
        for node in self.walk():
            if not node.is_terminal:
                yield node.symbol, node.start, node.end

    def child_map(self) -> dict[str, "ParseNode"]:
        """Map each non-terminal child's symbol to its node (valid because
        footnote 4 forbids repeated non-terminals in one rule)."""
        return {child.symbol: child for child in self.children if not child.is_terminal}


class Parser:
    """Parse text (or a slice of it) according to a grammar."""

    def __init__(self, grammar: Grammar) -> None:
        self._grammar = grammar

    @property
    def grammar(self) -> Grammar:
        return self._grammar

    def parse(
        self,
        text: str,
        symbol: str | None = None,
        start: int = 0,
        end: int | None = None,
        require_all: bool = True,
        counters: OperationCounters | None = None,
    ) -> ParseNode:
        """Parse ``text[start:end]`` as non-terminal ``symbol``.

        Parameters
        ----------
        symbol:
            The non-terminal to parse; defaults to the grammar's start symbol.
        start, end:
            The slice of ``text`` to parse (offsets in the returned tree are
            absolute, so region indexes line up with the corpus text).
        require_all:
            When true, raise :class:`ParseError` unless the whole slice
            (minus trailing whitespace) is consumed.
        counters:
            Optional tally; the number of characters scanned is added to
            ``bytes_scanned`` — this is what makes "how much of the file did
            we touch" measurable in the benchmarks.
        """
        target = symbol if symbol is not None else self._grammar.start
        state = _State(text=text, limit=end if end is not None else len(text))
        node = self._parse_nonterminal(state, target, start)
        if node is None:
            raise ParseError(
                f"cannot parse as <{target}>; furthest failure expecting "
                f"{state.expected!r}",
                position=state.furthest,
                symbol=target,
            )
        position = self._skip_whitespace(state, node.end)
        if require_all and position < state.limit:
            raise ParseError(
                f"trailing input after <{target}>: "
                f"{text[position:position + 30]!r}",
                position=position,
                symbol=target,
            )
        if counters is not None:
            counters.scan(node.end - start)
        return node

    # -- internals -------------------------------------------------------------

    def _skip_whitespace(self, state: "_State", position: int) -> int:
        text, limit = state.text, state.limit
        while position < limit and text[position] in _WHITESPACE:
            position += 1
        return position

    def _parse_nonterminal(self, state: "_State", name: str, position: int) -> ParseNode | None:
        for rule in self._grammar.rules_for(name):
            node = self._parse_rule(state, rule, position)
            if node is not None:
                return node
        return None

    def _parse_rule(self, state: "_State", rule: Rule, position: int) -> ParseNode | None:
        if isinstance(rule, SeqRule):
            return self._parse_sequence(state, rule, position)
        return self._parse_star(state, rule, position)

    def _parse_sequence(self, state: "_State", rule: SeqRule, position: int) -> ParseNode | None:
        start = self._skip_whitespace(state, position)
        children: list[ParseNode] = []
        cursor = start
        content_end = start
        for item in rule.items:
            result = self._parse_symbol(state, item, cursor)
            if result is None:
                return None
            node, cursor = result
            if node is not None:
                children.append(node)
            content_end = cursor
        return ParseNode(
            symbol=rule.lhs,
            start=start,
            end=content_end,
            children=tuple(children),
            rule=rule,
        )

    def _parse_star(self, state: "_State", rule: StarRule, position: int) -> ParseNode | None:
        start = self._skip_whitespace(state, position)
        children: list[ParseNode] = []
        cursor = start
        content_end = start
        while True:
            attempt_from = cursor
            if children and rule.separator is not None:
                after_sep = self._match_literal(state, rule.separator, cursor)
                if after_sep is None:
                    break
                attempt_from = after_sep
            child = self._parse_nonterminal(state, rule.item.name, attempt_from)
            if child is None:
                break
            children.append(child)
            cursor = child.end
            content_end = child.end
        if len(children) < rule.min_count:
            return None
        return ParseNode(
            symbol=rule.lhs,
            start=start if children else start,
            end=content_end if children else start,
            children=tuple(children),
            rule=rule,
        )

    def _parse_symbol(
        self, state: "_State", symbol: Symbol, position: int
    ) -> tuple[ParseNode | None, int] | None:
        """Parse one rule item.  Returns ``(node_or_None, new_position)`` on
        success (literals produce no node), or ``None`` on failure."""
        if isinstance(symbol, NonTerminal):
            node = self._parse_nonterminal(state, symbol.name, position)
            if node is None:
                return None
            return node, node.end
        if isinstance(symbol, Literal):
            after = self._match_literal(state, symbol, position)
            if after is None:
                return None
            return None, after
        return self._parse_terminal(state, symbol, position)

    def _match_literal(self, state: "_State", literal: Literal, position: int) -> int | None:
        position = self._skip_whitespace(state, position)
        end = position + len(literal.text)
        if end <= state.limit and state.text.startswith(literal.text, position):
            return end
        state.note_failure(position, literal.text)
        return None

    def _parse_terminal(
        self, state: "_State", symbol: Symbol, position: int
    ) -> tuple[ParseNode, int] | None:
        text, limit = state.text, state.limit
        position = self._skip_whitespace(state, position)

        if isinstance(symbol, TWord):
            cursor = position
            while cursor < limit and (text[cursor].isalnum() or text[cursor] in symbol.extra):
                cursor += 1
            if cursor == position:
                state.note_failure(position, "<word>")
                return None
            node = ParseNode("#word", position, cursor, text=text[position:cursor])
            return node, cursor

        if isinstance(symbol, TNumber):
            cursor = position
            while cursor < limit and text[cursor].isdigit():
                cursor += 1
            if cursor == position:
                state.note_failure(position, "<number>")
                return None
            node = ParseNode("#number", position, cursor, text=text[position:cursor])
            return node, cursor

        if isinstance(symbol, TQuoted):
            if position >= limit or text[position] != symbol.quote:
                state.note_failure(position, symbol.quote)
                return None
            closing = text.find(symbol.quote, position + 1, limit)
            if closing < 0:
                state.note_failure(position, f"closing {symbol.quote}")
                return None
            inner_start, inner_end = position + 1, closing
            node = ParseNode("#string", inner_start, inner_end, text=text[inner_start:inner_end])
            return node, closing + 1

        if isinstance(symbol, TUntil):
            raw_end = limit
            for stop in symbol.stops:
                stop_at = text.find(stop, position, limit)
                if 0 <= stop_at < raw_end:
                    raw_end = stop_at
            captured_start, captured_end = position, raw_end
            while captured_start < captured_end and text[captured_start] in _WHITESPACE:
                captured_start += 1
            while captured_end > captured_start and text[captured_end - 1] in _WHITESPACE:
                captured_end -= 1
            if captured_end == captured_start and not symbol.allow_empty:
                state.note_failure(position, f"text before {symbol.stop!r}")
                return None
            node = ParseNode(
                "#text", captured_start, captured_end, text=text[captured_start:captured_end]
            )
            return node, raw_end

        raise ParseError(f"unknown symbol {symbol!r}", position=position)


class _State:
    """Shared mutable parse state: the text, the slice limit, and the
    furthest-failure diagnostics."""

    __slots__ = ("text", "limit", "furthest", "expected")

    def __init__(self, text: str, limit: int) -> None:
        self.text = text
        self.limit = limit
        self.furthest = 0
        self.expected = ""

    def note_failure(self, position: int, expected: str) -> None:
        if position >= self.furthest:
            self.furthest = position
            self.expected = expected


# -- instantiation ------------------------------------------------------------
#
# The natural actions and the instantiation walk of StructuringSchema as they
# were before rule facts were computed once per rule: every node re-derives
# its rule's capture list, passthrough-ness and child step names.

from typing import Sequence  # noqa: E402

from repro.db.values import (  # noqa: E402
    AtomicValue,
    ListValue,
    ObjectValue,
    SetValue,
    TupleValue,
    Value,
)
from repro.errors import GrammarError  # noqa: E402
from repro.schema.grammar import is_capturing  # noqa: E402
from repro.schema.pushdown import InstantiationStats, PathTrie  # noqa: E402


def natural_value(
    node: ParseNode,
    child_values: Sequence[tuple[str, Value]],
    *,
    classes: frozenset[str],
    list_valued: frozenset[str],
) -> Value:
    """Apply the natural action for ``node``'s rule."""
    rule = node.rule
    if isinstance(rule, StarRule):
        elements = [value for _, value in child_values]
        if rule.lhs in list_valued:
            return ListValue(elements)
        return SetValue(elements)
    if isinstance(rule, SeqRule):
        # Passthrough is decided by the *rule's* capture arity, not by how
        # many children survived push-down pruning: a two-field tuple pruned
        # to one field must stay a tuple.
        rule_captures = [item for item in rule.items if not _is_literal(item)]
        if len(rule_captures) == 1 and rule.lhs not in classes:
            if not child_values:
                raise GrammarError(
                    f"rule for {rule.lhs!r}: its single capture was pruned away"
                )
            value = child_values[0][1]
            if isinstance(value, AtomicValue) and not value.type_name:
                # Tag a fresh terminal capture with the innermost named
                # non-terminal, so paths can address atomic set elements
                # (``r.Keywords.Keyword``).
                return AtomicValue(text=value.text, type_name=rule.lhs)
            return value
        if not rule_captures:
            raise GrammarError(
                f"rule for {rule.lhs!r} captures nothing; a natural schema "
                "cannot assign it a value"
            )
        attributes = {}
        for symbol, value in child_values:
            if symbol.startswith("#"):
                raise GrammarError(
                    f"rule for {rule.lhs!r} mixes a bare terminal with other "
                    "captures; name intermediate non-terminals instead "
                    "(natural schemas take attribute names from non-terminals)"
                )
            attributes[symbol] = value
        if rule.lhs in classes:
            return ObjectValue(class_name=rule.lhs, attributes=attributes)
        return TupleValue(type_name=rule.lhs, attributes=attributes)
    raise GrammarError(f"node {node.symbol!r} has no rule to act on")


def terminal_value(node: ParseNode) -> AtomicValue:
    """The value of a terminal capture."""
    assert node.text is not None
    return AtomicValue(node.text)


def is_passthrough_rule(rule: object) -> bool:
    """Does this rule's natural action pass a single child value through?"""
    if not isinstance(rule, SeqRule):
        return False
    capturing = [item for item in rule.items if not _is_literal(item)]
    return len(capturing) == 1


def _is_literal(item: object) -> bool:
    from repro.schema.grammar import Literal

    return isinstance(item, Literal)


class ReferenceInstantiator:
    """``StructuringSchema.instantiate`` as it was, over a schema's
    annotations (classes, list-valued non-terminals, custom actions)."""

    def __init__(self, schema) -> None:
        self.classes = schema.classes
        self.list_valued = schema.list_valued
        self.custom_actions = schema.custom_actions

    def instantiate(
        self,
        node: ParseNode,
        needed: PathTrie | None = None,
        stats: InstantiationStats | None = None,
        spans: dict[int, tuple[int, int]] | None = None,
    ) -> Value:
        trie = needed if needed is not None else PathTrie.everything()
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
        passthrough = self._node_is_passthrough(node)
        for child in node.children:
            if child.is_terminal:
                step_name = child.symbol
            else:
                step_name = self._step_name(child)
            if passthrough:
                child_needed = needed  # transparent: same trie applies below
            elif child.is_terminal:
                child_needed = PathTrie.everything()
            else:
                branch = needed.child(step_name)
                if branch is None:
                    if stats is not None:
                        stats.values_skipped += 1
                    continue
                child_needed = branch
            child_values.append(
                (step_name, self._instantiate(child, child_needed, stats, spans))
            )
        value = self._apply_action(node, child_values)
        if (
            spans is not None
            and isinstance(value, ObjectValue)
            and value.class_name == node.symbol
        ):
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

    def _node_is_passthrough(self, node: ParseNode) -> bool:
        if node.symbol in self.classes or node.symbol in self.custom_actions:
            return False
        rule = node.rule
        if not is_passthrough_rule(rule):
            return False
        capturing = [item for item in rule.items if is_capturing(item)]  # type: ignore[union-attr]
        return isinstance(capturing[0], NonTerminal)

    def _step_name(self, node: ParseNode) -> str:
        current = node
        while not current.is_terminal and self._node_is_passthrough(current):
            inner = [child for child in current.children if not child.is_terminal]
            if len(inner) != 1:
                break
            current = inner[0]
        return current.symbol
