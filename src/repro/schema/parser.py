"""Region-capturing recursive-descent parser, compiled once per grammar.

This is the Yacc stand-in of the reproduction.  Beyond ordinary parsing, it
does the two extra things the paper needs:

1. every non-terminal occurrence records its region — the half-open span of
   text it derives — because those spans *are* the entries of the region
   indexes (Section 4.2: "each index Ai is instantiated by the set of all
   regions corresponding to occurrences of Ai in the parse tree of the
   file");
2. it can parse an arbitrary *slice* of the file starting at any
   non-terminal, which is how candidate regions are filtered under partial
   indexing (Section 6.2: "we parse the regions in the superset").

The parser is PEG-style: ordered alternatives with backtracking, committing
to the first alternative that succeeds, whitespace skipped before every
symbol.  Grammars used by structuring schemas are near-deterministic, so
backtracking is shallow in practice.

Candidate parsing is the inner loop of every query that misses the caches,
so :class:`Parser` compiles the grammar when it is built: each
non-terminal's alternatives become a tuple of *steps*, each a kind code plus
a precompiled matcher.  A literal and the whitespace before it are one
``re`` match, and so is a word terminal; parsing re-derives no grammar fact
at any parse node.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator

from repro.algebra.counters import OperationCounters
from repro.errors import GrammarError, ParseError
from repro.schema.grammar import (
    Grammar,
    Literal,
    NonTerminal,
    Rule,
    SeqRule,
    Symbol,
    TNumber,
    TQuoted,
    TUntil,
    TWord,
)

_WHITESPACE = " \t\r\n"
_WHITESPACE_RE = "[ \\t\\r\\n]*+"
_skip = re.compile(_WHITESPACE_RE).match

# Step kinds.
_NONTERMINAL, _LITERAL, _WORD, _NUMBER, _QUOTED, _UNTIL = range(6)


class ParseNode:
    """A node of the parse tree.

    ``symbol`` is the non-terminal name for inner nodes, or ``"#word"`` /
    ``"#string"`` / ``"#text"`` / ``"#number"`` for terminal captures.
    ``start``/``end`` is the node's region (half-open offsets into the parsed
    text).  ``text`` is the captured value for terminal nodes, ``None``
    otherwise — which is what ``is_terminal`` records.  ``rule`` records
    which grammar rule produced an inner node (actions dispatch on it).
    Nodes are never modified after the parser builds them.
    """

    __slots__ = ("symbol", "start", "end", "children", "text", "rule", "is_terminal")

    def __init__(
        self,
        symbol: str,
        start: int,
        end: int,
        children: tuple["ParseNode", ...] = (),
        text: str | None = None,
        rule: Rule | None = None,
    ) -> None:
        self.symbol = symbol
        self.start = start
        self.end = end
        self.children = children
        self.text = text
        self.rule = rule
        self.is_terminal = text is not None

    def __repr__(self) -> str:
        detail = repr(self.text) if self.is_terminal else f"{len(self.children)} children"
        return f"ParseNode({self.symbol!r}, {self.start}, {self.end}, {detail})"

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
    """Parse text (or a slice of it) according to a grammar.

    The constructor compiles the grammar into one program per non-terminal:
    a list of alternatives ``(rule, lhs, steps, star)`` in declaration
    order.  A sequence alternative has ``steps``, a tuple of ``(kind,
    matcher, detail)``; a star alternative has ``star``, ``(item program,
    separator matcher, separator text, min_count)``.  A non-terminal step's
    matcher is the referenced non-terminal's program itself, so parsing
    follows references without a lookup.
    """

    def __init__(self, grammar: Grammar) -> None:
        self._grammar = grammar
        self._programs: dict[str, list[tuple]] = {name: [] for name in grammar.nonterminals}
        for rule in grammar.rules:
            if isinstance(rule, SeqRule):
                alternative = (rule, rule.lhs, self._compile_steps(rule.items), None)
            else:
                separator = rule.separator
                star = (
                    self._programs[rule.item.name],
                    _optional_literal(separator.text) if separator is not None else None,
                    separator.text if separator is not None else None,
                    rule.min_count,
                )
                alternative = (rule, rule.lhs, (), star)
            self._programs[rule.lhs].append(alternative)

    def _compile_steps(self, items: tuple[Symbol, ...]) -> tuple:
        steps: list[tuple] = []
        for item in items:
            if isinstance(item, Literal):
                steps.append((_LITERAL, _optional_literal(item.text), item.text))
            elif isinstance(item, NonTerminal):
                steps.append((_NONTERMINAL, self._programs[item.name], None))
            elif isinstance(item, TWord):
                extra = "".join(re.escape(char) for char in item.extra)
                # A maximal run of characters that are ``str.isalnum()``
                # (``[^\W_]``, on every code point) or in ``extra``.
                word = f"[^\\W_]*+(?:[{extra}][^\\W_]*+)*+" if extra else "[^\\W_]*+"
                steps.append((_WORD, re.compile(f"{_WHITESPACE_RE}({word})").match, None))
            elif isinstance(item, TNumber):
                steps.append((_NUMBER, None, None))
            elif isinstance(item, TQuoted):
                steps.append((_QUOTED, item.quote, None))
            elif isinstance(item, TUntil):
                expected = None if item.allow_empty else f"text before {item.stop!r}"
                steps.append((_UNTIL, item.stops, expected))
            else:
                raise GrammarError(f"unknown symbol {item!r}")
        return tuple(steps)

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
        program = self._programs.get(target)
        if program is None:
            self._grammar.rules_for(target)  # raises the GrammarError
        limit = end if end is not None else len(text)
        if start > min(limit, len(text)):
            raise ParseError(
                f"cannot parse as <{target}>: slice [{start}, {limit}) starts past "
                "its own end or the end of the text",
                position=start,
                symbol=target,
            )
        state = _State(text, limit)
        node = _parse_nonterminal(state, program, start)
        if node is None:
            raise ParseError(
                f"cannot parse as <{target}>; furthest failure expecting "
                f"{state.expected!r}",
                position=state.furthest,
                symbol=target,
            )
        position = _skip(text, node.end, limit).end()
        if require_all and position < limit:
            raise ParseError(
                f"trailing input after <{target}>: "
                f"{text[position:position + 30]!r}",
                position=position,
                symbol=target,
            )
        if counters is not None:
            counters.scan(node.end - start)
        return node


def terminal_region_reader(symbol: Symbol) -> Callable[[str], str] | None:
    """How to read a terminal's value back from the region of a
    non-terminal whose one rule derives that terminal alone (``Key ->
    word``), or ``None`` for a literal or a non-terminal.

    Such a region starts where the terminal does (whitespace is skipped
    before both) and ends where the rule does: after a quoted string's
    closing quote, and at an until-terminal's stop string, the whitespace
    its value drops included.  An until-terminal that may be empty gets
    ``None``: its empty region can touch the next object's region.
    """
    if isinstance(symbol, (TWord, TNumber)):
        return str
    if isinstance(symbol, TUntil):
        return None if symbol.allow_empty else _rstrip_whitespace
    if isinstance(symbol, TQuoted):
        return _unquote
    return None


def _rstrip_whitespace(text: str) -> str:
    return text.rstrip(_WHITESPACE)


def _unquote(text: str) -> str:
    return text[1:-1]


def _optional_literal(text: str):
    """A matcher that always succeeds: whitespace, then ``text`` as group 1
    if it is there (else where it was expected is ``match.end()``).  The
    whitespace is possessive: as when whitespace is skipped first, a
    literal never starts inside the whitespace before it."""
    return re.compile(f"{_WHITESPACE_RE}({re.escape(text)})?").match


def _parse_nonterminal(state: "_State", program: list[tuple], position: int) -> ParseNode | None:
    """Parse one non-terminal at ``position``: the first alternative of its
    program that succeeds, or ``None`` (the failure is noted on ``state``)."""
    text = state.text
    limit = state.limit
    start = _skip(text, position, limit).end()
    for rule, lhs, steps, star in program:
        children: list[ParseNode] = []
        cursor = start
        if star is not None:
            item, separator, separator_text, min_count = star
            while True:
                attempt_from = cursor
                if children and separator is not None:
                    matched = separator(text, cursor, limit)
                    if matched.lastindex is None:
                        state.note_failure(matched.end(), separator_text)
                        break
                    attempt_from = matched.end()
                node = _parse_nonterminal(state, item, attempt_from)
                if node is None:
                    break
                children.append(node)
                cursor = node.end
            if len(children) >= min_count:
                return ParseNode(lhs, start, cursor, tuple(children), None, rule)
            continue
        for kind, matcher, detail in steps:
            if kind == _NONTERMINAL:
                node = _parse_nonterminal(state, matcher, cursor)
                if node is None:
                    break
                children.append(node)
                cursor = node.end
                continue
            if kind == _LITERAL:
                matched = matcher(text, cursor, limit)
                if matched.lastindex is None:
                    state.note_failure(matched.end(), detail)
                    break
                cursor = matched.end()
                continue
            # A terminal: it starts at ``begin``, after whitespace; the next
            # item starts at ``cursor``.
            if kind == _WORD:
                begin, cursor = matcher(text, cursor, limit).span(1)
                if begin == cursor:
                    state.note_failure(begin, "<word>")
                    break
                node = ParseNode("#word", begin, cursor, (), text[begin:cursor])
            elif kind == _UNTIL:
                # ``matcher`` is the stop strings, ``detail`` the failure
                # message (``None`` when an empty capture is allowed).
                begin = _skip(text, cursor, limit).end()
                cursor = limit
                for stop in matcher:
                    stop_at = text.find(stop, begin, limit)
                    if 0 <= stop_at < cursor:
                        cursor = stop_at
                captured = text[begin:cursor].rstrip(_WHITESPACE)
                if not captured and detail is not None:
                    state.note_failure(begin, detail)
                    break
                node = ParseNode("#text", begin, begin + len(captured), (), captured)
            elif kind == _QUOTED:
                begin = _skip(text, cursor, limit).end()
                if begin >= limit or text[begin] != matcher:
                    state.note_failure(begin, matcher)
                    break
                closing = text.find(matcher, begin + 1, limit)
                if closing < 0:
                    state.note_failure(begin, f"closing {matcher}")
                    break
                node = ParseNode("#string", begin + 1, closing, (), text[begin + 1 : closing])
                cursor = closing + 1
            else:  # _NUMBER
                begin = cursor = _skip(text, cursor, limit).end()
                while cursor < limit and text[cursor].isdigit():
                    cursor += 1
                if cursor == begin:
                    state.note_failure(begin, "<number>")
                    break
                node = ParseNode("#number", begin, cursor, (), text[begin:cursor])
            children.append(node)
        else:
            return ParseNode(lhs, start, cursor, tuple(children), None, rule)
    return None


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
