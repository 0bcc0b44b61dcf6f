"""The grammar formalism of structuring schemas.

A grammar is an ordered list of rules over a vocabulary of symbols:

- :class:`NonTerminal` — a reference to another rule's left-hand side;
- :class:`Literal` — fixed text that must appear (delimiters, keywords);
- terminal classes that *capture* text:
  :class:`TWord` (a maximal run of word characters),
  :class:`TQuoted` (a quoted string; captures the inner text),
  :class:`TUntil` (raw text up to a stop string),
  :class:`TNumber` (a run of digits).

Rules come in two shapes, mirroring the paper's notation:

- :class:`SeqRule` — ``A -> X1 X2 ... Xn`` (several SeqRules with the same
  left-hand side are ordered alternatives, tried PEG-style);
- :class:`StarRule` — ``A -> B*`` with an optional separator literal,
  written in the paper as ``A -> B* {$$ := ∪ $i}``.

Footnote 4 of the paper requires every non-terminal name to appear at most
once on the right-hand side of a rule (attribute names are non-terminal
names); :meth:`Grammar.validate` enforces this, and also refuses a
separator-less star over an item that can match empty text (its repetition
would never end).

Each rule carries the facts its natural action needs (``captures``,
``passthrough``, ``passes_nonterminal``), computed once per rule rather than
at every parse node that rule produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Union

from repro.errors import GrammarError


@dataclass(frozen=True)
class NonTerminal:
    """A reference to a non-terminal."""

    name: str


@dataclass(frozen=True)
class Literal:
    """Fixed text; matched exactly, captures nothing."""

    text: str

    def __post_init__(self) -> None:
        if not self.text:
            raise GrammarError("literal text must be non-empty")


@dataclass(frozen=True)
class TWord:
    """A maximal run of word characters (alphanumerics plus ``extra``)."""

    extra: str = ".-'"
    capture: str = "word"


@dataclass(frozen=True)
class TQuoted:
    """A quoted string; the captured value and region are the inner text."""

    quote: str = '"'
    capture: str = "string"


@dataclass(frozen=True)
class TUntil:
    """Raw text up to (not including) the earliest ``stop`` string; the
    captured value is whitespace-stripped.

    ``stop`` may be one string or a tuple of alternatives.  ``allow_empty``
    permits zero-length captures (an empty field)."""

    stop: str | tuple[str, ...]
    allow_empty: bool = False
    capture: str = "text"

    @property
    def stops(self) -> tuple[str, ...]:
        return (self.stop,) if isinstance(self.stop, str) else self.stop


@dataclass(frozen=True)
class TNumber:
    """A run of ASCII digits."""

    capture: str = "number"


Terminal = Union[TWord, TQuoted, TUntil, TNumber]
Symbol = Union[NonTerminal, Literal, TWord, TQuoted, TUntil, TNumber]


def is_capturing(symbol: Symbol) -> bool:
    """Does this symbol produce a database value?"""
    return not isinstance(symbol, Literal)


@dataclass(frozen=True)
class SeqRule:
    """``lhs -> items`` (a sequence of symbols)."""

    lhs: str
    items: tuple[Symbol, ...]

    def __init__(self, lhs: str, items: Iterable[Symbol]) -> None:
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "items", tuple(items))

    def nonterminal_names(self) -> list[str]:
        return [item.name for item in self.items if isinstance(item, NonTerminal)]

    @cached_property
    def captures(self) -> tuple[Symbol, ...]:
        """The items that produce values: every item but the literals."""
        return tuple(item for item in self.items if is_capturing(item))

    @cached_property
    def passthrough(self) -> bool:
        """Does the natural action pass its single capture's value through
        (``$$ := $1``)?  Decided by the rule, not by how many children a
        parse node kept after push-down pruning."""
        return len(self.captures) == 1

    @cached_property
    def passes_nonterminal(self) -> bool:
        """Is the single capture a non-terminal?  Such a rule's left-hand
        side is transparent to attribute paths unless the schema makes it
        a class or gives it a custom action."""
        return self.passthrough and isinstance(self.captures[0], NonTerminal)


@dataclass(frozen=True)
class StarRule:
    """``lhs -> item*`` with an optional separator literal.

    ``min_count`` is the minimum number of repetitions (0 for ``*``, 1 for
    ``+``)."""

    lhs: str
    item: NonTerminal
    separator: Literal | None = None
    min_count: int = 0

    #: A star builds a collection; it never passes one value through.
    passthrough = False
    passes_nonterminal = False

    def nonterminal_names(self) -> list[str]:
        return [self.item.name]


Rule = Union[SeqRule, StarRule]


class Grammar:
    """An ordered collection of rules plus a start symbol.

    Multiple rules with the same left-hand side are *ordered alternatives*;
    the parser tries them in declaration order and commits to the first that
    succeeds (PEG semantics) — adequate for the near-deterministic grammars
    structuring schemas use.
    """

    def __init__(self, rules: Iterable[Rule], start: str) -> None:
        self._rules: tuple[Rule, ...] = tuple(rules)
        self.start = start
        self._by_lhs: dict[str, list[Rule]] = {}
        for rule in self._rules:
            self._by_lhs.setdefault(rule.lhs, []).append(rule)
        self._nullable = self._nullable_nonterminals()
        self.validate()

    # -- validation -----------------------------------------------------------

    def validate(self) -> None:
        if self.start not in self._by_lhs:
            raise GrammarError(f"start symbol {self.start!r} has no rules")
        for rule in self._rules:
            for referenced in rule.nonterminal_names():
                if referenced not in self._by_lhs:
                    raise GrammarError(
                        f"rule for {rule.lhs!r} references undefined non-terminal "
                        f"{referenced!r}"
                    )
            if isinstance(rule, SeqRule):
                names = rule.nonterminal_names()
                duplicates = {name for name in names if names.count(name) > 1}
                if duplicates:
                    raise GrammarError(
                        f"rule for {rule.lhs!r} uses non-terminal(s) "
                        f"{sorted(duplicates)} more than once on the right-hand "
                        "side (paper, footnote 4)"
                    )
                if not rule.items:
                    raise GrammarError(f"rule for {rule.lhs!r} has an empty right-hand side")
            elif rule.separator is None and rule.item.name in self._nullable:
                raise GrammarError(
                    f"star rule for {rule.lhs!r} repeats <{rule.item.name}>, which can "
                    "match empty text, with no separator: its repetition would never end"
                )

    # -- nullability ----------------------------------------------------------

    def _nullable_nonterminals(self) -> frozenset[str]:
        """Non-terminals that can derive empty text (fixpoint)."""
        nullable: set[str] = set()
        changed = True
        while changed:
            changed = False
            for rule in self._rules:
                if rule.lhs in nullable:
                    continue
                if isinstance(rule, StarRule):
                    # Zero repetitions, or one empty repetition (a single
                    # repetition has no separator).
                    empty = rule.min_count == 0 or rule.item.name in nullable
                else:
                    empty = all(_derives_empty(item, nullable) for item in rule.items)
                if empty:
                    nullable.add(rule.lhs)
                    changed = True
        return frozenset(nullable)

    @property
    def nullable(self) -> frozenset[str]:
        """The non-terminals that can derive empty text — a zero-width
        region.  One analysis serves grammar validation and the RIG's
        coincidence edges."""
        return self._nullable

    def derives_empty(self, symbol: Symbol) -> bool:
        """Can this rule item match empty text?"""
        return _derives_empty(symbol, self._nullable)

    # -- accessors ------------------------------------------------------------

    @property
    def rules(self) -> tuple[Rule, ...]:
        return self._rules

    def rules_for(self, nonterminal: str) -> list[Rule]:
        try:
            return self._by_lhs[nonterminal]
        except KeyError:
            raise GrammarError(f"no rules for non-terminal {nonterminal!r}") from None

    @property
    def nonterminals(self) -> tuple[str, ...]:
        return tuple(self._by_lhs)

    def __contains__(self, nonterminal: str) -> bool:
        return nonterminal in self._by_lhs

    def iter_edges(self) -> Iterator[tuple[str, str]]:
        """Yield ``(lhs, rhs-non-terminal)`` pairs across all rules — the raw
        material of the full-indexing RIG (Section 4.2)."""
        for rule in self._rules:
            for name in rule.nonterminal_names():
                yield rule.lhs, name

    def is_set_valued(self, nonterminal: str) -> bool:
        """Is every rule for this non-terminal a star rule?"""
        rules = self.rules_for(nonterminal)
        return all(isinstance(rule, StarRule) for rule in rules)

    def coincidence_capable_edges(self) -> Iterator[tuple[str, str]]:
        """Edges ``(A, B)`` where an ``A`` region's extent may coincide with
        its child ``B`` region's extent.

        This happens when ``B`` can be the *sole content* of ``A``: a
        sequence rule whose items are exactly one non-terminal (a unit rule),
        or a star rule with no separator (a single repetition spans the whole
        region) or whose separator only appears between items.
        """
        for rule in self._rules:
            if isinstance(rule, StarRule):
                yield rule.lhs, rule.item.name
            elif isinstance(rule, SeqRule):
                if len(rule.items) == 1 and isinstance(rule.items[0], NonTerminal):
                    yield rule.lhs, rule.items[0].name


def _derives_empty(symbol: Symbol, nullable: frozenset[str] | set[str]) -> bool:
    if isinstance(symbol, NonTerminal):
        return symbol.name in nullable
    if isinstance(symbol, TUntil):
        return symbol.allow_empty
    return False  # a literal is non-empty; TWord / TQuoted / TNumber always consume
