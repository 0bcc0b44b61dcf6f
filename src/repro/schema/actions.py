"""Rule actions: the ``{$$ := ...}`` programs of annotated grammars.

A *natural* structuring schema (Section 4.2) derives its actions from the
grammar shape:

- star rules ``A -> B*`` build a set (``$$ := ∪ $i``) — or a list when the
  schema declares ``A`` list-valued;
- sequence rules with several capturing items build a tuple (or a new object
  when ``A`` is declared a class), with attributes named after the
  non-terminals (``$$ := tuple(B1: $1, ..., Bn: $n)``);
- sequence rules with a single capturing item pass the child's value through
  (``$$ := $1``) — this covers atomic fields like ``Key -> string`` and unit
  rules, whose non-terminals are *transparent* in attribute paths.

The shape facts these actions dispatch on (``captures``, ``passthrough``,
``passes_nonterminal``) belong to the rule and are computed once per rule
(:mod:`repro.schema.grammar`).

Custom actions may be supplied per non-terminal to override the natural
behaviour (the paper's general, non-natural schemas); a custom action is a
callable ``(node, child_values) -> Value`` where ``child_values`` is the list
of ``(symbol, value)`` pairs for the rule's capturing items in order.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.db.values import (
    AtomicValue,
    ListValue,
    ObjectValue,
    SetValue,
    TupleValue,
    Value,
)
from repro.errors import GrammarError
from repro.schema.grammar import SeqRule, StarRule
from repro.schema.parser import ParseNode

CustomAction = Callable[[ParseNode, Sequence[tuple[str, Value]]], Value]


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
        if rule.passthrough and rule.lhs not in classes:
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
        if not rule.captures:
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
