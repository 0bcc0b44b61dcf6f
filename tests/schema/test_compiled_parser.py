"""The compiled parser and instantiation against the interpretive oracle.

``reference_parser`` keeps the interpretive parser and instantiation walk
the compiled code replaced.  These property tests draw inputs the way
queries meet the parser — whole files, candidate (class) regions, regions
at every non-terminal, the wrong symbol over a region, and regions with
characters deleted, inserted, replaced or cut off — and require the two to
agree on everything observable: the tree node for node, the
``ParseError`` (message, position, symbol), the bytes scanned, and the
value and ``InstantiationStats`` that instantiation under a push-down trie
builds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from hypothesis import event, given, settings, strategies as st

from repro.algebra.counters import OperationCounters
from repro.db.values import (
    AtomicValue,
    ListValue,
    ObjectValue,
    SetValue,
    TupleValue,
    canonical,
)
from repro.errors import GrammarError, ParseError
from repro.schema.grammar import (
    Grammar,
    Literal,
    NonTerminal,
    SeqRule,
    StarRule,
    TNumber,
    TQuoted,
    TUntil,
    TWord,
)
from repro.schema.pushdown import AnchoredTrie, InstantiationStats, PathTrie
from repro.schema.structuring import StructuringSchema
from repro.workloads.bibtex import bibtex_schema, generate_bibtex
from repro.workloads.logs import generate_log, log_schema
from repro.workloads.sgml import generate_sgml, sgml_schema
from repro.workloads.source import generate_source, source_schema

from tests.schema.reference_parser import Parser as ReferenceParser
from tests.schema.reference_parser import ReferenceInstantiator


def sink_schema() -> StructuringSchema:
    """Every terminal kind, regex metacharacters in literals and word
    extras, ordered alternatives sharing a prefix (backtracking), separated
    and ``+`` stars, allow-empty text, a transparent wrapper (``Boxed``), a
    class over a single capture, a rule that captures nothing (a natural
    schema cannot instantiate it), and a custom action."""
    grammar = Grammar(
        [
            StarRule("Items", NonTerminal("Item"), separator=Literal(";")),
            SeqRule(
                "Item",
                [Literal("("), NonTerminal("Key"), Literal(":"), NonTerminal("Val"), Literal(")")],
            ),
            SeqRule("Item", [Literal("("), NonTerminal("Key"), Literal(")")]),
            SeqRule("Item", [Literal("$["), NonTerminal("Quoted"), Literal("]*")]),
            SeqRule("Item", [Literal("<"), NonTerminal("Notes"), Literal(">")]),
            SeqRule("Item", [Literal("{"), NonTerminal("Pair"), Literal("}")]),
            SeqRule("Item", [Literal("#"), NonTerminal("Boxed")]),
            SeqRule("Item", [Literal("~"), NonTerminal("Mark")]),
            SeqRule("Mark", [Literal("!"), Literal("!")]),
            SeqRule("Boxed", [Literal("["), NonTerminal("Pair"), Literal("]")]),
            SeqRule("Pair", [NonTerminal("Key"), Literal("="), NonTerminal("Val")]),
            SeqRule("Key", [TWord(extra="-]^\\.")]),
            SeqRule("Val", [TNumber()]),
            SeqRule("Quoted", [TQuoted("'")]),
            StarRule("Notes", NonTerminal("Note"), separator=Literal("|"), min_count=1),
            SeqRule("Note", [TUntil(("|", ">"), allow_empty=True)]),
        ],
        start="Items",
    )
    return StructuringSchema(
        grammar,
        classes={"Item"},
        actions={
            "Notes": lambda node, values: AtomicValue("|".join(str(v) for _, v in values))
        },
        name="Sink",
    )


def generate_sink(seed: int) -> str:
    rng = random.Random(seed)
    words = ["a-b", "x]y", "c^d", "e\\f", "g.h", "ij", "k2"]
    forms = [
        lambda: f"( {rng.choice(words)} : {rng.randint(0, 999)} )",
        lambda: f"({rng.choice(words)})",
        lambda: f"$[ '{rng.choice(words)} {rng.choice(words)}' ]*",
        lambda: "<"
        + " | ".join(rng.choice(["", "note", " two words "]) for _ in range(rng.randint(1, 3)))
        + ">",
        lambda: f"{{ {rng.choice(words)} = {rng.randint(0, 99)} }}",
        lambda: f"# [ {rng.choice(['ij', 'k2', 'a-b'])} = {rng.randint(0, 99)} ]",
        lambda: "~ !!",
    ]
    weights = [4] * (len(forms) - 1) + [1]
    return " ;\n".join(rng.choices(forms, weights)[0]() for _ in range(rng.randint(1, 5)))


@dataclass(frozen=True)
class Case:
    name: str
    schema: StructuringSchema
    generate: Callable[[int], str]


CASES = [
    Case("bibtex", bibtex_schema(), lambda seed: generate_bibtex(entries=2, seed=seed)),
    Case("logs", log_schema(), lambda seed: generate_log(entries=3, seed=seed)),
    Case("sgml", sgml_schema(), lambda seed: generate_sgml(documents=1, seed=seed, depth=2)),
    Case("source", source_schema(), lambda seed: generate_source(functions=2, seed=seed)),
    Case("sink", sink_schema(), generate_sink),
]
REFERENCES = {case.name: ReferenceParser(case.schema.grammar) for case in CASES}

#: Characters inserted by mutations: whitespace, delimiters of every test
#: grammar, a non-decimal digit, an underscore, non-ASCII letters, and a
#: whitespace character the parser does not skip.
INSERTABLE = list(" \t\n\"'{}()[]<>;:|=,@$*._-^\\0123456789aZ") + ["é", "²", " ", "Ж"]


@dataclass(frozen=True)
class ParseInput:
    case: Case
    text: str
    symbol: str | None
    start: int
    end: int | None
    require_all: bool


@st.composite
def parse_inputs(draw) -> ParseInput:
    case = draw(st.sampled_from(CASES))
    text = case.generate(draw(st.integers(0, 10_000)))
    tree = REFERENCES[case.name].parse(text)
    spans = list(tree.nonterminal_spans())
    mode = draw(st.sampled_from(["whole", "class", "region", "inner"]))
    if mode == "whole":
        symbol, start, end = None, 0, None
    else:
        if mode == "class":
            # A candidate region, as the engine parses it.
            spans = [span for span in spans if span[0] in case.schema.classes] or spans
        symbol, start, end = draw(st.sampled_from(spans))
        if mode == "inner":
            # Any non-terminal over the region — usually the wrong one.
            symbol = draw(st.sampled_from(case.schema.grammar.nonterminals))
    stop = len(text) if end is None else end
    piece = text[start:stop]
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["delete", "insert", "replace", "truncate"]))
        at = draw(st.integers(0, len(piece)))
        if edit == "truncate":
            piece = piece[:at]
            continue
        inserted = draw(st.sampled_from(INSERTABLE)) if edit != "delete" else ""
        kept = at + 1 if edit != "insert" else at
        piece = piece[:at] + inserted + piece[kept:]
    text = text[:start] + piece + text[stop:]
    end = None if end is None else start + len(piece)
    return ParseInput(case, text, symbol, start, end, draw(st.booleans()))


def _parse(parser, given: ParseInput):
    counters = OperationCounters()
    try:
        node = parser.parse(
            given.text,
            symbol=given.symbol,
            start=given.start,
            end=given.end,
            require_all=given.require_all,
            counters=counters,
        )
    except ParseError as error:
        return None, ("error", str(error), error.position, error.symbol, counters.bytes_scanned)
    return node, ("tree", _flatten(node), counters.bytes_scanned)


def _flatten(node) -> list[tuple]:
    """Pre-order, every node: symbol, span, text, rule (the very rule
    object both parsers were handed), and arity."""
    return [
        (n.symbol, n.start, n.end, n.text, id(n.rule), n.is_terminal, len(n.children))
        for n in node.walk()
    ]


def _shape(value) -> object:
    """``canonical`` plus what it forgets: value kinds and type names."""
    if isinstance(value, AtomicValue):
        return ("atom", value.text, value.type_name)
    if isinstance(value, (TupleValue, ObjectValue)):
        name = value.type_name if isinstance(value, TupleValue) else value.class_name
        return (
            type(value).__name__,
            name,
            tuple(sorted((k, _shape(v)) for k, v in value.attributes.items())),
        )
    if isinstance(value, SetValue):
        return ("set", frozenset(_shape(element) for element in value))
    if isinstance(value, ListValue):
        return ("list", tuple(_shape(element) for element in value))
    raise AssertionError(f"unexpected value {value!r}")


def _instantiated(instantiate, node, needed):
    stats = InstantiationStats()
    spans: dict[int, tuple[int, int]] = {}
    try:
        value = instantiate(node, needed=needed, stats=stats, spans=spans)
    except GrammarError as error:
        return ("error", str(error))
    return (
        canonical(value),
        _shape(value),
        (stats.values_built, stats.values_skipped, stats.nodes_visited),
        sorted(spans.values()),
    )


def _symbol_chains(schema: StructuringSchema, node) -> list[tuple[str, ...]]:
    """Attribute-path candidates below ``node``: every chain of
    non-terminal symbols from it downwards, as spelled in the tree and with
    the schema's transparent wrappers dropped."""
    transparent = schema.transparent_nonterminals()
    chains: set[tuple[str, ...]] = set()

    def visit(current, chain: tuple[str, ...]) -> None:
        for child in current.children:
            if child.is_terminal:
                continue
            longer = chain + (child.symbol,)
            chains.add(longer)
            chains.add(tuple(step for step in longer if step not in transparent))
            visit(child, longer)

    visit(node, ())
    chains.discard(())
    return sorted(chains)


@given(given_input=parse_inputs())
@settings(max_examples=500, deadline=None)
def test_parse_matches_the_interpretive_parser(given_input: ParseInput) -> None:
    _, expected = _parse(REFERENCES[given_input.case.name], given_input)
    _, actual = _parse(given_input.case.schema.parser, given_input)
    event(f"{given_input.case.name}: {expected[0]}")
    assert actual == expected


@given(given_input=parse_inputs(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_instantiation_matches_the_interpretive_walk(given_input: ParseInput, data) -> None:
    schema = given_input.case.schema
    reference_node, expected = _parse(REFERENCES[given_input.case.name], given_input)
    node, actual = _parse(schema.parser, given_input)
    assert actual == expected
    if node is None:
        return
    chains = _symbol_chains(schema, node)
    drawn = data.draw(st.lists(st.sampled_from(chains), max_size=4)) if chains else []
    paths = [
        # A prefix of the chain; a trailing ``None`` is a ``*X`` variable.
        list(chain[: data.draw(st.integers(1, len(chain)))])
        + ([None] if data.draw(st.booleans()) else [])
        for chain in drawn
    ]
    trie = PathTrie.from_paths(paths)
    needed = data.draw(
        st.sampled_from(
            [None, trie]
            + [AnchoredTrie(anchor=name, inner=trie) for name in sorted(schema.classes)]
        )
    )
    reference = ReferenceInstantiator(schema)
    assert _instantiated(schema.instantiate, node, needed) == _instantiated(
        reference.instantiate, reference_node, needed
    )
