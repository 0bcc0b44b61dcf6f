"""The region-capturing parser."""

import pytest

from repro.algebra.counters import OperationCounters
from repro.errors import ParseError
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
from repro.schema.parser import Parser


def bracket_grammar() -> Grammar:
    return Grammar(
        [
            StarRule("S", NonTerminal("A")),
            SeqRule("A", [Literal("["), NonTerminal("B"), Literal("]")]),
            SeqRule("B", [TWord()]),
        ],
        start="S",
    )


class TestBasicParsing:
    def test_parse_sequence_and_star(self):
        parser = Parser(bracket_grammar())
        tree = parser.parse("[abc] [def]")
        assert tree.symbol == "S"
        assert [child.symbol for child in tree.children] == ["A", "A"]

    def test_regions_are_absolute_offsets(self):
        parser = Parser(bracket_grammar())
        text = "  [abc] [def]"
        tree = parser.parse(text)
        spans = dict()
        for symbol, start, end in tree.nonterminal_spans():
            spans.setdefault(symbol, []).append(text[start:end])
        assert spans["A"] == ["[abc]", "[def]"]
        assert spans["B"] == ["abc", "def"]

    def test_empty_star(self):
        parser = Parser(bracket_grammar())
        tree = parser.parse("")
        assert tree.children == ()
        assert tree.start == tree.end

    def test_trailing_garbage_raises(self):
        parser = Parser(bracket_grammar())
        with pytest.raises(ParseError):
            parser.parse("[abc] junk")

    def test_require_all_false_allows_trailing(self):
        parser = Parser(bracket_grammar())
        tree = parser.parse("[abc] ???", require_all=False)
        assert len(tree.children) == 1

    def test_parse_error_reports_position_and_symbol(self):
        grammar = Grammar(
            [SeqRule("A", [Literal("("), TWord(), Literal(")")])], start="A"
        )
        with pytest.raises(ParseError) as excinfo:
            Parser(grammar).parse("(abc")
        assert excinfo.value.position == 4

    def test_counters_record_bytes_scanned(self):
        parser = Parser(bracket_grammar())
        counters = OperationCounters()
        parser.parse("[abc] [def]", counters=counters)
        assert counters.bytes_scanned == len("[abc] [def]")


class TestRegionSliceParsing:
    def test_parse_region_as_inner_symbol(self):
        parser = Parser(bracket_grammar())
        text = "[abc] [def]"
        node = parser.parse(text, symbol="A", start=6, end=11)
        assert node.symbol == "A"
        assert (node.start, node.end) == (6, 11)

    def test_slice_with_trailing_content_raises(self):
        parser = Parser(bracket_grammar())
        with pytest.raises(ParseError):
            parser.parse("[abc] [def]", symbol="A", start=0, end=11)

    def test_slice_starting_past_its_end_raises(self):
        parser = Parser(bracket_grammar())
        with pytest.raises(ParseError) as excinfo:
            parser.parse("[abc] [def]", symbol="A", start=6, end=5)
        assert excinfo.value.position == 6


class TestTerminals:
    def test_quoted(self):
        grammar = Grammar([SeqRule("Q", [TQuoted()])], start="Q")
        node = Parser(grammar).parse('"hello world"')
        leaf = node.children[0]
        assert leaf.text == "hello world"
        assert (leaf.start, leaf.end) == (1, 12)

    def test_quoted_missing_close(self):
        grammar = Grammar([SeqRule("Q", [TQuoted()])], start="Q")
        with pytest.raises(ParseError):
            Parser(grammar).parse('"oops')

    def test_number(self):
        grammar = Grammar([SeqRule("N", [TNumber()])], start="N")
        node = Parser(grammar).parse("  1982 ")
        assert node.children[0].text == "1982"

    def test_number_requires_digits(self):
        grammar = Grammar([SeqRule("N", [TNumber()])], start="N")
        with pytest.raises(ParseError):
            Parser(grammar).parse("abc")

    def test_until_strips_whitespace(self):
        grammar = Grammar([SeqRule("T", [TUntil('"')]), ], start="T")
        node = Parser(grammar).parse("  some text  ", require_all=False)
        leaf = node.children[0]
        assert leaf.text == "some text"

    def test_until_multiple_stops_takes_earliest(self):
        grammar = Grammar([SeqRule("T", [TUntil((";", '"'))])], start="T")
        node = Parser(grammar).parse('abc;def"', require_all=False)
        assert node.children[0].text == "abc"

    def test_until_empty_rejected_unless_allowed(self):
        strict = Grammar([SeqRule("T", [TUntil(";")])], start="T")
        with pytest.raises(ParseError):
            Parser(strict).parse(";", require_all=False)
        lenient = Grammar([SeqRule("T", [TUntil(";", allow_empty=True)])], start="T")
        node = Parser(lenient).parse(";", require_all=False)
        assert node.children[0].text == ""

    def test_literal_never_starts_inside_the_whitespace_before_it(self):
        # Whitespace is skipped before every symbol, all of it: a literal
        # that itself starts with a space cannot match after whitespace.
        grammar = Grammar([SeqRule("A", [TWord(), Literal(" x")])], start="A")
        with pytest.raises(ParseError) as excinfo:
            Parser(grammar).parse("a  x")
        assert excinfo.value.position == 3

    def test_failure_names_the_literal_that_did_not_match(self):
        grammar = Grammar(
            [SeqRule("A", [Literal("("), Literal("key"), Literal("="), TWord(), Literal(")")])],
            start="A",
        )
        with pytest.raises(ParseError) as excinfo:
            Parser(grammar).parse("( key : v )")
        assert excinfo.value.position == 6
        assert "expecting '='" in str(excinfo.value)

    def test_word_custom_extra(self):
        grammar = Grammar([SeqRule("W", [TWord(extra=":")])], start="W")
        node = Parser(grammar).parse("10:15:03")
        assert node.children[0].text == "10:15:03"


class TestAlternativesAndSeparators:
    def test_ordered_alternatives(self):
        grammar = Grammar(
            [
                SeqRule("A", [Literal("x"), NonTerminal("B")]),
                SeqRule("A", [Literal("y"), NonTerminal("B")]),
                SeqRule("B", [TWord()]),
            ],
            start="A",
        )
        parser = Parser(grammar)
        assert parser.parse("x foo").children[0].children[0].text == "foo"
        assert parser.parse("y bar").children[0].children[0].text == "bar"

    def test_star_with_separator(self):
        grammar = Grammar(
            [
                StarRule("L", NonTerminal("W"), separator=Literal("and")),
                SeqRule("W", [TWord()]),
            ],
            start="L",
        )
        tree = Parser(grammar).parse("a and b and c")
        assert [child.children[0].text for child in tree.children] == ["a", "b", "c"]

    def test_star_min_count(self):
        grammar = Grammar(
            [
                StarRule("L", NonTerminal("W"), min_count=1),
                SeqRule("W", [TWord()]),
            ],
            start="L",
        )
        with pytest.raises(ParseError):
            Parser(grammar).parse("")

    def test_separator_not_consumed_on_dangling(self):
        grammar = Grammar(
            [
                SeqRule("S", [NonTerminal("L"), Literal("and stop")]),
                StarRule("L", NonTerminal("W"), separator=Literal("and")),
                SeqRule("W", [TNumber()]),
            ],
            start="S",
        )
        # "1 and 2 and stop": the final "and" belongs to "and stop" — the
        # star must not consume a separator whose item then fails.
        tree = Parser(grammar).parse("1 and 2 and stop")
        words = [child.children[0].text for child in tree.children[0].children]
        assert words == ["1", "2"]


class TestParseNode:
    def test_walk_and_child_map(self):
        parser = Parser(bracket_grammar())
        tree = parser.parse("[abc]")
        symbols = [node.symbol for node in tree.walk()]
        assert symbols == ["S", "A", "B", "#word"]
        first_a = tree.children[0]
        assert set(first_a.child_map()) == {"B"}

    def test_is_terminal(self):
        parser = Parser(bracket_grammar())
        tree = parser.parse("[abc]")
        leaves = [node for node in tree.walk() if node.is_terminal]
        assert len(leaves) == 1
        assert leaves[0].text == "abc"
