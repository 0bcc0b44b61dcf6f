"""Grammar formalism."""

import pytest

from repro.errors import GrammarError
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
    is_capturing,
)


def tiny_grammar() -> Grammar:
    return Grammar(
        [
            StarRule("S", NonTerminal("A")),
            SeqRule("A", [Literal("["), NonTerminal("B"), Literal("]")]),
            SeqRule("B", [TWord()]),
        ],
        start="S",
    )


class TestValidation:
    def test_valid_grammar(self):
        grammar = tiny_grammar()
        assert set(grammar.nonterminals) == {"S", "A", "B"}

    def test_missing_start(self):
        with pytest.raises(GrammarError):
            Grammar([SeqRule("A", [TWord()])], start="Z")

    def test_undefined_reference(self):
        with pytest.raises(GrammarError):
            Grammar([SeqRule("A", [NonTerminal("Ghost")])], start="A")

    def test_footnote_4_duplicate_nonterminal(self):
        with pytest.raises(GrammarError) as excinfo:
            Grammar(
                [
                    SeqRule("A", [NonTerminal("B"), NonTerminal("B")]),
                    SeqRule("B", [TWord()]),
                ],
                start="A",
            )
        assert "footnote 4" in str(excinfo.value)

    def test_empty_rhs_rejected(self):
        with pytest.raises(GrammarError):
            Grammar([SeqRule("A", [])], start="A")

    def test_empty_literal_rejected(self):
        with pytest.raises(GrammarError):
            Literal("")


class TestAccessors:
    def test_rules_for(self):
        grammar = tiny_grammar()
        assert len(grammar.rules_for("A")) == 1
        with pytest.raises(GrammarError):
            grammar.rules_for("Ghost")

    def test_contains(self):
        grammar = tiny_grammar()
        assert "A" in grammar
        assert "Ghost" not in grammar

    def test_iter_edges(self):
        grammar = tiny_grammar()
        assert set(grammar.iter_edges()) == {("S", "A"), ("A", "B")}

    def test_is_set_valued(self):
        grammar = tiny_grammar()
        assert grammar.is_set_valued("S")
        assert not grammar.is_set_valued("A")

    def test_alternatives_share_lhs(self):
        grammar = Grammar(
            [
                SeqRule("A", [Literal("x"), NonTerminal("B")]),
                SeqRule("A", [Literal("y"), NonTerminal("B")]),
                SeqRule("B", [TWord()]),
            ],
            start="A",
        )
        assert len(grammar.rules_for("A")) == 2


class TestNullability:
    def test_separatorless_star_over_nullable_item_is_rejected(self):
        # Accepted before, and ``Parser(g).parse("abc")`` never returned: the
        # star matched the empty ``A`` at the same offset forever.
        with pytest.raises(GrammarError, match="star rule for 'S' repeats <A>"):
            Grammar(
                [StarRule("S", NonTerminal("A")), SeqRule("A", [TUntil(";", allow_empty=True)])],
                start="S",
            )

    def test_one_empty_repetition_makes_a_separated_plus_nullable(self):
        # A single repetition has no separator, so ``L`` can match empty.
        with pytest.raises(GrammarError, match="<L>"):
            Grammar(
                [
                    StarRule("S", NonTerminal("L")),
                    StarRule("L", NonTerminal("A"), separator=Literal(","), min_count=1),
                    SeqRule("A", [TUntil(";", allow_empty=True)]),
                ],
                start="S",
            )

    def test_separated_star_over_nullable_item_terminates(self):
        grammar = Grammar(
            [
                StarRule("S", NonTerminal("A"), separator=Literal(";")),
                SeqRule("A", [TUntil(";", allow_empty=True)]),
            ],
            start="S",
        )
        from repro.schema.parser import Parser

        tree = Parser(grammar).parse("a;;b")
        assert [child.children[0].text for child in tree.children] == ["a", "", "b"]

    def test_nullable_nonterminals(self):
        grammar = Grammar(
            [
                SeqRule("S", [NonTerminal("L"), NonTerminal("E"), Literal("!")]),
                StarRule("L", NonTerminal("W"), min_count=1),
                SeqRule("W", [TWord()]),
                SeqRule("E", [NonTerminal("M"), TUntil(";", allow_empty=True)]),
                StarRule("M", NonTerminal("W"), separator=Literal(",")),
            ],
            start="S",
        )
        assert grammar.nullable == {"E", "M"}
        assert grammar.derives_empty(NonTerminal("E"))
        assert grammar.derives_empty(TUntil(";", allow_empty=True))
        assert not grammar.derives_empty(NonTerminal("L"))
        assert not grammar.derives_empty(Literal("!"))
        assert not grammar.derives_empty(TWord())

    def test_workload_grammars_validate(self):
        from repro.workloads.bibtex import bibtex_grammar
        from repro.workloads.logs import log_grammar
        from repro.workloads.sgml import sgml_grammar
        from repro.workloads.source import source_grammar

        assert bibtex_grammar().nullable == {
            "Ref_Set", "Authors", "Editors", "Referred", "Keywords"
        }
        assert log_grammar().nullable == {"Log", "Requests"}
        assert sgml_grammar().nullable == {"Collection", "Sections", "Paragraphs", "Subsections"}
        assert source_grammar().nullable == {"Program", "Params", "Body", "Args"}


class TestCoincidence:
    def test_star_rule_is_coincidence_capable(self):
        grammar = tiny_grammar()
        assert ("S", "A") in set(grammar.coincidence_capable_edges())

    def test_literal_delimited_rule_is_not(self):
        grammar = tiny_grammar()
        assert ("A", "B") not in set(grammar.coincidence_capable_edges())

    def test_unit_rule_is_coincidence_capable(self):
        grammar = Grammar(
            [SeqRule("A", [NonTerminal("B")]), SeqRule("B", [TWord()])],
            start="A",
        )
        assert ("A", "B") in set(grammar.coincidence_capable_edges())


class TestSymbols:
    def test_is_capturing(self):
        assert not is_capturing(Literal("x"))
        assert is_capturing(TWord())
        assert is_capturing(TQuoted())
        assert is_capturing(TNumber())
        assert is_capturing(NonTerminal("A"))

    def test_tuntil_stops(self):
        assert TUntil('"').stops == ('"',)
        assert TUntil((";", '"')).stops == (";", '"')
