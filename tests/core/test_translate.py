"""Query -> region-expression translation (Sections 5.1–5.3, 6.1, 6.3)."""

import pytest

from repro.algebra.ast import parse_expression
from repro.core.translate import Translator, needed_paths
from repro.db.parser import parse_query
from repro.index.config import IndexConfig
from repro.workloads.bibtex import bibtex_schema
from repro.workloads.sgml import sgml_schema


@pytest.fixture(scope="module")
def full() -> Translator:
    return Translator(bibtex_schema(), IndexConfig.full())


@pytest.fixture(scope="module")
def partial() -> Translator:
    return Translator(
        bibtex_schema(), IndexConfig.partial({"Reference", "Key", "Last_Name"})
    )


class TestFullIndexing:
    def test_section_5_1_translation(self, full):
        query = parse_query(
            'SELECT r FROM Reference r WHERE r.Authors.Name.Last_Name = "Chang"'
        )
        translated = full.translate_query(query)
        assert translated.exact
        assert translated.expression == parse_expression(
            "Reference >d Authors >d Name >d sigma[Chang](Last_Name)"
        )

    def test_no_where(self, full):
        query = parse_query("SELECT r FROM Reference r")
        translated = full.translate_query(query)
        assert translated.exact
        assert translated.expression == parse_expression("Reference")

    def test_unknown_path_never_matches(self, full):
        query = parse_query('SELECT r FROM Reference r WHERE r.Bogus = "x"')
        translated = full.translate_query(query)
        assert translated.never

    def test_non_atomic_endpoint_never_matches(self, full):
        query = parse_query('SELECT r FROM Reference r WHERE r.Authors = "x"')
        translated = full.translate_query(query)
        assert translated.never

    def test_and_or_not(self, full):
        query = parse_query(
            'SELECT r FROM Reference r WHERE '
            '(r.Year = "1982" OR r.Year = "1994") AND NOT r.Publisher = "SIAM"'
        )
        translated = full.translate_query(query)
        assert translated.exact
        rendered = str(translated.expression)
        assert "∩" in rendered and "∪" in rendered and "−" in rendered

    def test_multiword_literal_contains(self, full):
        query = parse_query(
            'SELECT r FROM Reference r WHERE r.Keywords.Keyword = "Taylor series"'
        )
        translated = full.translate_query(query)
        assert not translated.exact
        rendered = str(translated.expression)
        assert "σc[Taylor]" in rendered and "σc[series]" in rendered

    def test_star_variable_uses_simple_inclusion(self, full):
        query = parse_query(
            'SELECT r FROM Reference r WHERE r.*X.Last_Name = "Chang"'
        )
        translated = full.translate_query(query)
        assert translated.exact
        assert translated.expression == parse_expression(
            "Reference > sigma[Chang](Last_Name)"
        )

    def test_plain_variable_enumerates_branches(self, full):
        query = parse_query(
            'SELECT r FROM Reference r WHERE r.X.Name.Last_Name = "Chang"'
        )
        translated = full.translate_query(query)
        assert translated.exact
        rendered = str(translated.expression)
        assert "Authors" in rendered and "Editors" in rendered and "∪" in rendered

    def test_inequality_deferred(self, full):
        query = parse_query('SELECT r FROM Reference r WHERE r.Year <> "1982"')
        translated = full.translate_query(query)
        assert not translated.exact
        assert translated.expression == parse_expression("Reference")


class TestPartialIndexing:
    def test_section_6_1_candidates(self, partial):
        query = parse_query(
            'SELECT r FROM Reference r WHERE r.Authors.Name.Last_Name = "Chang"'
        )
        translated = partial.translate_query(query)
        assert not translated.exact
        assert translated.expression == parse_expression(
            "Reference >d sigma[Chang](Last_Name)"
        )
        assert any("ambiguous" in note for note in translated.notes)

    def test_star_is_exact_under_partial(self, partial):
        # Section 6.3 / 5.3: "any path" queries stay exact.
        query = parse_query(
            'SELECT r FROM Reference r WHERE r.*X.Last_Name = "Chang"'
        )
        translated = partial.translate_query(query)
        assert translated.exact

    def test_key_path_is_exact_under_partial(self, partial):
        # Reference -> Key matches a unique full path: exact (Section 6.3).
        query = parse_query('SELECT r FROM Reference r WHERE r.Key = "Corl82a"')
        translated = partial.translate_query(query)
        assert translated.exact

    def test_unindexed_source_class_gives_no_expression(self):
        translator = Translator(bibtex_schema(), IndexConfig.partial({"Key"}))
        query = parse_query('SELECT r FROM Reference r WHERE r.Key = "x"')
        translated = translator.translate_query(query)
        assert translated.expression is None

    def test_unindexed_endpoint_contains_on_deepest(self):
        translator = Translator(
            bibtex_schema(), IndexConfig.partial({"Reference", "Authors"})
        )
        query = parse_query(
            'SELECT r FROM Reference r WHERE r.Authors.Name.Last_Name = "Chang"'
        )
        translated = translator.translate_query(query)
        assert not translated.exact
        assert translated.expression == parse_expression(
            "Reference >d sigmac[Chang](Authors)"
        )

    def test_not_over_approximate_widens(self, partial):
        query = parse_query(
            'SELECT r FROM Reference r WHERE NOT r.Authors.Name.Last_Name = "Chang"'
        )
        translated = partial.translate_query(query)
        assert not translated.exact
        assert translated.expression == parse_expression("Reference")

    def test_not_over_exact_uses_difference(self, full):
        query = parse_query(
            'SELECT r FROM Reference r WHERE NOT r.Year = "1982"'
        )
        translated = full.translate_query(query)
        assert translated.exact
        rendered = str(translated.expression)
        assert rendered.startswith("Reference −")


class TestScopedIndexes:
    def test_scoped_index_restores_exactness(self):
        config = IndexConfig.partial({"Reference"}).with_scoped(
            "Last_Name", "Authors"
        )
        translator = Translator(bibtex_schema(), config)
        query = parse_query(
            'SELECT r FROM Reference r WHERE r.Authors.Name.Last_Name = "Chang"'
        )
        translated = translator.translate_query(query)
        assert translated.exact
        assert "Last_Name@Authors" in translated.expression.region_names()

    def test_scoped_index_not_used_without_scope_in_path(self):
        config = IndexConfig.partial({"Reference"}).with_scoped(
            "Last_Name", "Authors"
        )
        translator = Translator(bibtex_schema(), config)
        query = parse_query(
            'SELECT r FROM Reference r WHERE r.Editors.Name.Last_Name = "Chang"'
        )
        translated = translator.translate_query(query)
        assert "Last_Name@Authors" not in (
            translated.expression.region_names() if translated.expression else set()
        )


class TestCyclicGrammar:
    def test_self_nested_paths(self):
        translator = Translator(sgml_schema(), IndexConfig.full())
        query = parse_query(
            'SELECT d FROM Document d WHERE d.*X.TitleText = "Compaction"'
        )
        translated = translator.translate_query(query)
        assert translated.exact
        assert translated.expression == parse_expression(
            "Document > sigma[Compaction](TitleText)"
        )

    def test_concrete_nested_path(self):
        translator = Translator(sgml_schema(), IndexConfig.full())
        query = parse_query(
            "SELECT d FROM Document d "
            "WHERE d.Sections.Section.Subsections.Section.Paragraphs.ParaText"
            ' = "region"'
        )
        translated = translator.translate_query(query)
        assert translated.expression is not None


class TestEndpointChain:
    def test_projection_chain(self, full):
        query = parse_query(
            'SELECT r FROM Reference r WHERE r.Authors.Name.Last_Name = "x"'
        )
        endpoint = full.endpoint_chain("Reference", query.where.path)
        assert endpoint is not None
        expression, exact = endpoint
        assert exact
        assert expression == parse_expression(
            "Last_Name <d Name <d Authors <d Reference"
        )

    def test_partial_endpoint_not_exact(self, partial):
        query = parse_query(
            'SELECT r FROM Reference r WHERE r.Authors.Name.Last_Name = "x"'
        )
        endpoint = partial.endpoint_chain("Reference", query.where.path)
        assert endpoint is not None
        _, exact = endpoint
        assert not exact


class TestNeededPaths:
    def test_trie_covers_outputs_and_conditions(self):
        query = parse_query(
            'SELECT r.Key FROM Reference r WHERE r.Authors.Name.Last_Name = "x"'
        )
        trie = needed_paths(query)
        assert trie.wants("Key")
        assert trie.wants("Authors")
        assert not trie.wants("Abstract")

    def test_identity_select_needs_everything(self):
        query = parse_query("SELECT r FROM Reference r")
        trie = needed_paths(query)
        assert trie.all_below
