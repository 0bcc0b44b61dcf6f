"""The FileQueryEngine facade."""

import re

import pytest

from repro.cache import CacheConfig
from repro.core.engine import FileQueryEngine
from repro.db.evaluator import NaiveEvaluator
from repro.db.loader import load_database
from repro.db.parser import parse_query
from repro.db.values import ObjectValue, canonical, canonical_row
from repro.index.config import IndexConfig
from repro.text.document import Corpus
from repro.workloads.bibtex import (
    CHANG_ANY_QUERY,
    CHANG_AUTHOR_QUERY,
    SELF_EDITED_QUERY,
    bibtex_schema,
    generate_bibtex,
)


class TestQuerying:
    def test_exact_query_matches_baseline(self, bibtex_engine):
        result = bibtex_engine.query(CHANG_AUTHOR_QUERY)
        baseline = bibtex_engine.baseline_query(CHANG_AUTHOR_QUERY)
        assert result.canonical_rows() == baseline.canonical_rows()
        assert result.stats.strategy == "index-exact"
        assert len(result.regions) == len(result.rows)

    @pytest.mark.parametrize("caching", [True, False], ids=["cached", "uncached"])
    def test_exact_select_r_agrees_with_the_evaluator_on_duplicate_records(
        self, caching
    ):
        # An exact SELECT r is answered from the parsed candidates without
        # a database.  Two byte-identical records are one answer: the rows
        # and row digests are NaiveEvaluator's over the whole corpus.
        schema = bibtex_schema()
        text = generate_bibtex(entries=30, seed=7)
        records = [text[c.start : c.end] for c in schema.parse(text).children]
        corpus = "\n\n".join(records + [records[3]]) + "\n"
        key = re.match(r"@\w+\{\s*(\w+),", records[3]).group(1)
        query = parse_query(f'SELECT r FROM Reference r WHERE r.Key = "{key}"')
        engine = FileQueryEngine(
            schema,
            corpus,
            cache_config=CacheConfig() if caching else CacheConfig.disabled(),
        )
        expected = NaiveEvaluator(load_database(schema, corpus).database).evaluate(query)
        assert len(expected) == 1
        for _ in range(2):  # the second pass hits the parse memo when caching
            result = engine.query(query)
            assert result.stats.strategy == "index-exact"
            assert result.stats.candidate_regions == 2
            assert [canonical_row(row) for row in result.rows] == [
                canonical_row(row) for row in expected
            ]
            assert result.row_hashes == expected.hashes
            assert len(result.regions) == 1

    def test_rows_are_reference_objects(self, bibtex_engine):
        result = bibtex_engine.query(CHANG_AUTHOR_QUERY)
        for row in result.rows:
            assert isinstance(row[0], ObjectValue)
            assert row[0].class_name == "Reference"

    def test_regions_are_reference_spans(self, bibtex_engine):
        result = bibtex_engine.query(CHANG_AUTHOR_QUERY)
        references = bibtex_engine.index.instance.get("Reference")
        for region in result.regions:
            assert region in references

    def test_values_property(self, bibtex_engine):
        result = bibtex_engine.query("SELECT r.Key FROM Reference r")
        assert len(result.values) == 30
        assert all(canonical(v) for v in result.values)

    def test_len(self, bibtex_engine):
        result = bibtex_engine.query(CHANG_AUTHOR_QUERY)
        assert len(result) == len(result.rows)

    def test_star_query(self, bibtex_engine):
        any_result = bibtex_engine.query(CHANG_ANY_QUERY)
        author_result = bibtex_engine.query(CHANG_AUTHOR_QUERY)
        assert set(author_result.canonical_rows()) <= set(any_result.canonical_rows())

    def test_join_query(self, bibtex_engine):
        result = bibtex_engine.query(SELF_EDITED_QUERY)
        baseline = bibtex_engine.baseline_query(SELF_EDITED_QUERY)
        assert result.canonical_rows() == baseline.canonical_rows()
        assert result.rows  # generator plants self-edited entries

    def test_projection_query(self, bibtex_engine):
        result = bibtex_engine.query(
            'SELECT r.Authors.Name.Last_Name FROM Reference r WHERE r.Year = "1982"'
        )
        baseline = bibtex_engine.baseline_query(
            'SELECT r.Authors.Name.Last_Name FROM Reference r WHERE r.Year = "1982"'
        )
        assert result.canonical_rows() == baseline.canonical_rows()

    def test_empty_strategy_short_circuits(self, bibtex_engine):
        result = bibtex_engine.query('SELECT r FROM Reference r WHERE r.Bogus = "x"')
        assert result.rows == []
        assert result.stats.strategy == "empty"
        assert result.stats.bytes_parsed == 0


class TestPartialEngine:
    def test_candidates_filtered_to_exact_answer(self, bibtex_partial_engine):
        result = bibtex_partial_engine.query(CHANG_AUTHOR_QUERY)
        baseline = bibtex_partial_engine.baseline_query(CHANG_AUTHOR_QUERY)
        assert result.canonical_rows() == baseline.canonical_rows()
        assert result.stats.strategy == "index-candidates"
        assert result.stats.candidate_regions >= len(result.rows)

    def test_partial_parses_less_than_baseline(self, bibtex_partial_engine):
        result = bibtex_partial_engine.query(CHANG_AUTHOR_QUERY)
        baseline = bibtex_partial_engine.baseline_query(CHANG_AUTHOR_QUERY)
        # Candidate bytes may come from the live parse or (on a repeated
        # query) the engine's parse memo; either way the candidate work is
        # strictly between zero and the baseline's full scan.
        candidate_bytes = result.stats.bytes_parsed + result.stats.bytes_parse_avoided
        assert 0 < candidate_bytes < baseline.stats.bytes_parsed

    def test_statistics_smaller_than_full(self, bibtex_engine, bibtex_partial_engine):
        assert (
            bibtex_partial_engine.statistics().total_region_entries
            < bibtex_engine.statistics().total_region_entries
        )


class TestConstruction:
    def test_corpus_input(self):
        corpus = Corpus.from_texts(
            [generate_bibtex(entries=2, seed=1), generate_bibtex(entries=2, seed=2)]
        )
        engine = FileQueryEngine(bibtex_schema(), corpus)
        assert len(engine.query("SELECT r FROM Reference r").rows) == 4

    def test_explain_output(self, bibtex_engine):
        text = bibtex_engine.explain(CHANG_AUTHOR_QUERY)
        assert "strategy:  index-exact" in text
        assert "⊃" in text

    def test_explain_reports_cache_state(self, bibtex_engine):
        text = bibtex_engine.explain(CHANG_AUTHOR_QUERY)
        assert "cache:     enabled" in text

    def test_indexed_names(self, bibtex_partial_engine):
        assert bibtex_partial_engine.indexed_names == {
            "Reference",
            "Key",
            "Last_Name",
        }

    def test_load_baseline_database(self, bibtex_engine):
        database = bibtex_engine.load_baseline_database()
        assert len(database.extent("Reference")) == 30
