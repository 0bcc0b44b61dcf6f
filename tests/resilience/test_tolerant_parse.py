"""Tolerant candidate parsing: a malformed region is skipped with a
structured warning (default), or aborts the query with a
:class:`CandidateParseError` that preserves the underlying position and
symbol (strict) — satellite (a)'s fix for the dropped ``ParseError``
context."""

from __future__ import annotations

import pytest

from repro.core.engine import FileQueryEngine
from repro.errors import CandidateParseError, ParseError
from repro.resilience import MALFORMED_REGION, DegradationPolicy
from tests.chaos.faults import FlakySchema


def flaky_engine(corpus_schema, corpus_text, policy=None) -> FileQueryEngine:
    """An engine whose second candidate re-parse fails deterministically.

    Parse call 0 is the corpus parse at build time; candidate parses start
    at call 1, so ``fail_calls={2}`` rejects exactly the second candidate.
    """
    schema = FlakySchema(corpus_schema, fail_calls={2})
    return FileQueryEngine(schema, corpus_text, policy=policy)


class TestTolerantParsing:
    def test_malformed_region_skipped_with_warning(self, corpus_schema, corpus_text):
        engine = flaky_engine(corpus_schema, corpus_text)
        healthy = FileQueryEngine(corpus_schema, corpus_text).query(
            "SELECT r FROM Reference r"
        )
        result = engine.query("SELECT r FROM Reference r")
        assert len(result.rows) == len(healthy.rows) - 1
        assert result.stats.malformed_regions == 1
        warning = next(w for w in result.warnings if w.code == MALFORMED_REGION)
        assert warning.detail["symbol"] == "Reference"
        assert warning.detail["position"] == warning.detail["start"]
        assert warning.detail["end"] > warning.detail["start"]

    def test_memo_hit_re_surfaces_the_warning(self, corpus_schema, corpus_text):
        # The failed parse memoizes; a repeat query must report the same
        # malformed region again (from the memo, without re-reading bytes).
        engine = flaky_engine(corpus_schema, corpus_text)
        first = engine.query("SELECT r FROM Reference r")
        second = engine.query("SELECT r FROM Reference r")
        first_w = [w for w in first.warnings if w.code == MALFORMED_REGION]
        second_w = [w for w in second.warnings if w.code == MALFORMED_REGION]
        assert len(first_w) == len(second_w) == 1
        assert first_w[0].detail == second_w[0].detail
        assert second.stats.cache_parse_hits > 0

    def test_strict_policy_aborts_with_context_preserved(
        self, corpus_schema, corpus_text
    ):
        engine = flaky_engine(
            corpus_schema, corpus_text, policy=DegradationPolicy.strict()
        )
        with pytest.raises(CandidateParseError) as excinfo:
            engine.query("SELECT r FROM Reference r")
        error = excinfo.value
        # The wrapper keeps the original ParseError's position/symbol and
        # records which candidate region failed — nothing is stringified away.
        assert isinstance(error, ParseError)
        assert error.symbol == "Reference"
        assert error.region is not None
        assert error.position == error.region[0]
        assert error.__cause__ is not None
        assert isinstance(error.__cause__, ParseError)

    def test_rows_unaffected_when_nothing_is_malformed(
        self, corpus_schema, corpus_text
    ):
        strict = FileQueryEngine(
            corpus_schema, corpus_text, policy=DegradationPolicy.strict()
        )
        tolerant = FileQueryEngine(corpus_schema, corpus_text)
        query = "SELECT r.Key FROM Reference r"
        assert (
            strict.query(query).canonical_rows()
            == tolerant.query(query).canonical_rows()
        )
