"""The QueryStats facade: delegation, the stable to_dict shape, summaries."""

from __future__ import annotations

import json

from repro.core.engine import FileQueryEngine
from repro.obs.stats import QueryStats
from repro.workloads.bibtex import bibtex_schema, generate_bibtex

SELECT = 'SELECT r FROM Reference r WHERE r.Authors.Name.Last_Name = "Chang"'

#: The documented stable keys of QueryStats.to_dict() (additions allowed,
#: removals are a breaking change — keep in sync with the docstring).
STABLE_KEYS = {
    "strategy",
    "rows",
    "candidate_regions",
    "result_regions",
    "bytes_parsed",
    "values_built",
    "objects_filtered_out",
    "join_bytes_compared",
    "algebra",
    "cache",
    "duration_s",
    "trace",
}


class TestFacade:
    def test_query_result_stats_is_facade(self, bibtex_engine):
        result = bibtex_engine.query(SELECT)
        assert isinstance(result.stats, QueryStats)

    def test_delegates_execution_attributes(self, bibtex_engine):
        result = bibtex_engine.query(SELECT)
        stats = result.stats
        assert stats.strategy == stats.execution.strategy
        assert stats.bytes_parsed == stats.execution.bytes_parsed
        assert stats.rows == stats.execution.rows
        assert stats.algebra is stats.execution.algebra

    def test_cache_view_keys(self, bibtex_engine):
        cache = bibtex_engine.query(SELECT).stats.cache
        assert set(cache) == {
            "expression_hits",
            "expression_misses",
            "parse_hits",
            "parse_misses",
            "bytes_parse_avoided",
        }

    def test_duration_covers_the_trace(self, bibtex_engine):
        stats = bibtex_engine.query(SELECT).stats
        assert stats.duration_seconds >= stats.trace.duration > 0.0

    def test_duration_measured_when_untraced(self):
        engine = FileQueryEngine(
            bibtex_schema(), generate_bibtex(entries=5, seed=1), tracing=False
        )
        stats = engine.query("SELECT r.Key FROM Reference r").stats
        assert stats.trace is None
        assert stats.duration_seconds > 0.0


class TestToDict:
    def test_stable_keys_present(self, bibtex_engine):
        data = bibtex_engine.query(SELECT).stats.to_dict()
        assert STABLE_KEYS <= set(data)

    def test_json_serializable(self, bibtex_engine):
        data = bibtex_engine.query(SELECT).stats.to_dict()
        json.dumps(data)

    def test_trace_embedded_or_null(self, bibtex_engine):
        data = bibtex_engine.query(SELECT).stats.to_dict()
        assert data["trace"]["name"] == "query"
        untraced = FileQueryEngine(
            bibtex_schema(), generate_bibtex(entries=5, seed=1), tracing=False
        )
        data = untraced.query("SELECT r.Key FROM Reference r").stats.to_dict()
        assert data["trace"] is None
        assert data["duration_s"] > 0.0

    def test_values_match_execution(self, bibtex_engine):
        result = bibtex_engine.query(SELECT)
        data = result.stats.to_dict()
        assert data["strategy"] == result.stats.execution.strategy
        assert data["rows"] == len(result.rows)
        assert data["algebra"] == result.stats.execution.algebra.snapshot()


class TestSummary:
    def test_summary_includes_wall_time_when_traced(self, bibtex_engine):
        summary = bibtex_engine.query(SELECT).stats.summary()
        assert "wall time" in summary

    def test_summary_without_trace(self):
        engine = FileQueryEngine(
            bibtex_schema(), generate_bibtex(entries=5, seed=1), tracing=False
        )
        summary = engine.query("SELECT r.Key FROM Reference r").stats.summary()
        assert "wall time" not in summary
        assert "strategy" in summary
