"""The top-level public API surface."""

import warnings

import pytest

import repro


class TestExports:
    def test_version(self):
        assert repro.__version__ == "1.7.0"

    def test_version_is_single_sourced(self):
        # pyproject.toml reads repro.__version__; a literal there would
        # drift from what /healthz serves (it said 1.5.0 beside 1.6.0).
        import re
        from pathlib import Path

        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        text = pyproject.read_text(encoding="utf-8")
        assert re.search(r"^version\s*=\s*[\"']", text, re.MULTILINE) is None
        assert 'version = { attr = "repro.__version__" }' in text

    def test_shard_exports(self):
        from repro import shard

        assert repro.ShardedEngine is shard.ShardedEngine
        assert repro.split_corpus is shard.split_corpus
        assert issubclass(repro.ShardFailedError, repro.ShardError)
        assert issubclass(repro.ShardError, repro.ReproError)

    def test_resilience_exports(self):
        from repro import resilience

        assert repro.RetryPolicy is resilience.RetryPolicy
        assert repro.call_with_retry is resilience.call_with_retry
        assert repro.CircuitBreaker is resilience.CircuitBreaker
        assert repro.BreakerConfig is resilience.BreakerConfig

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_headline_workflow(self):
        from repro.workloads.bibtex import bibtex_schema, generate_bibtex

        engine = repro.FileQueryEngine(
            bibtex_schema(), generate_bibtex(entries=5, seed=0)
        )
        result = engine.query("SELECT r FROM Reference r")
        assert isinstance(result, repro.QueryResult)
        assert len(result) == 5

    def test_expression_api(self):
        expression = repro.parse_expression("A > sigma[w](B)")
        graph = repro.RegionInclusionGraph.from_adjacency({"A": ["B"]})
        assert repro.optimize(expression, graph) == expression
        assert not repro.is_trivially_empty(expression, graph)

    def test_errors_hierarchy(self):
        from repro import errors

        subclasses = [
            errors.RegionError,
            errors.AlgebraError,
            errors.UnknownRegionNameError,
            errors.RigError,
            errors.GrammarError,
            errors.ParseError,
            errors.QueryError,
            errors.QuerySyntaxError,
            errors.TranslationError,
            errors.PlanningError,
            errors.DatabaseError,
            errors.RegionIndexError,
            errors.IndexConfigError,
        ]
        for subclass in subclasses:
            assert issubclass(subclass, errors.ReproError)

    def test_errors_reexported_at_top_level(self):
        for name in (
            "ReproError",
            "RegionError",
            "AlgebraError",
            "UnknownRegionNameError",
            "RigError",
            "GrammarError",
            "ParseError",
            "QueryError",
            "QuerySyntaxError",
            "TranslationError",
            "PlanningError",
            "DatabaseError",
            "RegionIndexError",
            "IndexConfigError",
        ):
            assert name in repro.__all__, name
            from repro import errors

            assert getattr(repro, name) is getattr(errors, name), name

    def test_result_types_reexported(self):
        from repro.core.engine import QueryResult
        from repro.core.partial import ExecutionStats
        from repro.core.planner import Plan
        from repro.obs.trace import Trace

        assert repro.QueryResult is QueryResult
        assert repro.Plan is Plan
        assert repro.ExecutionStats is ExecutionStats
        assert repro.Trace is Trace

    def test_observability_exports(self):
        from repro import obs

        assert repro.Analysis is obs.Analysis
        assert repro.QueryStats is obs.QueryStats
        assert repro.Span is obs.Span
        assert repro.Tracer is obs.Tracer
        assert repro.HookRegistry is obs.HookRegistry
        assert repro.SpanCollector is obs.SpanCollector

    def test_new_spelling_does_not_warn(self):
        from repro import errors

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert errors.RegionIndexError is repro.RegionIndexError

    def test_error_details(self):
        from repro import errors

        name_error = errors.UnknownRegionNameError("X", ("A", "B"))
        assert "X" in str(name_error)
        assert "A" in str(name_error)
        parse_error = errors.ParseError("bad", position=7, symbol="Entry")
        assert parse_error.position == 7
        assert "Entry" in str(parse_error)
        syntax_error = errors.QuerySyntaxError("oops", position=3)
        assert syntax_error.position == 3
