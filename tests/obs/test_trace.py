"""The span/trace/tracer primitives and the trace attached to queries."""

from __future__ import annotations

import json

import pytest

from repro.core.engine import FileQueryEngine
from repro.obs.trace import NULL_TRACER, NullTracer, Span, Trace, Tracer
from repro.workloads.bibtex import bibtex_schema, generate_bibtex

SELECT = 'SELECT r FROM Reference r WHERE r.Authors.Name.Last_Name = "Chang"'


class TestSpan:
    def test_duration_zero_while_open(self):
        span = Span("s", started_at=1.0)
        assert span.duration == 0.0
        span.ended_at = 1.5
        assert span.duration == pytest.approx(0.5)

    def test_annotate_merges(self):
        span = Span("s").annotate(a=1).annotate(b=2, a=3)
        assert span.metrics == {"a": 3, "b": 2}

    def test_add_child_synthesized(self):
        parent = Span("p", started_at=2.0, ended_at=3.0)
        child = parent.add_child("op:>", applications=4)
        assert child in parent.children
        assert child.duration == 0.0
        assert child.metrics == {"applications": 4}

    def test_walk_preorder_and_find(self):
        root = Span("a")
        b = Span("b")
        root.children.append(b)
        b.children.append(Span("c"))
        root.children.append(Span("d"))
        assert [s.name for s in root.walk()] == ["a", "b", "c", "d"]
        assert root.find("c").name == "c"
        assert root.find("nope") is None


class TestTracer:
    def test_nesting_follows_with_blocks(self):
        tracer = Tracer("query")
        with tracer.span("plan"):
            with tracer.span("parse-query"):
                pass
            with tracer.span("translate"):
                pass
        with tracer.span("execute"):
            tracer.annotate(rows=3)
        trace = tracer.finish()
        assert trace.span_names() == [
            "query",
            "plan",
            "parse-query",
            "translate",
            "execute",
        ]
        assert trace.find("execute").metrics == {"rows": 3}
        plan = trace.find("plan")
        assert [child.name for child in plan.children] == ["parse-query", "translate"]

    def test_timings_monotonic_and_nested(self):
        tracer = Tracer("query")
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        trace = tracer.finish()
        root, a, b = trace.find("query"), trace.find("a"), trace.find("b")
        for span in (root, a, b):
            assert span.ended_at is not None
            assert span.duration >= 0.0
        # Children start no earlier than, and end no later than, the parent.
        assert root.started_at <= a.started_at <= b.started_at
        assert b.ended_at <= a.ended_at <= root.ended_at

    def test_finish_closes_dangling_spans(self):
        tracer = Tracer("query")
        context = tracer.span("open")
        context.__enter__()
        trace = tracer.finish()
        assert trace.find("open").ended_at is not None

    def test_exception_inside_span_still_closes_it(self):
        tracer = Tracer("query")
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        trace = tracer.finish()
        assert trace.find("boom").ended_at is not None

    def test_stage_seconds_sums_by_name(self):
        tracer = Tracer("query")
        with tracer.span("stage"):
            pass
        with tracer.span("stage"):
            pass
        totals = tracer.finish().stage_seconds()
        assert set(totals) == {"query", "stage"}
        assert totals["stage"] >= 0.0


class TestTraceSerialization:
    def _sample(self) -> Trace:
        tracer = Tracer("query")
        with tracer.span("plan", plan_cache="miss"):
            with tracer.span("translate"):
                pass
        with tracer.span("execute", rows=2, strategy="index-candidates"):
            pass
        return tracer.finish()

    def test_to_json_round_trips(self):
        trace = self._sample()
        reloaded = Trace.from_json(trace.to_json())
        assert reloaded.span_names() == trace.span_names()
        for before, after in zip(trace.spans(), reloaded.spans()):
            assert after.metrics == before.metrics
            assert after.duration == pytest.approx(before.duration, abs=1e-9)
        # Offsets are preserved relative to the trace origin.
        assert reloaded.to_dict() == trace.to_dict()

    def test_to_dict_shape(self):
        data = self._sample().to_dict()
        assert data["name"] == "query"
        assert data["offset_s"] == 0.0
        assert data["duration_s"] >= 0.0
        assert isinstance(data["metrics"], dict)
        assert [child["name"] for child in data["children"]] == ["plan", "execute"]
        json.dumps(data)  # JSON-safe

    def test_describe_renders_each_span(self):
        text = self._sample().describe()
        for name in ("query", "plan", "translate", "execute"):
            assert name in text
        assert "ms" in text


class TestNullTracer:
    def test_null_tracer_is_silent(self):
        tracer = NULL_TRACER
        assert isinstance(tracer, NullTracer)
        with tracer.span("anything", metric=1) as span:
            span.annotate(more=2)
            span.add_child("op:>", applications=3)
        tracer.annotate(late=True)
        assert tracer.finish() is None


class TestPipelineTrace:
    """The trace tree attached to real query results mirrors pipeline order."""

    def test_query_trace_structure(self, bibtex_engine):
        result = bibtex_engine.query(SELECT)
        trace = result.trace
        assert trace is not None
        names = trace.span_names()
        assert names[0] == "query"
        # The pipeline stages appear in order: plan before execute.
        assert names.index("plan") < names.index("execute")
        plan = trace.find("plan")
        plan_children = [child.name for child in plan.children]
        if plan.metrics.get("plan_cache") != "hit":
            assert "translate" in plan_children
            assert "optimize" in plan_children
            assert plan_children.index("translate") < plan_children.index("optimize")
        execute = trace.find("execute")
        assert execute.metrics.get("strategy") == result.stats.strategy
        assert execute.metrics.get("rows") == len(result.rows)
        exec_children = [child.name for child in execute.children]
        assert "index-eval" in exec_children

    def test_index_eval_has_operator_children(self):
        # Fresh engine: a repeated query on a shared engine would hit the
        # expression cache and perform no algebra operations at all.
        engine = FileQueryEngine(bibtex_schema(), generate_bibtex(entries=10, seed=3))
        result = engine.query(SELECT)
        index_eval = result.trace.find("index-eval")
        assert index_eval is not None
        op_names = [c.name for c in index_eval.children if c.name.startswith("op:")]
        assert op_names, "expected synthesized per-operator spans"
        for child in index_eval.children:
            if child.name.startswith("op:"):
                assert child.metrics.get("applications", 0) >= 1

    def test_child_spans_within_parent_interval(self, bibtex_engine):
        trace = bibtex_engine.query(SELECT).trace
        for span in trace.spans():
            for child in span.children:
                assert child.started_at >= span.started_at - 1e-9
                if child.ended_at is not None and span.ended_at is not None:
                    assert child.ended_at <= span.ended_at + 1e-9

    def test_traced_and_untraced_rows_identical(self, bibtex_text):
        schema = bibtex_schema()
        traced = FileQueryEngine(schema, bibtex_text)
        untraced = FileQueryEngine(schema, bibtex_text, tracing=False)
        queries = [
            SELECT,
            "SELECT r.Key FROM Reference r",
            'SELECT r.Title FROM Reference r WHERE r.*X.Last_Name = "Chang"',
        ]
        for query in queries:
            with_trace = traced.query(query)
            without_trace = untraced.query(query)
            assert with_trace.trace is not None
            assert without_trace.trace is None
            assert without_trace.stats.trace is None
            assert (
                with_trace.canonical_rows() == without_trace.canonical_rows()
            ), query

    def test_trace_root_duration_covers_children(self, bibtex_engine):
        trace = bibtex_engine.query("SELECT r.Key FROM Reference r").trace
        child_total = sum(child.duration for child in trace.root.children)
        assert trace.duration >= child_total - 1e-9

    def test_full_scan_trace(self):
        from repro.index.config import IndexConfig

        engine = FileQueryEngine(
            bibtex_schema(),
            generate_bibtex(entries=5, seed=2),
            IndexConfig.partial({"Key"}),
        )
        result = engine.query('SELECT r FROM Reference r WHERE r.Key = "x"')
        assert result.stats.strategy == "full-scan"
        names = result.trace.span_names()
        assert "full-scan-parse" in names
