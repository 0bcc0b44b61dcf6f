"""EXPLAIN ANALYZE: the annotated plan with estimates next to actuals."""

from __future__ import annotations

import json

from repro.core.engine import FileQueryEngine
from repro.db.parser import parse_query
from repro.obs.analyze import Analysis, NodeAnalysis, build_node_table, node_label
from repro.workloads.bibtex import bibtex_schema, generate_bibtex

SELECT = 'SELECT r FROM Reference r WHERE r.Authors.Name.Last_Name = "Chang"'


class TestNodeLabel:
    def test_labels(self):
        from repro.algebra.ast import parse_expression

        assert node_label(parse_expression("A")) == "A"
        assert node_label(parse_expression("A > B")) == "⊃"
        assert node_label(parse_expression("A >d B")) == "⊃d"
        assert node_label(parse_expression("A | B")) == "∪"
        assert node_label(parse_expression("sigma[w](A)")) == "σ[w]"
        assert node_label(parse_expression("innermost(A)")) == "ι"
        assert node_label(parse_expression("outermost(A)")) == "ω"


class TestBuildNodeTable:
    def test_estimates_without_log(self):
        from repro.algebra.ast import parse_expression

        expression = parse_expression("A > sigma[w](B)")
        rows = build_node_table(expression, None)
        assert [row.label for row in rows] == ["⊃", "A", "σ[w]", "B"]
        assert [row.depth for row in rows] == [0, 1, 1, 2]
        root = rows[0]
        assert root.estimated_subtree_cost == sum(r.estimated_cost for r in rows)
        assert all(row.actual_seconds is None for row in rows)


class TestEngineAnalyze:
    def test_analyze_accepts_string(self, bibtex_engine):
        analysis = bibtex_engine.analyze(SELECT)
        assert isinstance(analysis, Analysis)
        assert analysis.strategy in ("index-project", "index-exact", "index-candidates")

    def test_analyze_accepts_query(self, bibtex_engine):
        analysis = bibtex_engine.analyze(parse_query(SELECT))
        assert isinstance(analysis, Analysis)

    def test_analyze_accepts_query_result(self, bibtex_engine):
        result = bibtex_engine.query(SELECT)
        analysis = bibtex_engine.analyze(result)
        assert analysis.plan is result.plan

    def test_every_node_measured(self):
        # A fresh engine so the instrumented re-run is not short-circuited
        # by earlier queries' caches.
        engine = FileQueryEngine(bibtex_schema(), generate_bibtex(entries=12, seed=9))
        analysis = engine.analyze(SELECT)
        assert analysis.nodes
        for row in analysis.nodes:
            assert row.actual_seconds is not None, row.label
            assert row.actual_regions is not None, row.label
            assert row.actual_seconds >= 0.0
        # Subtree timing is inclusive: the root costs at least any child.
        root = analysis.nodes[0]
        assert all(
            root.actual_seconds >= row.actual_seconds for row in analysis.nodes[1:]
        )

    def test_render_sections(self, bibtex_engine):
        text = bibtex_engine.analyze(SELECT).render()
        assert text.startswith("EXPLAIN ANALYZE")
        assert "strategy:" in text
        assert "optimized:" in text
        assert "plan nodes (estimated cost | measured):" in text
        assert "pipeline stages (measured):" in text
        assert "totals:" in text
        analysis = bibtex_engine.analyze(SELECT)
        assert str(analysis) == analysis.render()

    def test_to_dict_shape(self, bibtex_engine):
        data = bibtex_engine.analyze(SELECT).to_dict()
        assert set(data) >= {
            "query",
            "strategy",
            "exact",
            "notes",
            "expression",
            "nodes",
            "stages",
            "stats",
        }
        assert data["expression"]["optimized"]
        assert data["expression"]["estimated_cost"] > 0
        assert data["nodes"], "expected plan-node rows"
        for row in data["nodes"]:
            assert set(row) == {
                "depth",
                "label",
                "expression",
                "estimated_cost",
                "estimated_subtree_cost",
                "estimated_rows",
                "actual_s",
                "actual_regions",
                "cached",
            }
            # Rows-vs-rows: the cardinality estimate shares the unit of
            # actual_regions.
            assert row["estimated_rows"] is not None
            assert row["estimated_rows"] >= 0.0
        assert data["stages"]["name"] == "query"
        json.dumps(data)

    def test_analyze_without_expression(self, bibtex_engine):
        # An unknown attribute plans as `empty`: no region expression to
        # instrument, but analyze still returns a coherent report.
        analysis = bibtex_engine.analyze(
            'SELECT r FROM Reference r WHERE r.Bogus = "x"'
        )
        assert analysis.strategy == "empty"
        assert analysis.nodes == []
        data = analysis.to_dict()
        assert data["expression"] is None
        assert data["nodes"] == []

    def test_analyze_rows_match_query(self, bibtex_engine):
        result = bibtex_engine.query(SELECT)
        analysis = bibtex_engine.analyze(SELECT)
        assert analysis.stats.rows == len(result.rows)


class TestExplainAcceptsResult:
    @staticmethod
    def _plan_lines(text: str) -> list[str]:
        # Drop the engine-lifetime cache tallies, which advance between
        # calls; the plan description itself must be identical.
        return [line for line in text.splitlines() if not line.startswith("cache")]

    def test_explain_query_result(self, bibtex_engine):
        result = bibtex_engine.query(SELECT)
        text = bibtex_engine.explain(result)
        assert "strategy:" in text
        assert self._plan_lines(text) == self._plan_lines(bibtex_engine.explain(SELECT))

    def test_explain_still_accepts_string_and_query(self, bibtex_engine):
        from_string = bibtex_engine.explain(SELECT)
        from_query = bibtex_engine.explain(parse_query(SELECT))
        assert self._plan_lines(from_string) == self._plan_lines(from_query)
