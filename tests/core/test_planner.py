"""Planning: strategy choice."""

import pytest

from repro.core.planner import Planner
from repro.core.translate import Translator
from repro.index.config import IndexConfig
from repro.workloads.bibtex import bibtex_schema


@pytest.fixture(scope="module")
def full_planner() -> Planner:
    return Planner(Translator(bibtex_schema(), IndexConfig.full()))


@pytest.fixture(scope="module")
def partial_planner() -> Planner:
    return Planner(
        Translator(
            bibtex_schema(), IndexConfig.partial({"Reference", "Key", "Last_Name"})
        )
    )


class TestStrategies:
    def test_exact_plan(self, full_planner):
        plan = full_planner.plan(
            'SELECT r FROM Reference r WHERE r.Authors.Name.Last_Name = "Chang"'
        )
        assert plan.strategy == "index-exact"
        assert plan.exact
        assert plan.trace.rewrite_count > 0

    def test_candidates_plan(self, partial_planner):
        plan = partial_planner.plan(
            'SELECT r FROM Reference r WHERE r.Authors.Name.Last_Name = "Chang"'
        )
        assert plan.strategy == "index-candidates"
        assert not plan.exact

    def test_join_plan(self, full_planner):
        plan = full_planner.plan(
            "SELECT r FROM Reference r WHERE r.Editors.Name = r.Authors.Name"
        )
        assert plan.strategy == "index-join"
        assert plan.join_chains is not None

    def test_join_with_variables_not_special_cased(self, full_planner):
        plan = full_planner.plan(
            "SELECT r FROM Reference r WHERE r.*X.Last_Name = r.Key"
        )
        assert plan.strategy != "index-join"

    def test_empty_plan_unsatisfiable(self, full_planner):
        plan = full_planner.plan('SELECT r FROM Reference r WHERE r.Bogus = "x"')
        assert plan.strategy == "empty"
        assert plan.exact

    def test_full_scan_plan(self):
        planner = Planner(Translator(bibtex_schema(), IndexConfig.partial({"Key"})))
        plan = planner.plan('SELECT r FROM Reference r WHERE r.Key = "x"')
        assert plan.strategy == "full-scan"

    def test_trivially_empty_intersection(self, full_planner):
        # Year = "1982" AND Year-path-through-Title is impossible: the
        # translated expression for the second conjunct is never satisfied.
        plan = full_planner.plan(
            'SELECT r FROM Reference r WHERE r.Title.Last_Name = "x"'
        )
        assert plan.strategy == "empty"

    def test_plan_accepts_query_objects(self, full_planner):
        from repro.db.parser import parse_query

        query = parse_query("SELECT r FROM Reference r")
        plan = full_planner.plan(query)
        assert plan.strategy == "index-exact"

    def test_optimization_happens_in_plan(self, full_planner):
        plan = full_planner.plan(
            'SELECT r FROM Reference r WHERE r.Authors.Name.Last_Name = "Chang"'
        )
        assert str(plan.optimized_expression) == (
            "Reference ⊃ Authors ⊃ σ[Chang](Last_Name)"
        )
