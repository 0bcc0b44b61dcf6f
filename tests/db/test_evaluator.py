"""The naive in-database evaluator (the baseline)."""

import pytest

import repro.db.evaluator
import repro.db.values
from repro.core.engine import FileQueryEngine
from repro.db.evaluator import NaiveEvaluator
from repro.db.model import Database
from repro.db.parser import parse_query
from repro.db.values import (
    AtomicValue,
    ObjectValue,
    SetValue,
    TupleValue,
    atom,
    canonical,
    canonical_row,
)
from repro.workloads.bibtex import bibtex_schema, generate_bibtex


def make_reference(key, author_lasts, editor_lasts, year="1990"):
    def names(lasts):
        return SetValue(
            [
                TupleValue(
                    "Name",
                    {
                        "First_Name": AtomicValue("A.", "First_Name"),
                        "Last_Name": AtomicValue(last, "Last_Name"),
                    },
                )
                for last in lasts
            ]
        )

    return ObjectValue(
        "Reference",
        {
            "Key": AtomicValue(key, "Key"),
            "Year": AtomicValue(year, "Year"),
            "Authors": names(author_lasts),
            "Editors": names(editor_lasts),
        },
    )


@pytest.fixture()
def database() -> Database:
    db = Database()
    db.insert(make_reference("r1", ["Chang", "Corliss"], ["Griewank"]))
    db.insert(make_reference("r2", ["Milo"], ["Chang"], year="1994"))
    db.insert(make_reference("r3", ["Consens"], ["Consens", "Tompa"]))
    return db


def authors_form(*lasts):
    """The canonical form of ``make_reference``'s set of author names."""
    return frozenset(
        ("tuple", "Name", (("First_Name", "A."), ("Last_Name", last))) for last in lasts
    )


def keys(rows):
    return {canonical(row[0].get("Key")) for row in rows}


class TestSelection:
    def test_existential_semantics(self, database):
        evaluator = NaiveEvaluator(database)
        rows = evaluator.evaluate(
            parse_query(
                'SELECT r FROM Reference r WHERE r.Authors.Name.Last_Name = "Chang"'
            )
        )
        assert keys(rows) == {"r1"}

    def test_and_or(self, database):
        evaluator = NaiveEvaluator(database)
        rows = evaluator.evaluate(
            parse_query(
                'SELECT r FROM Reference r WHERE '
                'r.Authors.Name.Last_Name = "Milo" OR r.Year = "1990"'
            )
        )
        assert keys(rows) == {"r1", "r2", "r3"}
        rows = evaluator.evaluate(
            parse_query(
                'SELECT r FROM Reference r WHERE '
                'r.Year = "1990" AND r.Authors.Name.Last_Name = "Consens"'
            )
        )
        assert keys(rows) == {"r3"}

    def test_not(self, database):
        evaluator = NaiveEvaluator(database)
        rows = evaluator.evaluate(
            parse_query(
                'SELECT r FROM Reference r WHERE NOT r.Year = "1990"'
            )
        )
        assert keys(rows) == {"r2"}

    def test_not_equal_exists(self, database):
        evaluator = NaiveEvaluator(database)
        # <> is existential too: some author whose last name differs.
        rows = evaluator.evaluate(
            parse_query(
                'SELECT r FROM Reference r WHERE r.Authors.Name.Last_Name <> "Chang"'
            )
        )
        assert keys(rows) == {"r1", "r2", "r3"}

    def test_empty_result(self, database):
        evaluator = NaiveEvaluator(database)
        rows = evaluator.evaluate(
            parse_query('SELECT r FROM Reference r WHERE r.Key = "nope"')
        )
        assert rows == []


class TestStarVariables:
    def test_star_reaches_any_depth(self, database):
        evaluator = NaiveEvaluator(database)
        rows = evaluator.evaluate(
            parse_query('SELECT r FROM Reference r WHERE r.*X.Last_Name = "Chang"')
        )
        assert keys(rows) == {"r1", "r2"}

    def test_plain_variable_single_step(self, database):
        evaluator = NaiveEvaluator(database)
        # r.X.Name.Last_Name: X ranges over Authors/Editors.
        rows = evaluator.evaluate(
            parse_query('SELECT r FROM Reference r WHERE r.X.Name.Last_Name = "Chang"')
        )
        assert keys(rows) == {"r1", "r2"}

    def test_variable_consistency_across_conditions(self, database):
        evaluator = NaiveEvaluator(database)
        # Same X must be the same attribute in both conditions: some list
        # containing both Consens and Tompa — only r3's Editors.
        rows = evaluator.evaluate(
            parse_query(
                'SELECT r FROM Reference r WHERE '
                'r.X.Name.Last_Name = "Consens" AND r.X.Name.Last_Name = "Tompa"'
            )
        )
        assert keys(rows) == {"r3"}

    def test_variable_consistency_rules_out(self, database):
        evaluator = NaiveEvaluator(database)
        # Chang and Corliss are both authors only in r1.
        rows = evaluator.evaluate(
            parse_query(
                'SELECT r FROM Reference r WHERE '
                'r.X.Name.Last_Name = "Chang" AND r.X.Name.Last_Name = "Corliss"'
            )
        )
        assert keys(rows) == {"r1"}


class TestJoins:
    def test_path_comparison(self, database):
        evaluator = NaiveEvaluator(database)
        rows = evaluator.evaluate(
            parse_query(
                "SELECT r FROM Reference r WHERE r.Editors.Name.Last_Name = r.Authors.Name.Last_Name"
            )
        )
        assert keys(rows) == {"r3"}

    def test_tuple_comparison(self, database):
        evaluator = NaiveEvaluator(database)
        rows = evaluator.evaluate(
            parse_query("SELECT r FROM Reference r WHERE r.Editors.Name = r.Authors.Name")
        )
        assert keys(rows) == {"r3"}


class TestOutputs:
    def test_projection_collects_all_values(self, database):
        evaluator = NaiveEvaluator(database)
        rows = evaluator.evaluate(
            parse_query(
                'SELECT r.Authors.Name.Last_Name FROM Reference r WHERE r.Key = "r1"'
            )
        )
        assert {canonical(row[0]) for row in rows} == {"Chang", "Corliss"}

    def test_multi_output_cross_product(self, database):
        evaluator = NaiveEvaluator(database)
        rows = evaluator.evaluate(
            parse_query('SELECT r.Key, r.Year FROM Reference r WHERE r.Key = "r2"')
        )
        assert [(canonical(a), canonical(b)) for a, b in rows] == [("r2", "1994")]

    def test_variable_output_respects_bindings(self, database):
        evaluator = NaiveEvaluator(database)
        # Output the last names reached by the same X that matched Chang.
        rows = evaluator.evaluate(
            parse_query(
                'SELECT r.X.Name.Last_Name FROM Reference r '
                'WHERE r.X.Name.Last_Name = "Griewank"'
            )
        )
        assert {canonical(row[0]) for row in rows} == {"Griewank"}


class TestReport:
    def test_work_is_tallied(self, database):
        evaluator = NaiveEvaluator(database)
        evaluator.evaluate(
            parse_query('SELECT r FROM Reference r WHERE r.Key = "r1"')
        )
        assert evaluator.report.objects_scanned == 3
        assert evaluator.report.comparisons >= 3
        assert evaluator.report.rows == 1


class TestDistinctRows:
    """Rows are told apart by digest and confirmed on canonical forms only
    when two digests agree, so a digest collision must never drop a row."""

    @pytest.fixture()
    def twins(self) -> Database:
        db = Database()
        db.insert(make_reference("r1", ["Chang", "Corliss"], ["Griewank"]))
        db.insert(make_reference("r2", ["Milo", "Milo"], ["Chang"], year="1994"))
        db.insert(make_reference("r1", ["Chang", "Corliss"], ["Griewank"]))
        db.insert(make_reference("r4", ["Corliss", "Chang"], ["Tompa"]))
        return db

    @pytest.mark.parametrize(
        "query, expected",
        [
            ("SELECT r.Year FROM Reference r", [("1990",), ("1994",)]),
            (
                "SELECT r.Authors.Name.Last_Name FROM Reference r",
                [("Chang",), ("Corliss",), ("Milo",)],
            ),
            # r4's author set equals r1's, listed in another order.
            (
                "SELECT r.Authors FROM Reference r",
                [(authors_form("Chang", "Corliss"),), (authors_form("Milo"),)],
            ),
            (
                "SELECT r.Year, r.Editors.Name.Last_Name FROM Reference r",
                [("1990", "Griewank"), ("1994", "Chang"), ("1990", "Tompa")],
            ),
        ],
    )
    def test_colliding_digests_keep_every_distinct_row(
        self, twins, monkeypatch, query, expected
    ):
        monkeypatch.setattr(repro.db.evaluator, "canonical_hash", lambda value: 7)
        rows = NaiveEvaluator(twins).evaluate(parse_query(query))
        assert [canonical_row(row) for row in rows] == expected
        assert len(set(rows.hashes)) == 1

    def test_colliding_objects_keep_the_first_occurrence(self, twins, monkeypatch):
        # r1's structural twin (another oid) collapses into r1's row.
        monkeypatch.setattr(repro.db.evaluator, "canonical_hash", lambda value: 7)
        rows = NaiveEvaluator(twins).evaluate(parse_query("SELECT r FROM Reference r"))
        extent = twins.extent("Reference")
        assert [row[0] for row in rows] == [extent[0], extent[1], extent[3]]

    def test_a_rows_digest_is_the_same_in_every_answer(self, twins):
        rows = NaiveEvaluator(twins).evaluate(parse_query("SELECT r FROM Reference r"))
        assert len(rows) == len(set(rows.hashes)) == 3
        twin = NaiveEvaluator(twins).evaluate(
            parse_query('SELECT r FROM Reference r WHERE r.Authors.Name.Last_Name = "Milo"')
        )
        assert twin.hashes == rows.hashes[1:2]

    def test_a_repeated_query_builds_no_canonical_form_of_its_objects(self, monkeypatch):
        engine = FileQueryEngine(bibtex_schema(), generate_bibtex(entries=40, seed=3))
        query = "SELECT r FROM Reference r"
        built: list[object] = []
        real = repro.db.values.canonical

        def counting(value):
            if isinstance(value, ObjectValue):
                built.append(value)
            return real(value)

        for module in (repro.db.values, repro.db.evaluator):
            monkeypatch.setattr(module, "canonical", counting)
        first = engine.query(query)
        assert len(first.rows) == 40 and len(built) == 40
        built.clear()
        second = engine.query(query)
        assert second.stats.execution.cache_parse_hits > 0
        assert [row[0] for row in second.rows] == [row[0] for row in first.rows]
        assert built == []
