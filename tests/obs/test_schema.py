"""The analyze --json contract against schemas/analyze.schema.json."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path


REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SCHEMA_PATH = REPO_ROOT / "schemas" / "analyze.schema.json"
CHECKER_PATH = REPO_ROOT / "scripts" / "check_schema.py"

SELECT = 'SELECT r FROM Reference r WHERE r.Authors.Name.Last_Name = "Chang"'
CITATION_JOIN = (
    "SELECT r1.Key, r2.Key FROM Reference r1, Reference r2 "
    "WHERE r1.Referred.RefKey = r2.Key "
    'AND r2.Authors.Name.Last_Name = "Chang"'
)


def _load_checker():
    spec = importlib.util.spec_from_file_location("check_schema", CHECKER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _schema() -> dict:
    return json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))


class TestAnalyzeSchema:
    def test_analyze_output_conforms(self, bibtex_engine):
        # The citation multi-join's document conforms too, and every node
        # carries a cardinality estimate.
        checker = _load_checker()
        for query in (SELECT, CITATION_JOIN):
            document = bibtex_engine.analyze(query).to_dict()
            assert checker.validate(document, _schema()) == []
            assert all(node["estimated_rows"] is not None for node in document["nodes"])

    def test_empty_plan_output_conforms(self, bibtex_engine):
        checker = _load_checker()
        document = bibtex_engine.analyze(
            'SELECT r FROM Reference r WHERE r.Bogus = "x"'
        ).to_dict()
        assert checker.validate(document, _schema()) == []

    def test_validator_rejects_missing_key(self, bibtex_engine):
        checker = _load_checker()
        document = bibtex_engine.analyze(SELECT).to_dict()
        del document["strategy"]
        violations = checker.validate(document, _schema())
        assert any("strategy" in message for message in violations)

    def test_validator_rejects_wrong_type(self, bibtex_engine):
        checker = _load_checker()
        document = bibtex_engine.analyze(SELECT).to_dict()
        document["exact"] = "yes"
        violations = checker.validate(document, _schema())
        assert any("exact" in message for message in violations)

    def test_validator_rejects_bad_enum(self, bibtex_engine):
        checker = _load_checker()
        document = bibtex_engine.analyze(SELECT).to_dict()
        document["strategy"] = "warp-drive"
        violations = checker.validate(document, _schema())
        assert any("warp-drive" in message for message in violations)

    def test_validator_descends_into_spans(self, bibtex_engine):
        checker = _load_checker()
        document = bibtex_engine.analyze(SELECT).to_dict()
        document["stages"]["children"][0].pop("duration_s")
        violations = checker.validate(document, _schema())
        assert any("duration_s" in message for message in violations)
