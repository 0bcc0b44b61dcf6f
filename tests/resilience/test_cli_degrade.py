"""CLI fault tolerance (satellite f): ``--strict``/``--degrade`` flags,
budget flags, warnings on stderr, and warnings in the ``--json`` payload."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.engine import FileQueryEngine
from tests.chaos.faults import corrupt_index_file

QUERY = 'SELECT r FROM Reference r WHERE r.Authors.Name.Last_Name = "Chang"'


@pytest.fixture
def cli_index(tmp_path, corpus_schema, corpus_text):
    source = tmp_path / "refs.bib"
    source.write_text(corpus_text, encoding="utf-8")
    directory = tmp_path / "idx"
    engine = FileQueryEngine(corpus_schema, corpus_text)
    engine.save(str(directory), source_path=source)
    return directory, source


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCorruptIndexCli:
    def test_degrade_exits_zero_with_warning(self, capsys, cli_index):
        directory, _ = cli_index
        corrupt_index_file(directory, part="regions", mode="garbage")
        code, out, err = run(
            capsys,
            ["query", "--workload", "bibtex", "--index", str(directory), "--degrade", QUERY],
        )
        assert code == 0
        assert out.strip()  # rows still produced, via full scan
        assert "warning: [index-corrupt]" in err
        assert "warning: [degraded-full-scan]" in err

    def test_strict_exits_nonzero(self, capsys, cli_index):
        directory, _ = cli_index
        corrupt_index_file(directory, part="regions", mode="garbage")
        code, out, err = run(
            capsys,
            ["query", "--workload", "bibtex", "--index", str(directory), "--strict", QUERY],
        )
        assert code == 1
        assert "error:" in err and "corrupt" in err

    def test_json_payload_carries_warnings(self, capsys, cli_index):
        directory, _ = cli_index
        corrupt_index_file(directory, part="regions", mode="garbage")
        code, out, err = run(
            capsys,
            [
                "query", "--workload", "bibtex", "--index", str(directory),
                "--degrade", "--json", QUERY,
            ],
        )
        assert code == 0
        payload = json.loads(out)
        codes = [warning["code"] for warning in payload["warnings"]]
        assert "index-corrupt" in codes and "degraded-full-scan" in codes
        assert payload["stats"]["warnings"] == payload["warnings"]
        assert payload["stats"]["strategy"] == "full-scan"

    def test_degraded_rows_match_healthy_rows(self, capsys, cli_index):
        directory, source = cli_index
        code, healthy_out, _ = run(
            capsys,
            ["query", "--workload", "bibtex", "--index", str(directory), "--json", QUERY],
        )
        assert code == 0
        corrupt_index_file(directory, part="regions", mode="garbage")
        code, degraded_out, _ = run(
            capsys,
            [
                "query", "--workload", "bibtex", "--index", str(directory),
                "--degrade", "--json", QUERY,
            ],
        )
        assert code == 0
        assert json.loads(degraded_out)["rows"] == json.loads(healthy_out)["rows"]

    def test_strict_and_degrade_are_mutually_exclusive(self, capsys, cli_index):
        directory, _ = cli_index
        with pytest.raises(SystemExit):
            main(
                ["query", "--workload", "bibtex", "--index", str(directory),
                 "--strict", "--degrade", QUERY]
            )


class TestStaleIndexCli:
    def test_stale_source_degrades_with_warning(self, capsys, cli_index):
        from repro.workloads.bibtex import generate_bibtex

        directory, source = cli_index
        source.write_text(generate_bibtex(entries=27, seed=13), encoding="utf-8")
        code, out, err = run(
            capsys,
            [
                "query", "--workload", "bibtex", "--index", str(directory),
                "--file", str(source), "--degrade", QUERY,
            ],
        )
        assert code == 0
        assert "warning: [index-stale]" in err

    def test_stale_source_strict_fails(self, capsys, cli_index):
        from repro.workloads.bibtex import generate_bibtex

        directory, source = cli_index
        source.write_text(generate_bibtex(entries=27, seed=13), encoding="utf-8")
        code, _, err = run(
            capsys,
            [
                "query", "--workload", "bibtex", "--index", str(directory),
                "--file", str(source), "--strict", QUERY,
            ],
        )
        assert code == 1
        assert "stale" in err


class TestBudgetCli:
    def test_budget_breach_fails_by_default(self, capsys, cli_index):
        _, source = cli_index
        code, _, err = run(
            capsys,
            [
                "query", "--workload", "bibtex", "--file", str(source),
                "--budget-regions", "1", QUERY,
            ],
        )
        assert code == 1
        assert "budget exceeded" in err

    def test_budget_breach_degrades_when_asked(self, capsys, cli_index):
        _, source = cli_index
        code, out, err = run(
            capsys,
            [
                "query", "--workload", "bibtex", "--file", str(source),
                "--budget-regions", "1", "--degrade", QUERY,
            ],
        )
        assert code == 0
        assert out.strip()
        assert "warning: [budget-degraded]" in err
