"""The command-line interface."""

import json

import pytest

from repro.cli import main
from repro.workloads.bibtex import generate_bibtex


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "refs.bib"
    path.write_text(generate_bibtex(entries=12, seed=4))
    return str(path)


class TestGenerate:
    def test_generate_writes_corpus(self, capsys):
        assert main(["generate", "--workload", "bibtex", "--entries", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("@INCOLLECTION{") == 3

    def test_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["generate", "--workload", "nope"])


class TestQuery:
    def test_query_prints_rows(self, corpus_file, capsys):
        code = main(
            [
                "query",
                "--workload",
                "bibtex",
                "--file",
                corpus_file,
                "SELECT r.Key FROM Reference r",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == 12
        assert "12 row(s)" in captured.err

    def test_query_renders_objects(self, corpus_file, capsys):
        main(
            [
                "query",
                "--workload",
                "bibtex",
                "--file",
                corpus_file,
                'SELECT r FROM Reference r WHERE r.Year = "0000"',
            ]
        )
        captured = capsys.readouterr()
        assert "0 row(s)" in captured.err

    def test_partial_option(self, corpus_file, capsys):
        main(
            [
                "query",
                "--workload",
                "bibtex",
                "--file",
                corpus_file,
                "--partial",
                "Reference,Key,Last_Name",
                'SELECT r.Key FROM Reference r WHERE r.*X.Last_Name = "Chang"',
            ]
        )
        captured = capsys.readouterr()
        assert "row(s)" in captured.err

    def test_requires_file_or_index(self):
        with pytest.raises(SystemExit):
            main(["query", "--workload", "bibtex", "SELECT r FROM Reference r"])

    def test_query_json(self, corpus_file, capsys):
        code = main(
            [
                "query",
                "--workload",
                "bibtex",
                "--file",
                corpus_file,
                "--json",
                "SELECT r.Key FROM Reference r",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["rows"]) == 12
        assert payload["stats"]["rows"] == 12
        assert payload["stats"]["strategy"]
        assert payload["stats"]["trace"]["name"] == "query"


class TestExplain:
    def test_explain_shows_plan(self, corpus_file, capsys):
        main(
            [
                "explain",
                "--workload",
                "bibtex",
                "--file",
                corpus_file,
                'SELECT r FROM Reference r WHERE r.Authors.Name.Last_Name = "Chang"',
            ]
        )
        out = capsys.readouterr().out
        assert "strategy:" in out
        assert "optimized:" in out


class TestAnalyze:
    QUERY = 'SELECT r FROM Reference r WHERE r.Authors.Name.Last_Name = "Chang"'

    def test_analyze_text(self, corpus_file, capsys):
        code = main(
            ["analyze", "--workload", "bibtex", "--file", corpus_file, self.QUERY]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("EXPLAIN ANALYZE")
        assert "plan nodes (estimated cost | measured):" in out
        assert "pipeline stages (measured):" in out

    def test_analyze_json(self, corpus_file, capsys):
        code = main(
            [
                "analyze",
                "--workload",
                "bibtex",
                "--file",
                corpus_file,
                "--json",
                self.QUERY,
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["query"]
        assert payload["strategy"]
        assert payload["nodes"]
        assert payload["stages"]["name"] == "query"
        assert "stats" in payload


class TestIndexAndStats:
    def test_index_then_query(self, corpus_file, tmp_path, capsys):
        index_dir = str(tmp_path / "idx")
        assert (
            main(
                [
                    "index",
                    "--workload",
                    "bibtex",
                    "--file",
                    corpus_file,
                    "--out",
                    index_dir,
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "query",
                    "--workload",
                    "bibtex",
                    "--index",
                    index_dir,
                    "SELECT r.Key FROM Reference r",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == 12

    def test_stats(self, corpus_file, capsys):
        assert (
            main(["stats", "--workload", "bibtex", "--file", corpus_file]) == 0
        )
        out = capsys.readouterr().out
        assert "region entries" in out

    def test_stats_json(self, corpus_file, capsys):
        assert (
            main(
                ["stats", "--workload", "bibtex", "--file", corpus_file, "--json"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["index"]["total_region_entries"] > 0
        assert "cache" in payload
        assert "cache_config" in payload


class TestLive:
    @pytest.fixture
    def live_index(self, corpus_file, tmp_path):
        directory = tmp_path / "lidx"
        assert main(
            [
                "shard", "build", "--workload", "bibtex",
                "--file", corpus_file, "--shards", "3",
                "--out", str(directory),
            ]
        ) == 0
        return str(directory)

    @pytest.fixture
    def record(self):
        from repro.workloads.bibtex import bibtex_schema

        text = generate_bibtex(entries=1, seed=77)
        schema = bibtex_schema()
        (child,) = list(schema.parse(text).children)
        return text[child.start : child.end] + "\n\n"

    def test_append_then_status_then_compact(self, live_index, record, capsys):
        assert main(
            [
                "live", "append", "--workload", "bibtex",
                "--index", live_index, "--record", record,
            ]
        ) == 0
        assert "appended 1 record(s) through seq 1" in capsys.readouterr().err

        assert main(
            ["live", "status", "--workload", "bibtex", "--index", live_index]
        ) == 0
        assert "1 pending record(s)" in capsys.readouterr().out

        assert main(
            ["live", "compact", "--workload", "bibtex", "--index", live_index]
        ) == 0
        assert "folded 1 record(s)" in capsys.readouterr().err

        assert main(
            [
                "live", "status", "--workload", "bibtex",
                "--index", live_index, "--json",
            ]
        ) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["pending_records"] == 0
        assert status["next_seq"] == 2

    def test_appended_rows_reach_queries(self, live_index, record, capsys):
        main(
            [
                "live", "append", "--workload", "bibtex",
                "--index", live_index, "--record", record, "--compact",
            ]
        )
        capsys.readouterr()
        # Whole objects: the appended entry reuses the key "Chan80a", so a
        # key projection is (like solo over base + record) 12 distinct rows.
        assert main(
            [
                "shard", "query", "--workload", "bibtex",
                "--index", live_index, "SELECT r FROM Reference r",
            ]
        ) == 0
        assert "13 row(s)" in capsys.readouterr().err
        # The key projection, narrowed to the appended entry's own title.
        assert main(
            [
                "shard", "query", "--workload", "bibtex", "--index", live_index,
                'SELECT r.Key FROM Reference r WHERE '
                'r.Title = "Automatic Using Databases Parsing Grammars"',
            ]
        ) == 0
        out, err = capsys.readouterr()
        assert out == "Chan80a\n" and "1 row(s)" in err

    def test_bad_record_is_a_typed_cli_error(self, live_index, capsys):
        code = main(
            [
                "live", "append", "--workload", "bibtex",
                "--index", live_index, "--record", "not bibtex",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def sharded_index(corpus_file, tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli-sharded") / "sidx"
    argv = ["index", "--workload", "bibtex", "--file", corpus_file]
    assert main(argv + ["--shards", "2", "--out", str(directory)]) == 0
    return str(directory)


class TestNumericOptions:
    """An out-of-range count, size or duration is a one-line usage error
    (exit 2) at parse time, never an engine default or a traceback."""

    @pytest.mark.parametrize(
        "command, option, value",
        [
            ("query", "--max-parallel", "0"),
            ("query", "--max-parallel", "-1"),
            ("query", "--budget-ms", "-1"),
            ("query", "--budget-regions", "-1"),
            ("query", "--budget-bytes", "-1"),
            ("serve", "--workers", "0"),
            ("serve", "--queue-depth", "-1"),
            ("serve", "--page-size", "0"),
            ("serve", "--max-page-size", "0"),
            ("serve", "--drain-s", "-1"),
            ("serve", "--budget-ms", "-1"),
        ],
    )
    def test_out_of_range_value_is_a_usage_error(
        self, sharded_index, capsys, command, option, value
    ):
        argv = [command, "--workload", "bibtex", "--index", sharded_index, option, value]
        argv += ["SELECT r.Key FROM Reference r"] if command == "query" else ["--port", "0"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"argument {option}: must be >= " in capsys.readouterr().err
