"""The sharded CLI surface: `repro index --files|--shards` builds a sharded
index, and `repro query|explain|analyze --index` detect one — including
the `--fail-fast` exit-code contract and the `--json` payload with
per-shard stats."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

QUERY = 'SELECT r FROM Reference r WHERE r.Authors.Name.Last_Name = "Chang"'


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def cli_sharded(tmp_path, corpus_text, capsys):
    source = tmp_path / "refs.bib"
    source.write_text(corpus_text, encoding="utf-8")
    directory = tmp_path / "sidx"
    code, _, err = run(
        capsys,
        [
            "index", "--workload", "bibtex",
            "--file", str(source), "--shards", "8", "--out", str(directory),
        ],
    )
    assert code == 0
    assert "8 shard(s)" in err
    return directory


def corrupt_one_shard(directory, index: int = 2) -> None:
    victim = sorted((directory / "shards").iterdir())[index]
    (victim / "corpus.txt").write_text("garbage", encoding="utf-8")


def test_build_from_multiple_files(tmp_path, schema, corpus_text, capsys) -> None:
    from repro.shard import split_corpus

    parts = split_corpus(schema, corpus_text, 3)
    paths = []
    for number, part in enumerate(parts):
        path = tmp_path / f"part{number}.bib"
        path.write_text(part, encoding="utf-8")
        paths.append(str(path))
    directory = tmp_path / "sidx"
    code, _, err = run(
        capsys,
        ["index", "--workload", "bibtex", "--files", *paths,
         "--out", str(directory)],
    )
    assert code == 0
    assert "3 shard(s)" in err
    code, out, err = run(
        capsys,
        ["query", "--workload", "bibtex", "--index", str(directory), QUERY],
    )
    assert code == 0
    assert "3/3 shard(s)" in err
    assert out.strip()  # the query matches rows in this corpus


def test_build_requires_a_corpus_argument(tmp_path, capsys) -> None:
    with pytest.raises(SystemExit, match="--shards N needs --file F"):
        main(["index", "--workload", "bibtex", "--shards", "2", "--out", str(tmp_path / "x")])


def test_query_healthy_matches_unsharded_cli(cli_sharded, tmp_path, capsys) -> None:
    code, sharded_out, err = run(
        capsys,
        ["query", "--workload", "bibtex", "--index", str(cli_sharded), QUERY],
    )
    assert code == 0
    assert "8/8 shard(s)" in err
    code, single_out, _ = run(
        capsys,
        ["query", "--workload", "bibtex", "--file", str(tmp_path / "refs.bib"), QUERY],
    )
    assert code == 0
    assert sorted(sharded_out.splitlines()) == sorted(single_out.splitlines())


def test_partial_result_json_and_warnings(cli_sharded, capsys) -> None:
    corrupt_one_shard(cli_sharded)
    code, out, err = run(
        capsys,
        ["query", "--workload", "bibtex", "--index", str(cli_sharded),
         "--json", QUERY],
    )
    assert code == 0
    payload = json.loads(out)
    codes = [warning["code"] for warning in payload["warnings"]]
    assert "shard-failed" in codes
    assert "partial-result" in codes
    statuses = [record["status"] for record in payload["stats"]["shards"]]
    assert statuses.count("failed") == 1
    assert statuses.count("ok") == 7
    assert "warning: [shard-failed]" in err
    assert "warning: [partial-result]" in err


def test_fail_fast_exits_nonzero(cli_sharded, capsys) -> None:
    corrupt_one_shard(cli_sharded)
    code, _, err = run(
        capsys,
        ["query", "--workload", "bibtex", "--index", str(cli_sharded),
         "--fail-fast", QUERY],
    )
    assert code == 1
    assert "error:" in err and "failed" in err


def test_max_parallel_flag(cli_sharded, capsys) -> None:
    code, _, err = run(
        capsys,
        ["query", "--workload", "bibtex", "--index", str(cli_sharded),
         "--max-parallel", "2", QUERY],
    )
    assert code == 0
    assert "8/8 shard(s)" in err


def test_explain_shows_roster(cli_sharded, capsys) -> None:
    code, out, _ = run(
        capsys,
        ["explain", "--workload", "bibtex", "--index", str(cli_sharded), QUERY],
    )
    assert code == 0
    assert "shards:    8" in out


def test_analyze_json_carries_shard_records(cli_sharded, capsys) -> None:
    code, out, _ = run(
        capsys,
        ["analyze", "--workload", "bibtex", "--index", str(cli_sharded),
         "--json", QUERY],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["stats"]["strategy"] == "sharded"
    assert len(payload["stats"]["shards"]) == 8


#: What each command prints only when it answers from all 8 shards.
SHARDED_MARK = {"query": "8/8 shard(s)", "explain": "shards:    8", "analyze": "8/8 healthy"}


@pytest.mark.parametrize("command", ["query", "explain", "analyze"])
def test_top_level_commands_detect_a_sharded_index(cli_sharded, capsys, command) -> None:
    code, out, err = run(
        capsys, [command, "--workload", "bibtex", "--index", str(cli_sharded), QUERY]
    )
    assert code == 0
    assert SHARDED_MARK[command] in out + err


def test_shard_command_is_a_usage_error(cli_sharded, capsys) -> None:
    # `repro shard build|query|explain|analyze` were aliases of the
    # top-level commands; the spelling is gone.
    with pytest.raises(SystemExit) as excinfo:
        main(["shard", "query", "--workload", "bibtex", "--index", str(cli_sharded), QUERY])
    assert excinfo.value.code == 2
    assert "invalid choice: 'shard'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["live", "status"], ["scrub"]], ids=["live-status", "scrub"])
def test_sharded_only_commands_refuse_a_single_index_directory(
    tmp_path, schema, corpus_text, capsys, argv
) -> None:
    from repro.core.engine import FileQueryEngine

    directory = tmp_path / "idx"
    FileQueryEngine(schema, corpus_text).save(str(directory))
    code, _, err = run(capsys, [*argv, "--workload", "bibtex", "--index", str(directory)])
    assert code == 1
    assert "not a sharded-index manifest" in err
