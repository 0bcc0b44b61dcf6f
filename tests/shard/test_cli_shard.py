"""The `shard build` / `shard query` / `shard explain` / `shard analyze`
CLI surface, including the `--fail-fast` exit-code contract and the
`--json` payload with per-shard stats."""

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
            "shard", "build", "--workload", "bibtex",
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
        ["shard", "build", "--workload", "bibtex", "--files", *paths,
         "--out", str(directory)],
    )
    assert code == 0
    assert "3 shard(s)" in err
    code, out, err = run(
        capsys,
        ["shard", "query", "--workload", "bibtex", "--index", str(directory), QUERY],
    )
    assert code == 0
    assert "3/3 shard(s)" in err
    assert out.strip()  # the query matches rows in this corpus


def test_build_requires_a_corpus_argument(tmp_path, capsys) -> None:
    with pytest.raises(SystemExit):
        main(["shard", "build", "--workload", "bibtex", "--out", str(tmp_path / "x")])


def test_query_healthy_matches_unsharded_cli(cli_sharded, tmp_path, capsys) -> None:
    code, sharded_out, err = run(
        capsys,
        ["shard", "query", "--workload", "bibtex", "--index", str(cli_sharded), QUERY],
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
        ["shard", "query", "--workload", "bibtex", "--index", str(cli_sharded),
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
        ["shard", "query", "--workload", "bibtex", "--index", str(cli_sharded),
         "--fail-fast", QUERY],
    )
    assert code == 1
    assert "error:" in err and "failed" in err


def test_max_parallel_flag(cli_sharded, capsys) -> None:
    code, _, err = run(
        capsys,
        ["shard", "query", "--workload", "bibtex", "--index", str(cli_sharded),
         "--max-parallel", "2", QUERY],
    )
    assert code == 0
    assert "8/8 shard(s)" in err


def test_explain_shows_roster(cli_sharded, capsys) -> None:
    code, out, _ = run(
        capsys,
        ["shard", "explain", "--workload", "bibtex", "--index", str(cli_sharded), QUERY],
    )
    assert code == 0
    assert "shards:    8" in out


def test_analyze_json_carries_shard_records(cli_sharded, capsys) -> None:
    code, out, _ = run(
        capsys,
        ["shard", "analyze", "--workload", "bibtex", "--index", str(cli_sharded),
         "--json", QUERY],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["stats"]["strategy"] == "sharded"
    assert len(payload["stats"]["shards"]) == 8


@pytest.mark.parametrize("command", ["query", "explain", "analyze"])
def test_top_level_commands_detect_a_sharded_index(cli_sharded, capsys, command) -> None:
    # One backend selection: `repro query --index <sharded dir>` is the
    # same handler as `repro shard query`, so stdout is identical.
    tail = ["--workload", "bibtex", "--index", str(cli_sharded), QUERY]
    code, nested, _ = run(capsys, ["shard", command, *tail])
    assert code == 0
    code, top_level, _ = run(capsys, [command, *tail])
    assert code == 0
    if command == "analyze":  # measured times differ run to run
        nested, top_level = (text.split("\n")[1:6] for text in (nested, top_level))
    assert top_level == nested


def test_query_on_single_index_directory_errors_cleanly(
    tmp_path, schema, corpus_text, capsys
) -> None:
    from repro.core.engine import FileQueryEngine

    directory = tmp_path / "idx"
    FileQueryEngine(schema, corpus_text).save(str(directory))
    code, _, err = run(
        capsys,
        ["shard", "query", "--workload", "bibtex", "--index", str(directory), QUERY],
    )
    assert code == 1
    assert "not a sharded-index manifest" in err
