"""The `--replicas` build surface and the `repro scrub` command: exit
codes (clean=0, healed=0, damage without repair=1) and the `--json`
report shape."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.index.persist import QUARANTINE_PREFIX, replica_dir_name

QUERY = 'SELECT r FROM Reference r WHERE r.Authors.Name.Last_Name = "Chang"'


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def cli_replicated(tmp_path, corpus_text, capsys):
    source = tmp_path / "refs.bib"
    source.write_text(corpus_text, encoding="utf-8")
    directory = tmp_path / "sidx"
    code, _, err = run(
        capsys,
        [
            "index", "--workload", "bibtex",
            "--file", str(source), "--shards", "4",
            "--replicas", "2", "--out", str(directory),
        ],
    )
    assert code == 0
    assert "2 replica(s) each" in err
    return directory


def corrupt_replica(directory, shard_index: int = 0, replica: int = 0) -> None:
    shard_dir = sorted((directory / "shards").iterdir())[shard_index]
    target = shard_dir / replica_dir_name(replica) / "config.json"
    data = bytearray(target.read_bytes())
    data[20:24] = b"XXXX"
    target.write_bytes(bytes(data))


def test_build_rejects_single_replica(tmp_path, corpus_text, capsys) -> None:
    source = tmp_path / "refs.bib"
    source.write_text(corpus_text, encoding="utf-8")
    with pytest.raises(SystemExit) as excinfo:
        main(
            [
                "index", "--workload", "bibtex",
                "--file", str(source), "--shards", "2",
                "--replicas", "1", "--out", str(tmp_path / "sidx"),
            ]
        )
    assert excinfo.value.code == 2  # a usage error, like every out-of-range count
    assert "argument --replicas: must be >= 2" in capsys.readouterr().err
    assert not (tmp_path / "sidx").exists()


def test_scrub_clean_exits_zero(cli_replicated, capsys) -> None:
    code, out, _ = run(
        capsys,
        ["scrub", "--workload", "bibtex", "--index", str(cli_replicated)],
    )
    assert code == 0
    assert "clean" in out


def test_scrub_reports_damage_and_exits_one_without_repair(
    cli_replicated, capsys
) -> None:
    corrupt_replica(cli_replicated)
    code, out, _ = run(
        capsys,
        ["scrub", "--workload", "bibtex", "--index", str(cli_replicated)],
    )
    assert code == 1
    assert "1 finding(s)" in out
    assert "corrupt" in out


def test_scrub_repair_heals_and_exits_zero(cli_replicated, capsys) -> None:
    corrupt_replica(cli_replicated)
    code, out, err = run(
        capsys,
        [
            "scrub", "--workload", "bibtex",
            "--index", str(cli_replicated), "--repair",
        ],
    )
    assert code == 0
    assert "copied-from-peer" in out
    assert "replica-repaired" in err
    # The damaged copy was quarantined, not deleted.
    shard_dir = sorted((cli_replicated / "shards").iterdir())[0]
    assert list(shard_dir.glob(f"{QUARANTINE_PREFIX}*"))
    # Second pass: zero findings.
    code, out, _ = run(
        capsys,
        ["scrub", "--workload", "bibtex", "--index", str(cli_replicated)],
    )
    assert code == 0
    assert "clean" in out


def test_scrub_json_report(cli_replicated, capsys) -> None:
    corrupt_replica(cli_replicated)
    code, out, _ = run(
        capsys,
        [
            "scrub", "--workload", "bibtex",
            "--index", str(cli_replicated), "--repair", "--json",
        ],
    )
    assert code == 0
    report = json.loads(out)
    assert report["shards_checked"] == 4
    assert report["replicas_checked"] == 8
    assert report["clean"] is False
    assert [f["kind"] for f in report["findings"]] == ["corrupt"]
    assert [r["action"] for r in report["repairs"]] == [
        "quarantined",
        "copied-from-peer",
    ]


def test_query_with_one_corrupt_replica_is_byte_identical(
    cli_replicated, capsys
) -> None:
    code, healthy_out, _ = run(
        capsys,
        [
            "query", "--workload", "bibtex",
            "--index", str(cli_replicated), QUERY,
        ],
    )
    assert code == 0
    for shard_index in range(4):
        corrupt_replica(cli_replicated, shard_index=shard_index)
    code, out, err = run(
        capsys,
        [
            "query", "--workload", "bibtex",
            "--index", str(cli_replicated), QUERY,
        ],
    )
    assert code == 0
    assert out == healthy_out
    assert "replica-failover" in err
    assert "partial-result" not in err
