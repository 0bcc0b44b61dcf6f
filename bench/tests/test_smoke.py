"""Checks of the benchmark harness itself.

Run with ``python -m pytest bench/tests`` from the repository root (tier-1
collects only ``tests/``).  The smoke run drives all four workloads through
a real ``repro serve`` child, so it takes some twenty seconds.
"""

from __future__ import annotations

import json
import re

import pytest

from bench.__main__ import ROOT, main, manifest
from bench.diff import NotComparable, compare
from bench.layers import BOUNDARIES, Boundary, install
from bench.stats import TooFewSamples, percentile, samples_needed, spread
from bench.trace import Recorder, Span, self_times
from bench.traced import _Layers
from bench.workloads import WORKLOADS, op_sequence_digest, prepare

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_manifest_meets_the_contract():
    spec = manifest()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"] and spec["command"] == ["python3", "-m", "bench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])
    names = [m["name"] for m in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(name) for name in names)
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in spec["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"])
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in spec["end_to_end"]
    assert len(spec["per_layer"]) <= 128 and 1 <= spec["run_seconds"] <= 60


def test_smoke_run_reports_every_metric_and_no_failure(tmp_path, capsys):
    out = tmp_path / "BENCH.json"
    assert main(["--smoke", "--out", str(out)]) == 0
    assert capsys.readouterr().out.rstrip().endswith('"claim": null')
    result = json.loads(out.read_text())
    assert result["claim"] is None and result["nproc"] and result["python"]
    spec = manifest()
    listed = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert [record["workload"] for record in result["workloads"]] == list(WORKLOADS)
    for record in result["workloads"]:
        assert record["failed"] == 0 and record["metrics"]["failed_share"] == 0, record["faults"]
        assert record["attempted"] > 0 and len(record["corpus_sha256"]) == 64
        for name in listed:
            assert name in record["metrics"], f"{record['workload']} lacks {name}"
            assert result["units"][name]
        solo = WORKLOADS[record["workload"]].shards == 0
        assert (record["metrics"]["shard.fanout"] is None) == solo
        appends = record["metrics"]["live.journal_append_ms"]
        assert (appends is not None and appends > 0) == (record["workload"] == "live-mixed")
        assert record["metrics"]["server.http.overhead_ms"] is not None
        assert not [note for note in record["notes"] if note.startswith("layer-unresolved")]


def test_op_sequence_depends_on_the_seed_alone(tmp_path):
    spec = WORKLOADS["hot-read"]
    digests = []
    for number, seed in enumerate((17, 17, 18)):
        workdir = tmp_path / str(number)
        workdir.mkdir()
        digests.append(op_sequence_digest(prepare(spec, seed, workdir)))
    assert digests[0] == digests[1] != digests[2]


def test_percentile_needs_ten_samples_beyond_it():
    assert samples_needed(95) == 200 and samples_needed(90) == 100
    with pytest.raises(TooFewSamples):
        percentile(list(range(199)), 95)
    assert percentile(list(range(1, 201)), 95) == 190
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    with pytest.raises(TooFewSamples):
        percentile([], 50)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, "parent", "x", None, 0, 0.0, 10.0),
        Span(1, "a", "x", 0, 0, 1.0, 5.0),
        Span(2, "b", "x", 0, 0, 3.0, 7.0),  # overlaps a (another thread)
        Span(3, "late", "x", 0, 0, 9.0, 12.0),  # outlives the parent: clipped
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_unresolved_boundary_is_null_with_a_note_never_zero():
    recorder = Recorder()
    gone = Boundary("core", "repro.core.planner", "Planner.no_such_method")
    installed = install(recorder, BOUNDARIES[:3] + (gone,))
    try:
        assert installed.unresolved == ["repro.core.planner:Planner.no_such_method"]
    finally:
        installed.uninstall()
    layers = _Layers(recorder.spans, ops=1, unresolved=installed.unresolved)
    assert layers.self_ms("Planner.no_such_method") is None
    assert layers.self_ms("QueryServerApp.handle") == 0.0
    assert layers.notes == ["layer-unresolved: repro.core.planner:Planner.no_such_method"]


def test_wrappers_are_removed_again():
    from repro.core import planner
    from repro.db import parser

    originals = (planner.Planner.plan, parser.parse_query, planner.parse_query)
    installed = install(Recorder())
    assert planner.Planner.plan is not originals[0] and planner.parse_query is not originals[2]
    installed.uninstall()
    assert (planner.Planner.plan, parser.parse_query, planner.parse_query) == originals


def _result(values: list[float], digest: str = "d") -> dict:
    return {
        "end_to_end": [{"name": "query_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
        "workloads": [
            {"workload": "hot-read", "corpus_sha256": digest, "metrics": {"query_p50_ms": value}}
            for value in values
        ],
    }


def test_diff_verdicts_and_refusal():
    steady = _result([44.0, 44.1, 43.9, 44.0, 44.2])
    assert compare(steady, _result([44.5, 44.4, 44.6, 44.5, 44.3]))[0]["verdict"] == "ok"
    slower = compare(steady, _result([50.0, 50.1, 49.9, 50.2, 50.0]))[0]
    assert slower["verdict"] == "worse" and slower["ratio"] == pytest.approx(50.0 / 44.0)
    assert compare(steady, _result([30.0, 44.0, 60.0, 50.0, 41.0]))[0]["verdict"] == "unresolved"
    with pytest.raises(NotComparable):
        compare(steady, _result([44.0], digest="other"))
    assert spread([1.0]) == 0.0


def test_nothing_in_the_package_is_collected_by_tier_one():
    """The repo's pytest config collects ``bench_*``/``test_*`` names."""
    for path in (ROOT / "bench").glob("*.py"):
        assert not path.name.startswith(("bench_", "test_"))
        for name in re.findall(r"^(?:def|class) (\w+)", path.read_text(), flags=re.M):
            assert not name.startswith(("bench_", "test_")), f"{path.name}: {name}"
