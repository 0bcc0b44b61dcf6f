"""Scatter-gather execution, fault isolation, retry, and breakers
(`shard/engine.py`).  Includes the three acceptance scenarios:

- 1 corrupt shard of 8 → byte-identical rows from the 7 healthy shards
  plus `shard-failed` / `partial-result` warnings everywhere they must
  appear (result.warnings, stats.to_dict());
- the same query under `fail_fast` → typed `ShardFailedError`;
- 1 stale shard of 8 → a flagged `shard-failed` under the strict policy,
  a degraded `index-stale` answer under the default one;
- a shard behind `TransientIOFault(k=2)` → success after retries with a
  `shard-retried` record and no row differences vs. the uninjected run.
"""

from __future__ import annotations

import dataclasses
import json
import random
import threading
import time

import pytest

from repro.api import render_rows
from repro.errors import QueryError, QuerySyntaxError, ShardFailedError
from repro.resilience import BreakerConfig, DegradationPolicy, ResourceBudget, RetryPolicy
from repro.shard import OK, ShardedEngine, scrub_index, split_corpus
from repro.workloads.bibtex import generate_bibtex
from tests.chaos.faults import HungShard, SlowShard, TransientIOFault, injected
from tests.shard.conftest import N_SHARDS

NO_SLEEP = {"retry_sleep": lambda s: None}


def corrupt_shard_corpus(saved_sharded, index: int) -> str:
    """Damage shard ``index``'s corpus.txt (the unrecoverable part: the
    default policy cannot full-scan without a trustworthy text)."""
    victim = sorted((saved_sharded / "shards").iterdir())[index]
    (victim / "corpus.txt").write_text("garbage", encoding="utf-8")
    return victim.name


# -- plain scatter-gather ------------------------------------------------------


def test_sharded_rows_match_the_unsharded_engine(
    sharded_engine, query_text, reference_rows
) -> None:
    result = sharded_engine.query(query_text)
    assert result.canonical_rows() == reference_rows
    assert result.warnings == []
    assert result.stats.healthy_shards == 8
    assert result.plan is not None  # planned once, shared


def test_merged_execution_sums_every_source_counter(
    sharded_engine, query_text
) -> None:
    # The gather folds each source's ExecutionStats into one: every
    # integer counter is the sum over the sources (rows excepted: the
    # merge dedupes them) and so is the algebra tally.
    result = sharded_engine.query(query_text)
    merged = result.stats.execution
    sources = [record.result.stats.execution for record in result.stats.shards]
    counters = [
        spec.name
        for spec in dataclasses.fields(merged)
        if isinstance(getattr(merged, spec.name), int) and spec.name != "rows"
    ]
    assert "candidate_regions" in counters and merged.candidate_regions > 0
    for name in counters:
        assert getattr(merged, name) == sum(getattr(s, name) for s in sources), name
    assert merged.algebra.total_operations == sum(
        s.algebra.total_operations for s in sources
    )


def test_repeated_query_text_reaches_the_plan_cache(
    saved_sharded, schema, query_text
) -> None:
    from repro.api import render_rows

    # Text goes to one stable shard's planner, as FileQueryEngine.query
    # sends it: the cold query plans inside its scatter, every later one
    # on the first loaded shard, so the third repetition must be a hit.
    engine = ShardedEngine.from_saved(schema, saved_sharded)
    answers = [render_rows(engine.query(query_text).rows) for _ in range(3)]
    assert answers[0] == answers[1] == answers[2]
    assert engine.stats().cache["plan_hits"] > 0


def test_rows_arrive_in_shard_order(sharded_engine, query_text) -> None:
    result = sharded_engine.query(query_text)
    ordered = [
        row
        for name in sharded_engine.shard_names
        if name in result.shard_results
        for row in result.shard_results[name].rows
    ]
    assert result.rows == ordered


def test_save_load_round_trip(saved_sharded, schema, query_text, reference_rows) -> None:
    engine = ShardedEngine.from_saved(schema, saved_sharded)
    assert engine.query(query_text).canonical_rows() == reference_rows


def test_a_leftover_feedback_file_from_an_older_build_is_ignored(
    saved_sharded, schema, query_text
) -> None:
    # Older builds could save a calibration history as a root-level
    # feedback.json.  That format is gone: a directory still holding one
    # opens, answers and scrubs exactly as one without it.
    before = ShardedEngine.from_saved(schema, saved_sharded).query(query_text)
    (saved_sharded / "feedback.json").write_text(
        json.dumps(
            {
                "checksum": "sha256:ab6c83d4fae5c7f7ea3e464f8b286d35",
                "format": 1,
                "records": [
                    {
                        "actual_total": 20.0,
                        "estimated_total": 10.0,
                        "fingerprint": "sha256:x",
                        "kind": "name",
                        "last_actual": 20.0,
                        "last_estimated": 10.0,
                        "observations": 1,
                        "region": "Reference",
                    }
                ],
            }
        ),
        encoding="utf-8",
    )
    after = ShardedEngine.from_saved(schema, saved_sharded).query(query_text)
    assert render_rows(after.rows) == render_rows(before.rows)
    assert not after.warnings
    report = scrub_index(schema, saved_sharded)
    assert report.clean, report.findings


def test_stats_to_dict_has_query_stats_shape_plus_shards(
    sharded_engine, query_text
) -> None:
    data = sharded_engine.query(query_text).stats.to_dict()
    for key in (
        "strategy", "rows", "candidate_regions", "result_regions",
        "bytes_parsed", "values_built", "objects_filtered_out",
        "join_bytes_compared", "algebra", "cache", "warnings",
        "duration_s", "trace",
    ):
        assert key in data
    assert data["strategy"] == "sharded"
    assert len(data["shards"]) == 8
    assert all(record["status"] == "ok" for record in data["shards"])


def test_trace_has_one_span_per_shard(sharded_engine, query_text) -> None:
    trace = sharded_engine.query(query_text).trace
    names = [span.name for span in trace.root.children]
    assert names == [f"shard:{n}" for n in sharded_engine.shard_names]
    # Healthy shards graft their own pipeline trace beneath.
    assert all(span.children for span in trace.root.children)


def test_bad_query_raises_instead_of_partial_result(sharded_engine) -> None:
    # A defect in the query itself is the caller's error, not N shard
    # failures dressed up as a partial result.
    with pytest.raises(QuerySyntaxError):
        sharded_engine.query("SELECT FROM WHERE")


@pytest.mark.parametrize("shards", [1, 2, 8])
def test_cold_engine_raises_a_query_error_not_a_shard_failure(
    tmp_path, schema, corpus_text, shards
) -> None:
    # A cold saved engine has no loaded shard to plan on.  Over several
    # sources the join check parses the text before anything is scattered;
    # over one source the query is planned inside its shard task and the
    # defect surfaces from the scatter.  Either way it is the caller's
    # error: not a shard failure, not a partial result, and no shard's
    # breaker is charged for it.
    directory = tmp_path / "sidx"
    ShardedEngine.split(schema, corpus_text, shards).save(directory)
    engine = ShardedEngine.from_saved(schema, directory)
    with pytest.raises(QueryError, match="declared range variable"):
        engine.query("SELECT x FROM Reference r")
    for name in engine.shard_names:
        assert engine.breaker_snapshot(name)["consecutive_failures"] == 0


def test_query_error_inside_a_shard_task_ends_the_wait(
    schema, corpus_text, query_text
) -> None:
    # One source raises a query-wide error while another is stuck: the
    # scatter raises that error at once instead of waiting for the rest.
    hung = HungShard(hang_s=30.0, shard="shard0")

    def hook(point: str) -> None:
        if point == "shard:attempt:shard5":
            raise QueryError("defect found inside shard5's task")
        hung(point)

    engine = ShardedEngine.split(schema, corpus_text, 8)
    started = time.perf_counter()
    try:
        with injected(hook), pytest.raises(QueryError, match="shard5"):
            engine.query(query_text)
    finally:
        hung.released.set()
    assert time.perf_counter() - started < 5.0
    assert engine.breaker_snapshot("shard5")["consecutive_failures"] == 0


def test_unknown_class_falls_back_to_empty_full_scan(sharded_engine) -> None:
    # Mirrors the single-engine contract: an unindexed source class is a
    # full-scan plan that matches nothing, on every shard.
    result = sharded_engine.query('SELECT x FROM Nonexistent x WHERE x.Foo = "y"')
    assert result.rows == []
    assert result.stats.healthy_shards == 8


def test_warm_queries_start_no_thread(
    schema, corpus_text, monkeypatch
) -> None:
    # The scatter runs on the engine's one pool.  Once the first query has
    # started all max_parallel workers (a barrier holds every attempt
    # until eight run at once), a second pass over warm texts starts no
    # thread; a pool per query started two or three threads per query.
    engine = ShardedEngine.split(schema, corpus_text, N_SHARDS)
    texts = [
        f'SELECT r FROM Reference r WHERE r.Authors.Name.Last_Name = "{name}"'
        for name in ("Chang", "Smith", "Jones", "Lee", "Garcia", "Brown")
    ]
    barrier = threading.Barrier(N_SHARDS, timeout=10.0)

    def hold_until_all_run(point: str) -> None:
        if point.startswith("shard:attempt:"):
            barrier.wait()

    with injected(hold_until_all_run):
        engine.query(texts[0])
    for text in texts:
        engine.query(text)

    started: list[str] = []
    thread_start = threading.Thread.start

    def counting_start(thread: threading.Thread) -> None:
        started.append(thread.name)
        thread_start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    for text in texts:
        engine.query(text)
    assert [name for name in started if name.startswith("repro-shard")] == []
    engine.close()


def test_max_parallel_one_still_covers_all_shards(
    schema, corpus_text, query_text, reference_rows
) -> None:
    engine = ShardedEngine.split(schema, corpus_text, 8, max_parallel=1)
    result = engine.query(query_text)
    assert result.canonical_rows() == reference_rows


# -- acceptance scenario 1: 1 corrupt shard of 8 ------------------------------


def test_one_corrupt_shard_yields_partial_result(
    saved_sharded, schema, query_text, reference_rows
) -> None:
    engine = ShardedEngine.from_saved(schema, saved_sharded)
    healthy = engine.query(query_text)
    per_shard = {
        name: result.canonical_rows()
        for name, result in healthy.shard_results.items()
    }

    corrupt_shard_corpus(saved_sharded, 2)
    reloaded = ShardedEngine.from_saved(schema, saved_sharded)
    partial = reloaded.query(query_text)

    victim = engine.shard_names[2]
    expected = set().union(
        *(rows for name, rows in per_shard.items() if name != victim)
    )
    assert partial.canonical_rows() == expected  # healthy shards byte-identical
    codes = [warning.code for warning in partial.warnings]
    assert "shard-failed" in codes
    assert "partial-result" in codes
    stats = partial.stats.to_dict()
    assert [w["code"] for w in stats["warnings"]] == codes
    victim_record = [r for r in stats["shards"] if r["shard"] == victim][0]
    assert victim_record["status"] == "failed"
    assert "corrupt" in victim_record["error"]
    assert partial.stats.healthy_shards == 7


def test_all_shards_failing_raises_even_in_tolerant_mode(
    saved_sharded, schema, query_text
) -> None:
    for index in range(8):
        corrupt_shard_corpus(saved_sharded, index)
    engine = ShardedEngine.from_saved(schema, saved_sharded)
    with pytest.raises(ShardFailedError, match="no shard produced a result"):
        engine.query(query_text)


# -- acceptance scenario 2: fail_fast -----------------------------------------


def test_fail_fast_raises_typed_error(saved_sharded, schema, query_text) -> None:
    corrupt_shard_corpus(saved_sharded, 2)
    engine = ShardedEngine.from_saved(schema, saved_sharded, fail_fast=True)
    with pytest.raises(ShardFailedError) as info:
        engine.query(query_text)
    assert info.value.shard == engine.shard_names[2]
    assert info.value.attempts >= 1


def test_one_stale_shard_fails_strict_and_degrades_tolerant(
    tmp_path, schema, corpus_text, query_text
) -> None:
    sources = []
    for number, part in enumerate(split_corpus(schema, corpus_text, 8)):
        path = tmp_path / f"part{number}.bib"
        path.write_text(part, encoding="utf-8")
        sources.append(path)
    directory = tmp_path / "sidx"
    ShardedEngine.from_paths(schema, sources).save(directory)
    # Rewrite one source after its index was built: that shard is stale.
    sources[4].write_text(generate_bibtex(entries=3, seed=99), encoding="utf-8")

    strict = ShardedEngine.from_saved(
        schema, directory, policy=DegradationPolicy.strict()
    ).query(query_text)
    codes = [warning.code for warning in strict.warnings]
    assert "shard-failed" in codes and "partial-result" in codes
    record = strict.stats.to_dict()["shards"][4]
    assert record["status"] == "failed"
    assert "stale" in record["error"]

    tolerant = ShardedEngine.from_saved(schema, directory).query(query_text)
    assert tolerant.stats.healthy_shards == 8  # the stale shard still answers
    assert "index-stale" in [warning.code for warning in tolerant.warnings]


# -- acceptance scenario 3: transient faults retried --------------------------


def test_transient_fault_recovers_with_identical_rows(
    schema, corpus_text, query_text, reference_rows
) -> None:
    fault = TransientIOFault(k=2, shard="shard1")
    engine = ShardedEngine.split(
        schema, corpus_text, 8, retry=RetryPolicy(max_attempts=3), **NO_SLEEP
    )
    with injected(fault):
        result = engine.query(query_text)
    assert result.canonical_rows() == reference_rows  # no row differences
    codes = [warning.code for warning in result.warnings]
    assert codes == ["shard-retried"]
    record = [
        r for r in result.stats.to_dict()["shards"] if r["shard"] == "shard1"
    ][0]
    assert record["status"] == "ok"
    assert record["attempts"] == 3
    assert record["retries"] == 2
    assert fault.failures == 2


def _first_backoffs(engine, query_text) -> dict[str, float]:
    """Each shard's backoff before its one retry, with every shard's first
    attempt failing once."""
    failed: set[str] = set()
    lock = threading.Lock()

    def hook(point: str) -> None:
        name = point.removeprefix("shard:attempt:")
        if name != point:
            with lock:
                first = name not in failed
                failed.add(name)
            if first:
                raise OSError(f"injected first-attempt fault on {name!r}")

    with injected(hook):
        result = engine.query(query_text)
    return {
        warning.detail["shard"]: warning.detail["retries"][0]["backoff_s"]
        for warning in result.warnings
        if warning.code == "shard-retried"
    }


def test_retry_jitter_is_seeded_by_the_shard_name(
    schema, corpus_text, query_text
) -> None:
    # shard0 and shard1 have names of equal length; seeding by length
    # made them back off in lockstep.  A str seed is the name itself, so
    # the delays differ between shards and repeat from run to run (and
    # process to process: Random's str seeding does not use hash()).
    policy = RetryPolicy(max_attempts=2)

    def delays() -> dict[str, float]:
        engine = ShardedEngine.split(
            schema, corpus_text, 2, retry=policy, **NO_SLEEP
        )
        return _first_backoffs(engine, query_text)

    first = delays()
    assert set(first) == {"shard0", "shard1"}
    assert first["shard0"] != first["shard1"]
    assert delays() == first
    assert first == {
        name: policy.delay_s(1, random.Random(name)) for name in first
    }


def test_transient_fault_beyond_retry_budget_fails_the_shard(
    schema, corpus_text, query_text
) -> None:
    engine = ShardedEngine.split(
        schema, corpus_text, 4, retry=RetryPolicy(max_attempts=3), **NO_SLEEP
    )
    with injected(TransientIOFault(k=5, shard="shard1")):
        result = engine.query(query_text)
    codes = [warning.code for warning in result.warnings]
    assert "shard-failed" in codes and "partial-result" in codes
    record = [
        r for r in result.stats.to_dict()["shards"] if r["shard"] == "shard1"
    ][0]
    assert record["status"] == "failed"
    assert record["attempts"] == 3


def test_slow_shard_does_not_block_other_results(
    schema, corpus_text, query_text, reference_rows
) -> None:
    slow = SlowShard(delay_s=0.05, shard="shard0")
    engine = ShardedEngine.split(schema, corpus_text, 4)
    with injected(slow):
        result = engine.query(query_text)
    assert result.canonical_rows() == reference_rows
    assert slow.calls == 1


# -- circuit breaker -----------------------------------------------------------


def test_breaker_trips_after_repeated_failures_then_skips(
    schema, corpus_text, query_text
) -> None:
    fault = TransientIOFault(k=10**9, shard="shard2")  # never recovers
    engine = ShardedEngine.split(
        schema, corpus_text, 4,
        retry=RetryPolicy(max_attempts=2),
        breaker_config=BreakerConfig(failure_threshold=2, reset_timeout_s=3600),
        **NO_SLEEP,
    )
    with injected(fault):
        first = engine.query(query_text)
        assert [w.code for w in first.warnings] == ["shard-failed", "partial-result"]
        assert engine.breaker_snapshot("shard2")["state"] == "closed"

        second = engine.query(query_text)  # second failure trips the breaker
        assert "shard-failed" in [w.code for w in second.warnings]
        assert engine.breaker_snapshot("shard2")["state"] == "open"
        calls_when_tripped = fault.calls

        third = engine.query(query_text)  # skipped without touching the shard
    codes = [w.code for w in third.warnings]
    assert "shard-skipped-open-breaker" in codes
    assert "partial-result" in codes
    assert fault.calls == calls_when_tripped  # breaker saved the attempts
    record = [
        r for r in third.stats.to_dict()["shards"] if r["shard"] == "shard2"
    ][0]
    assert record["status"] == "skipped"
    assert record["attempts"] == 0


def test_breaker_half_open_probe_recovers_the_shard(
    schema, corpus_text, query_text, reference_rows
) -> None:
    fault = TransientIOFault(k=4, shard="shard2")
    engine = ShardedEngine.split(
        schema, corpus_text, 4,
        retry=RetryPolicy(max_attempts=2),
        breaker_config=BreakerConfig(failure_threshold=2, reset_timeout_s=0.0),
        **NO_SLEEP,
    )
    with injected(fault):
        engine.query(query_text)  # 2 failed attempts
        engine.query(query_text)  # 2 more; breaker trips (threshold 2)
        assert fault.failures == 4
        # Cooldown is zero: the next query is the half-open probe, and the
        # fault is exhausted, so it succeeds and closes the breaker.
        recovered = engine.query(query_text)
    assert recovered.canonical_rows() == reference_rows
    assert engine.breaker_snapshot("shard2")["state"] == "closed"


# -- degraded shards and budgets ----------------------------------------------


def test_degrade_policy_serves_damaged_shard_via_full_scan(
    saved_sharded, schema, query_text, reference_rows
) -> None:
    """Under `--degrade`, a shard with a torn spans.bin still answers
    (full scan of its own slice), so the merged rows are complete."""
    victim = sorted((saved_sharded / "shards").iterdir())[3]
    (victim / "spans.bin").write_text("{ torn", encoding="utf-8")
    engine = ShardedEngine.from_saved(
        schema, saved_sharded, policy=DegradationPolicy.degrade()
    )
    result = engine.query(query_text)
    assert result.canonical_rows() == reference_rows
    assert result.stats.healthy_shards == 8
    codes = {warning.code for warning in result.warnings}
    assert "degraded-full-scan" in codes  # re-tagged from the shard
    record = [
        r for r in result.stats.to_dict()["shards"]
        if r["shard"] == engine.shard_names[3]
    ][0]
    assert record["status"] == "ok"
    assert record["strategy"] == "full-scan"


def test_impossible_budget_fails_every_shard(schema, corpus_text, query_text) -> None:
    engine = ShardedEngine.split(
        schema, corpus_text, 4, policy=DegradationPolicy.strict()
    )
    # Strict policy raises BudgetExceededError inside every shard; all
    # fail -> the whole query raises (nothing healthy to return).
    with pytest.raises(ShardFailedError, match="no shard produced a result"):
        engine.query(query_text, budget=ResourceBudget(max_regions=1))


def test_generous_budget_is_metered_per_shard(
    schema, corpus_text, query_text, reference_rows
) -> None:
    engine = ShardedEngine.split(
        schema, corpus_text, 4, policy=DegradationPolicy.strict()
    )
    # Each shard gets its own meter: a cap any single shard fits under
    # passes even though the corpus-wide total would exceed it.
    result = engine.query(query_text, budget=ResourceBudget(max_regions=10_000))
    assert result.canonical_rows() == reference_rows


def test_shard_names_must_be_unique(schema, corpus_text) -> None:
    with pytest.raises(ValueError, match="duplicate"):
        ShardedEngine.from_texts(
            schema, [corpus_text, corpus_text], names=["same", "same"]
        )


# -- explain / analyze ---------------------------------------------------------


def test_explain_lists_the_shard_roster(sharded_engine, query_text) -> None:
    text = sharded_engine.explain(query_text)
    assert "shards:    8" in text
    for name in sharded_engine.shard_names:
        assert name in text


def test_analyze_embeds_per_shard_stats(sharded_engine, query_text) -> None:
    analysis = sharded_engine.analyze(query_text)
    data = analysis.to_dict()
    assert data["stats"]["strategy"] == "sharded"
    assert len(data["stats"]["shards"]) == 8
    assert data["nodes"]  # per-node actuals from a healthy shard
    rendered = analysis.render()
    assert "shard-query" in rendered


# -- the gather is a set union; joins across shards are refused ---------------

SIAM_SELF_JOIN = (
    "SELECT r.Key, s.Key FROM Reference r, Reference s "
    'WHERE r.Year = s.Year AND r.Publisher = "SIAM"'
)


@pytest.fixture(scope="module")
def probe_text() -> str:
    from repro.workloads.bibtex import generate_bibtex

    return generate_bibtex(entries=200, seed=1)


def test_projection_repeating_across_shards_is_served_once(schema, probe_text) -> None:
    from repro.core.engine import FileQueryEngine

    query = "SELECT r.Year FROM Reference r"
    solo = FileQueryEngine(schema, probe_text).query(query)
    sharded = ShardedEngine.split(schema, probe_text, 8).query(query)
    assert len(solo.rows) == len(sharded.rows) == 20
    assert sharded.rows == solo.rows  # first occurrence, document order
    assert sharded.stats.rows == 20


def test_join_across_shards_raises_instead_of_a_short_answer(
    schema, probe_text
) -> None:
    from repro.core.engine import FileQueryEngine
    from repro.errors import PlanningError

    with pytest.raises(PlanningError):
        ShardedEngine.split(schema, probe_text, 8).query(SIAM_SELF_JOIN)
    solo = FileQueryEngine(schema, probe_text).query(SIAM_SELF_JOIN)
    one = ShardedEngine.split(schema, probe_text, 1).query(SIAM_SELF_JOIN)
    assert one.rows == solo.rows and len(solo.rows) == 269


def test_equal_row_hashes_are_confirmed_on_the_rows(
    schema, probe_text, monkeypatch
) -> None:
    from repro.core.engine import FileQueryEngine
    from repro.db.evaluator import NaiveEvaluator, Rows

    # Every row hashing alike forces the merge to compare canonical rows:
    # distinct rows must all survive, repeats must still go.
    evaluate = NaiveEvaluator.evaluate

    def colliding(self, query):
        rows = evaluate(self, query)
        return Rows(rows, [0] * len(rows))

    monkeypatch.setattr(NaiveEvaluator, "evaluate", colliding)
    query = "SELECT r.Year FROM Reference r"
    solo = FileQueryEngine(schema, probe_text).query(query)
    assert ShardedEngine.split(schema, probe_text, 8).query(query).rows == solo.rows
