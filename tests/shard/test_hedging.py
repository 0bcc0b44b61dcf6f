"""Stragglers under the scatter-gather, which runs one attempt per shard
and waits for them once: a hung shard is abandoned at the request's
end-to-end deadline plus grace (a partial result, not a hang), and the
per-shard budget is clamped to the remaining time at dispatch."""

from __future__ import annotations

import time

import pytest

from repro.errors import BudgetExceededError, ShardFailedError
from repro.resilience import PARTIAL_RESULT, SHARD_TIMEOUT, ResourceBudget
from repro.shard import ShardedEngine

from tests.chaos.faults import HungShard, injected
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
    engine = ShardedEngine.split(schema, corpus_text, N_SHARDS)
    started = time.perf_counter()
    with injected(fault):
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
    engine = ShardedEngine.split(schema, corpus_text, N_SHARDS)
    with injected(HungShard(hang_s=30.0, shard="shard0")):
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
