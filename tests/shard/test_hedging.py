"""Stragglers under the scatter-gather, which runs one attempt per shard
on the engine's pool and waits for them once: a hung shard is abandoned
at the request's end-to-end deadline plus grace (a partial result, not a
hang), a straggler cannot starve the pool (while an abandoned attempt
holds a worker, the shard's next attempts fail at once), and the
per-shard budget is clamped to the remaining time at dispatch."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.engine import FileQueryEngine
from repro.errors import BudgetExceededError, ShardFailedError
from repro.resilience import (
    PARTIAL_RESULT,
    SHARD_FAILED,
    SHARD_SKIPPED_OPEN_BREAKER,
    SHARD_TIMEOUT,
    BreakerConfig,
    ResourceBudget,
    RetryPolicy,
)
from repro.shard import ShardedEngine, split_corpus

from tests.chaos.faults import HungShard, SlowShard, injected
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


class _Straggler:
    """Holds every attempt on ``shard`` for ``delay_s``, never released
    by abandonment, and counts the attempts it holds at once: the pool
    workers the straggler pins."""

    def __init__(self, delay_s: float, shard: str) -> None:
        self.delay_s = delay_s
        self.point = f"shard:attempt:{shard}"
        self.calls = 0
        self.held = 0
        self.peak = 0
        self._lock = threading.Lock()

    def __call__(self, point: str) -> None:
        if point != self.point:
            return
        with self._lock:
            self.calls += 1
            self.held += 1
            self.peak = max(self.peak, self.held)
        try:
            time.sleep(self.delay_s)
        finally:
            with self._lock:
                self.held -= 1


VICTIM = "shard5"


@pytest.fixture(scope="module")
def others(schema, corpus_text, query_text):
    """The rows of every shard but the victim."""
    texts = split_corpus(schema, corpus_text, N_SHARDS)
    return FileQueryEngine(
        schema, "".join(text for number, text in enumerate(texts) if number != 5)
    ).query(query_text).canonical_rows()


def _victim_codes(result) -> set[str]:
    return {
        warning.code
        for warning in result.warnings
        if warning.detail.get("shard") == VICTIM
    }


def _timed_query(engine, query_text):
    started = time.perf_counter()
    result = engine.query(query_text, budget=ResourceBudget(deadline_s=0.2))
    return result, time.perf_counter() - started


def test_a_straggler_that_never_returns_holds_one_worker(
    schema, corpus_text, query_text, others
) -> None:
    # A slow shard is never released: its attempt keeps its pool worker
    # for 3s.  The first query abandons it (a breaker failure: it ran for
    # the whole deadline); while it is stuck, the next queries fail the
    # shard at once (two more failures), so from the 4th query on the
    # breaker is open and the scatter skips the shard.  Only the first
    # attempt ever took a worker, and every query answers from the other
    # seven shards within 2x the deadline.
    straggler = _Straggler(3.0, VICTIM)
    engine = ShardedEngine.split(schema, corpus_text, N_SHARDS)
    codes = []
    with injected(straggler):
        for number in range(1, 13):
            result, elapsed = _timed_query(engine, query_text)
            assert elapsed < 0.4, f"query {number} took {elapsed:.3f}s"
            assert result.canonical_rows() == others
            codes.append(_victim_codes(result))
    assert codes == (
        [{SHARD_TIMEOUT}] + [{SHARD_FAILED}] * 2 + [{SHARD_SKIPPED_OPEN_BREAKER}] * 9
    )
    assert straggler.calls == 1
    engine.close()


def test_half_open_probes_do_not_pin_workers_behind_a_straggler(
    schema, corpus_text, query_text, others
) -> None:
    # With no cooldown the breaker admits a half-open probe on every
    # query.  While the abandoned attempt still holds its worker, each
    # probe fails at once instead of pinning another worker.
    straggler = _Straggler(3.0, VICTIM)
    engine = ShardedEngine.split(
        schema,
        corpus_text,
        N_SHARDS,
        breaker_config=BreakerConfig(reset_timeout_s=0.0),
    )
    codes = []
    with injected(straggler):
        for number in range(1, 13):
            result, elapsed = _timed_query(engine, query_text)
            assert elapsed < 0.4, f"query {number} took {elapsed:.3f}s"
            assert result.canonical_rows() == others
            codes.append(_victim_codes(result))
    assert codes == [{SHARD_TIMEOUT}] + [{SHARD_FAILED}] * 11
    assert straggler.calls == 1
    engine.close()


@pytest.mark.parametrize(
    "reset_timeout_s", [30.0, 0.0], ids=["default-cooldown", "no-cooldown"]
)
def test_concurrent_queries_behind_a_straggler_keep_the_pool(
    schema, corpus_text, query_text, others, reset_timeout_s
) -> None:
    # Four clients query at once.  Each first query's attempt on the
    # straggler can take a worker before any is abandoned, so the
    # straggler pins at most four of the eight; after that no attempt on
    # it takes a worker, and the healthy shards answer every query.
    clients, rounds = 4, 6
    straggler = _Straggler(3.0, VICTIM)
    engine = ShardedEngine.split(
        schema,
        corpus_text,
        N_SHARDS,
        breaker_config=BreakerConfig(reset_timeout_s=reset_timeout_s),
    )
    outcomes: list[tuple[float, list, set[str]]] = []
    lock = threading.Lock()

    def client() -> None:
        for _ in range(rounds):
            result, elapsed = _timed_query(engine, query_text)
            rows, codes = result.canonical_rows(), _victim_codes(result)
            with lock:
                outcomes.append((elapsed, rows, codes))

    with injected(straggler):
        threads = [threading.Thread(target=client) for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    assert len(outcomes) == clients * rounds
    for elapsed, rows, codes in outcomes:
        assert elapsed < 0.4, f"a query took {elapsed:.3f}s"
        assert rows == others
        assert len(codes) == 1
        assert codes <= {SHARD_TIMEOUT, SHARD_FAILED, SHARD_SKIPPED_OPEN_BREAKER}
    assert straggler.calls <= clients
    assert straggler.peak <= clients
    engine.close()


def test_an_attempt_that_started_late_is_not_charged(
    schema, corpus_text, query_text
) -> None:
    # One worker, three shards: shard0 answers, shard1 sleeps past the 1s
    # deadline, and shard2 waits behind it, starts 0.2s before the gather
    # gives up and is abandoned mid-run.  Waiting for a worker is no
    # evidence against shard2, so its breaker is not charged.
    delays = {"shard:attempt:shard1": 1.05, "shard:attempt:shard2": 0.5}
    started: list[str] = []

    def hook(point: str) -> None:
        if point in delays:
            started.append(point)
            time.sleep(delays[point])

    engine = ShardedEngine.split(schema, corpus_text, 3, max_parallel=1)
    with injected(hook):
        result = engine.query(query_text, budget=ResourceBudget(deadline_s=1.0))
    assert started == list(delays)
    late = [w for w in result.warnings if w.detail.get("shard") == "shard2"]
    assert [w.code for w in late] == [SHARD_TIMEOUT]
    assert engine.breaker_snapshot("shard2")["consecutive_failures"] == 0
    assert engine.breaker_snapshot("shard1")["consecutive_failures"] == 1
    engine.close()


def test_a_late_probe_that_is_abandoned_frees_the_probe_slot(
    schema, corpus_text, query_text
) -> None:
    # shard2's breaker is half-open (no cooldown), so its next attempt is
    # the one probe.  That attempt waits behind shard1's stall and is
    # abandoned mid-run: it is charged all the same, since its outcome
    # will never be recorded, and the next query's probe closes the
    # breaker instead of finding the slot still taken.
    engine = ShardedEngine.split(
        schema,
        corpus_text,
        3,
        max_parallel=1,
        breaker_config=BreakerConfig(reset_timeout_s=0.0),
        retry=RetryPolicy(max_attempts=1),
    )

    def fail_shard2(point: str) -> None:
        if point == "shard:attempt:shard2":
            raise OSError("injected fault on 'shard2'")

    with injected(fail_shard2):
        for _ in range(3):
            engine.query(query_text)
    assert engine.breaker_snapshot("shard2")["trips"] == 1
    delays = {"shard:attempt:shard1": 1.05, "shard:attempt:shard2": 0.5}
    with injected(lambda point: time.sleep(delays.get(point, 0.0))):
        engine.query(query_text, budget=ResourceBudget(deadline_s=1.0))
    assert engine.breaker_snapshot("shard2")["trips"] == 2
    time.sleep(0.6)  # the abandoned probe returns its worker
    result = engine.query(query_text)
    assert result.stats.healthy_shards == 3
    assert engine.breaker_snapshot("shard2")["state"] == "closed"
    engine.close()


def test_an_abandoned_attempt_ends_its_retry_ladder(
    schema, corpus_text, query_text
) -> None:
    # A released hang fails its attempt with a retryable OSError.  The
    # scatter has abandoned the attempt, so nothing waits for a retry:
    # the ladder ends at once and the worker is free.
    fault = HungShard(hang_s=30.0, shard="shard2")
    workers: list[threading.Thread] = []
    sleeps: list[float] = []

    def hook(point: str) -> None:
        if point == "shard:attempt:shard2":
            workers.append(threading.current_thread())
        fault(point)

    engine = ShardedEngine.split(
        schema, corpus_text, N_SHARDS, retry_sleep=sleeps.append
    )
    with injected(hook):
        engine.query(query_text, budget=ResourceBudget(deadline_s=0.2))
        engine.close()
        workers[0].join(timeout=5.0)
    assert not workers[0].is_alive()
    assert fault.calls == 1
    assert sleeps == []


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
