"""Concurrent engine use (satellite c): two or more threads querying one
engine must not corrupt the shared caches — region-expression results,
candidate-parse memo, plan cache, or the full-scan tree memo."""

from __future__ import annotations

import threading

import pytest

from repro.core.engine import FileQueryEngine
from repro.index.persist import load_index  # noqa: F401  (import check)

QUERIES = [
    'SELECT r FROM Reference r WHERE r.Authors.Name.Last_Name = "Chang"',
    "SELECT r.Key FROM Reference r",
    "SELECT r FROM Reference r",
    'SELECT r.Title FROM Reference r WHERE r.Key = "missing-key"',
]


def hammer(engine: FileQueryEngine, expected: dict, threads: int = 8, rounds: int = 3):
    """Run every query from ``threads`` threads concurrently and compare
    each answer against the single-threaded reference."""
    errors: list[BaseException] = []
    barrier = threading.Barrier(threads)

    def worker(index: int) -> None:
        try:
            barrier.wait(timeout=10)
            for round_number in range(rounds):
                query = QUERIES[(index + round_number) % len(QUERIES)]
                result = engine.query(query)
                assert result.canonical_rows() == expected[query], query
        except BaseException as error:  # noqa: BLE001 - re-raised on the main thread
            errors.append(error)

    pool = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=60)
    if errors:
        raise errors[0]


@pytest.fixture(scope="module")
def expected_rows(corpus_schema, corpus_text) -> dict:
    reference = FileQueryEngine(corpus_schema, corpus_text)
    return {query: reference.query(query).canonical_rows() for query in QUERIES}


def test_concurrent_queries_on_one_indexed_engine(
    corpus_schema, corpus_text, expected_rows
):
    engine = FileQueryEngine(corpus_schema, corpus_text)
    hammer(engine, expected_rows)
    # The shared caches saw real traffic while staying consistent.
    assert engine.cache_stats.parse_hits + engine.cache_stats.expression_hits > 0


def test_concurrent_queries_on_a_degraded_engine(
    tmp_path, corpus_schema, corpus_text, expected_rows
):
    # A degraded engine funnels everything through the full-scan pipeline,
    # so this exercises the full-scan tree memo's lock specifically.
    from repro.resilience import DegradationPolicy
    from tests.chaos.faults import corrupt_index_file

    directory = tmp_path / "idx"
    FileQueryEngine(corpus_schema, corpus_text).save(str(directory))
    corrupt_index_file(directory, part="regions", mode="garbage")
    engine = FileQueryEngine.from_saved(
        corpus_schema, str(directory), policy=DegradationPolicy.degrade()
    )
    hammer(engine, expected_rows, threads=6, rounds=2)
    # The corpus was parsed exactly once despite the concurrent full scans.
    assert engine.cache_stats.parse_misses == 1
