"""The unified engine API: request/response family, cursors, pagination,
wire validation, protocol conformance, and the one answer shape."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api import (
    AnalyzeResponse,
    ExplainResponse,
    QueryBackend,
    QueryRequest,
    QueryResponse,
    decode_cursor,
    encode_cursor,
    paginate,
    query_digest,
    query_response,
    render_rows,
    render_value,
)
from repro.core.engine import FileQueryEngine
from repro.db.values import AtomicValue, ListValue, SetValue, TupleValue
from repro.errors import PaginationError
from repro.live import LiveEngine
from repro.obs.stats import QueryStats
from repro.resilience import ResourceBudget
from repro.server import QueryServerApp
from repro.shard import ShardedEngine
from repro.workloads.bibtex import bibtex_schema, generate_bibtex

from tests.server.conftest import QUERY, SELECT_ALL

SRC = Path(__file__).resolve().parents[2] / "src"


# -- cursors -------------------------------------------------------------------


def test_cursor_round_trip() -> None:
    token = encode_cursor("abc123", 40, 10)
    assert decode_cursor(token) == ("abc123", 40, 10)


@pytest.mark.parametrize(
    "token",
    [
        "not base64 at all!",
        "Zm9v",  # valid base64, not JSON
        encode_cursor("d", -1, 10),
        encode_cursor("d", 0, 0),
    ],
)
def test_malformed_cursor_rejected(token: str) -> None:
    with pytest.raises(PaginationError):
        decode_cursor(token)


def test_cursor_bound_to_query_text() -> None:
    rows = [[str(n)] for n in range(10)]
    token = encode_cursor(query_digest("SELECT a"), 5, 5)
    request = QueryRequest(query="SELECT b", cursor=token)
    with pytest.raises(PaginationError, match="does not belong"):
        paginate(rows, request)


def test_paginate_walks_every_row() -> None:
    rows = [[str(n)] for n in range(10)]
    request = QueryRequest(query="SELECT a", page_size=3)
    collected: list[list[str]] = []
    while True:
        page, start, cursor = paginate(rows, request)
        assert start == len(collected)
        collected.extend(page)
        if cursor is None:
            break
        request = QueryRequest(query="SELECT a", cursor=cursor)
    assert collected == rows


def test_paginate_without_page_size_returns_everything() -> None:
    rows = [[str(n)] for n in range(4)]
    page, start, cursor = paginate(rows, QueryRequest(query="SELECT a"))
    assert (page, start, cursor) == (rows, 0, None)


def test_query_response_renders_only_the_page(monkeypatch) -> None:
    engine = FileQueryEngine(bibtex_schema(), generate_bibtex(entries=20))
    query = "SELECT r.Key FROM Reference r"
    result = engine.query(query)
    everything = render_rows(result.rows)
    assert len(everything) == 20
    calls: list[object] = []

    def counting(value):
        calls.append(value)
        return render_value(value)

    monkeypatch.setattr("repro.api.render_value", counting)
    first = query_response(result, QueryRequest(query=query, page_size=10))
    assert len(calls) == 10
    assert (first.rows, first.row_start, first.total_rows) == (everything[:10], 0, 20)
    calls.clear()
    last = query_response(result, QueryRequest(query=query, cursor=first.next_cursor))
    assert len(calls) == 10
    assert (last.rows, last.row_start, last.next_cursor) == (everything[10:], 10, None)


_RENDER_SET_ROWS = """
from repro.api import render_rows
from repro.core.engine import FileQueryEngine
from repro.workloads.bibtex import bibtex_schema, generate_bibtex
engine = FileQueryEngine(bibtex_schema(), generate_bibtex(entries=50, seed=1))
for row in render_rows(engine.query("SELECT r.Authors FROM Reference r").rows):
    print(row)
"""


def test_set_values_render_the_same_under_every_hash_seed() -> None:
    """Two servers (or one, restarted) draw different hash seeds, and a
    stateless cursor may page across them: a set's elements must print in
    one order."""
    printed = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(SRC)}
        printed.append(
            subprocess.run(
                [sys.executable, "-c", _RENDER_SET_ROWS],
                env=env, capture_output=True, text=True, check=True, timeout=60,
            ).stdout  # fmt: skip
        )
    assert printed[0] == printed[1]
    assert printed[0].count("\n") > 1 and "frozenset({(" in printed[0]


def test_set_elements_render_sorted() -> None:
    names = SetValue(
        TupleValue("Name", {"Last_Name": AtomicValue(last)}) for last in ("Wu", "Chang", "Lee")
    )
    assert render_value(names) == (
        "frozenset({('tuple', 'Name', (('Last_Name', 'Chang'),)), "
        "('tuple', 'Name', (('Last_Name', 'Lee'),)), "
        "('tuple', 'Name', (('Last_Name', 'Wu'),))})"
    )
    assert render_value(SetValue()) == "frozenset()"
    assert render_value(ListValue([AtomicValue("b"), AtomicValue("a")])) == "('b', 'a')"


# -- request validation --------------------------------------------------------


def test_request_rejects_nonpositive_page_size() -> None:
    with pytest.raises(PaginationError):
        QueryRequest(query="SELECT a", page_size=0)


def test_from_dict_round_trips_budget() -> None:
    request = QueryRequest.from_dict(
        {
            "query": SELECT_ALL,
            "page_size": 5,
            "budget": {"deadline_ms": 1500, "max_regions": 10},
        }
    )
    assert request.query_text == SELECT_ALL
    assert request.page_size == 5
    assert request.budget == ResourceBudget(deadline_s=1.5, max_regions=10)


@pytest.mark.parametrize(
    "payload",
    [
        {},
        {"query": ""},
        {"query": 42},
        {"query": "SELECT a", "qery": "typo"},
        {"query": "SELECT a", "page_size": "five"},
        {"query": "SELECT a", "page_size": True},
        {"query": "SELECT a", "cursor": 9},
        {"query": "SELECT a", "budget": "fast"},
        {"query": "SELECT a", "budget": {"deadline": 1}},
    ],
)
def test_from_dict_rejects_malformed_payloads(payload: dict) -> None:
    with pytest.raises(PaginationError):
        QueryRequest.from_dict(payload)


@pytest.mark.parametrize(
    "budget",
    [
        {"deadline_ms": "5"},
        {"deadline_ms": True},
        {"deadline_ms": -1},
        {"deadline_ms": float("nan")},
        {"max_regions": "x"},
        {"max_regions": -1},
        {"max_regions": 2.0},
        {"max_regions": False},
        {"max_bytes_parsed": 1.5},
        {"max_bytes_parsed": "100"},
    ],
)
def test_from_dict_rejects_malformed_budgets(budget: dict) -> None:
    # A deadline is a non-negative number and a cap a non-negative
    # integer; a bool is neither, and nothing is coerced.
    with pytest.raises(PaginationError, match="budget"):
        QueryRequest.from_dict({"query": SELECT_ALL, "budget": budget})


def test_from_dict_accepts_fractional_deadline_and_null_limits() -> None:
    request = QueryRequest.from_dict(
        {"query": SELECT_ALL, "budget": {"deadline_ms": 2.5, "max_regions": None}}
    )
    assert request.budget == ResourceBudget(deadline_s=0.0025)


@pytest.mark.parametrize(
    "budget", [{"deadline_ms": "5"}, {"max_regions": "x"}, {"max_regions": -1}]
)
def test_malformed_wire_budget_is_a_400(engine, budget: dict) -> None:
    app = QueryServerApp(engine)
    try:
        status, envelope = app.handle(
            "POST", "/query", {"query": SELECT_ALL, "budget": budget}
        )
    finally:
        app.close()
    assert status == 400
    assert envelope["error"]["code"] == "bad-request"


# -- every engine satisfies the protocol ---------------------------------------


def test_file_engine_satisfies_backend_protocol(engine) -> None:
    assert isinstance(engine, QueryBackend)


def test_sharded_engine_satisfies_backend_protocol(schema, corpus_text) -> None:
    assert isinstance(ShardedEngine.split(schema, corpus_text, 2), QueryBackend)


def test_live_engine_satisfies_backend_protocol(schema, corpus_text, tmp_path) -> None:
    ShardedEngine.split(schema, corpus_text, 2).save(tmp_path / "lidx")
    live = LiveEngine.open(schema, tmp_path / "lidx")
    try:
        assert isinstance(live, QueryBackend)
    finally:
        live.close()


def test_request_rows_match_legacy_rendering(engine) -> None:
    legacy = engine.query(QUERY)
    request = QueryRequest(query=QUERY)
    response = query_response(engine.query(request.query), request)
    assert isinstance(response, QueryResponse)
    assert response.rows == render_rows(legacy.rows)
    assert response.total_rows == len(legacy.rows)
    assert response.next_cursor is None
    # Stats vary run-to-run (the second execution hits warm caches), but
    # the shape and the row count are fixed.
    assert response.stats["rows"] == len(legacy.rows)
    assert response.stats["strategy"] == legacy.stats.strategy


@pytest.mark.parametrize("backend", ["file", "sharded", "live"])
def test_stats_rows_equal_the_rows_served(backend, schema, corpus_text, tmp_path) -> None:
    # A projection whose values repeat across shards and in the delta.
    query = "SELECT r.Year FROM Reference r"
    appended = generate_bibtex(entries=6, seed=99)
    records = [
        appended[child.start : child.end] + "\n\n"
        for child in schema.parse(appended).children
    ]
    if backend == "file":
        engine = FileQueryEngine(schema, corpus_text)
    elif backend == "sharded":
        engine = ShardedEngine.split(schema, corpus_text, 8)
    else:
        ShardedEngine.split(schema, corpus_text, 4).save(tmp_path / "lidx")
        engine = LiveEngine.open(schema, tmp_path / "lidx")
        for record in records:
            engine.append(record)
    response = query_response(engine.query(query), QueryRequest(query=query))
    assert response.stats["rows"] == response.total_rows
    assert len(set(map(tuple, response.rows))) == response.total_rows
    if backend == "live":
        engine.close()


def test_sharded_request_rows_match_legacy_rendering(schema, corpus_text) -> None:
    sharded = ShardedEngine.split(schema, corpus_text, 4)
    legacy = sharded.query(QUERY)
    response = query_response(sharded.query(QUERY), QueryRequest(query=QUERY))
    assert response.rows == render_rows(legacy.rows)
    assert response.stats["strategy"] == "sharded"


def test_request_pagination_reassembles_full_result(engine) -> None:
    full = query_response(engine.query(SELECT_ALL), QueryRequest(query=SELECT_ALL))
    collected: list[list[str]] = []
    request = QueryRequest(query=SELECT_ALL, page_size=7)
    while True:
        page = query_response(engine.query(request.query), request)
        assert page.row_start == len(collected)
        collected.extend(page.rows)
        if page.next_cursor is None:
            break
        request = QueryRequest(query=SELECT_ALL, cursor=page.next_cursor)
    assert collected == full.rows
    assert full.total_rows == len(collected)


def test_explain_and_analyze_requests_return_wire_dataclasses(engine) -> None:
    explain = ExplainResponse(text=engine.explain(SELECT_ALL))
    assert explain.to_dict()["lines"] == explain.text.splitlines()
    analysis = engine.analyze(SELECT_ALL)
    response = AnalyzeResponse.from_analysis(engine.analyze(SELECT_ALL))
    assert isinstance(response, AnalyzeResponse)
    # The wire shape is the pinned analyze --json contract, verbatim.
    assert response.to_dict().keys() == analysis.to_dict().keys()


#: The documented keys of every answer's ``stats.to_dict()``; a merged
#: answer adds ``shards``.
STATS_KEYS = {
    "strategy", "rows", "candidate_regions", "result_regions", "bytes_parsed",
    "values_built", "objects_filtered_out", "join_bytes_compared", "algebra",
    "cache", "warnings", "duration_s", "trace",
}


@pytest.mark.parametrize("tracing", [True, False], ids=["traced", "untraced"])
@pytest.mark.parametrize("backend", ["file", "sharded", "live"])
def test_one_answer_shape(backend, tracing, schema, corpus_text, tmp_path) -> None:
    if backend == "file":
        engine = FileQueryEngine(schema, corpus_text, tracing=tracing)
    elif backend == "sharded":
        engine = ShardedEngine.split(schema, corpus_text, 4, tracing=tracing)
    else:
        ShardedEngine.split(schema, corpus_text, 4).save(tmp_path / "lidx")
        engine = LiveEngine.open(schema, tmp_path / "lidx", tracing=tracing)
        appended = generate_bibtex(entries=1, seed=99)
        engine.append(appended.strip() + "\n\n")  # one delta source
    try:
        stats = engine.query(SELECT_ALL).stats
    finally:
        if backend == "live":
            engine.close()
    assert isinstance(stats, QueryStats)
    data = stats.to_dict()
    merged = backend != "file"
    assert set(data) == STATS_KEYS | ({"shards"} if merged else set())
    assert (data["trace"] is not None) == tracing
    assert data["duration_s"] > 0  # measured with or without a trace
    if merged:
        names = [record["shard"] for record in data["shards"]]
        assert len(names) == (5 if backend == "live" else 4)
        summary = stats.summary()
        assert all(name in summary for name in names)


def test_stats_response_keeps_cli_shape(engine) -> None:
    payload = engine.stats().to_dict()
    assert set(payload) == {"index", "cache_config", "cache", "backend"}
    assert payload["backend"]["type"] == "file"


def test_top_level_reexports() -> None:
    for name in (
        "QueryRequest",
        "QueryResponse",
        "ExplainResponse",
        "AnalyzeResponse",
        "StatsResponse",
        "QueryBackend",
        "QueryServer",
        "ServerConfig",
        "PaginationError",
        "ServerError",
        "ServerOverloadedError",
    ):
        assert hasattr(repro, name), name
