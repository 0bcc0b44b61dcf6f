"""The transport-free serving core: routing, envelopes, error mapping,
admission, and schema conformance — no sockets involved."""

from __future__ import annotations

import threading

import pytest

from check_schema import validate_envelope  # via conftest sys.path
import json
from pathlib import Path

from repro.api import QueryRequest, query_response, render_rows
from repro.resilience import ResourceBudget
from repro.server import QueryServerApp, ServerConfig

from tests.server.conftest import QUERY, SELECT_ALL

ROOT = Path(__file__).resolve().parent.parent.parent
SERVER_SCHEMA = json.loads((ROOT / "schemas" / "server.schema.json").read_text())
ANALYZE_SCHEMA = json.loads((ROOT / "schemas" / "analyze.schema.json").read_text())


def assert_conforms(envelope: dict) -> None:
    errors = validate_envelope(envelope, SERVER_SCHEMA, ANALYZE_SCHEMA)
    assert errors == [], errors


# -- routing -------------------------------------------------------------------


def test_health_is_alive(app) -> None:
    status, envelope = app.handle("GET", "/healthz")
    assert status == 200
    assert envelope["status"] == "ok"
    assert envelope["backend"] == "FileQueryEngine"
    assert_conforms(envelope)


def test_trailing_slash_is_tolerated(app) -> None:
    assert app.handle("GET", "/healthz/")[0] == 200


def test_unknown_path_is_404(app) -> None:
    status, envelope = app.handle("GET", "/nope")
    assert status == 404
    assert envelope["error"]["code"] == "not-found"
    assert_conforms(envelope)


def test_wrong_method_is_405(app) -> None:
    for method, path in [
        ("POST", "/healthz"),
        ("POST", "/stats"),
        ("GET", "/query"),
        ("DELETE", "/analyze"),
    ]:
        status, envelope = app.handle(method, path, {"query": SELECT_ALL})
        assert status == 405, (method, path)
        assert envelope["error"]["code"] == "method-not-allowed"
        assert_conforms(envelope)


# -- /query --------------------------------------------------------------------


def test_query_rows_match_direct_engine(app, engine) -> None:
    status, envelope = app.handle("POST", "/query", {"query": QUERY})
    assert status == 200
    direct = engine.query(QUERY)
    assert envelope["rows"] == render_rows(direct.rows)
    assert envelope["total_rows"] == len(direct.rows)
    assert envelope["next_cursor"] is None
    assert_conforms(envelope)


def test_query_pagination_round_trip(app, engine) -> None:
    direct = render_rows(engine.query(SELECT_ALL).rows)
    collected: list[list[str]] = []
    body: dict = {"query": SELECT_ALL, "page_size": 7}
    while True:
        status, envelope = app.handle("POST", "/query", body)
        assert status == 200
        assert_conforms(envelope)
        assert envelope["row_start"] == len(collected)
        collected.extend(envelope["rows"])
        if envelope["next_cursor"] is None:
            break
        body = {"query": SELECT_ALL, "cursor": envelope["next_cursor"]}
    assert collected == direct


def test_missing_body_is_400(app) -> None:
    status, envelope = app.handle("POST", "/query", None)
    assert status == 400
    assert envelope["error"]["code"] == "bad-request"
    assert_conforms(envelope)


def test_bad_query_is_400_with_typed_error(app) -> None:
    status, envelope = app.handle("POST", "/query", {"query": "SELECT FROM WHERE"})
    assert status == 400
    assert envelope["error"]["type"] == "QuerySyntaxError"
    assert envelope["error"]["code"] == "query-syntax"
    assert_conforms(envelope)


def test_unknown_request_field_is_400(app) -> None:
    status, envelope = app.handle(
        "POST", "/query", {"query": SELECT_ALL, "qery": "typo"}
    )
    assert status == 400
    assert "qery" in envelope["error"]["message"]


def test_foreign_cursor_is_400(app) -> None:
    _, first = app.handle("POST", "/query", {"query": SELECT_ALL, "page_size": 3})
    status, envelope = app.handle(
        "POST", "/query", {"query": QUERY, "cursor": first["next_cursor"]}
    )
    assert status == 400
    assert "does not belong" in envelope["error"]["message"]


def test_over_budget_request_is_429_with_snapshot(engine) -> None:
    app = QueryServerApp(engine, ServerConfig(workers=2))
    try:
        status, envelope = app.handle(
            "POST",
            "/query",
            {"query": SELECT_ALL, "budget": {"max_regions": 1}},
        )
        assert status == 429
        assert envelope["error"]["type"] == "BudgetExceededError"
        assert envelope["error"]["code"] == "budget-exceeded"
        assert envelope["error"]["detail"]["resource"] == "regions"
        assert envelope["error"]["detail"]["limit"] == 1
        assert_conforms(envelope)
    finally:
        app.close()


def test_server_budget_caps_every_request(engine) -> None:
    # Server-level totals are split across workers: 4 regions / 4 workers
    # = 1 region per request, far below what the query needs.
    app = QueryServerApp(
        engine,
        ServerConfig(workers=4, budget=ResourceBudget(max_regions=4)),
    )
    try:
        status, envelope = app.handle("POST", "/query", {"query": SELECT_ALL})
        assert status == 429
        assert envelope["error"]["code"] == "budget-exceeded"
    finally:
        app.close()


def test_client_may_narrow_but_not_widen_its_quota(engine) -> None:
    app = QueryServerApp(
        engine,
        ServerConfig(workers=1, budget=ResourceBudget(max_regions=2)),
    )
    try:
        status, envelope = app.handle(
            "POST",
            "/query",
            {"query": SELECT_ALL, "budget": {"max_regions": 10_000}},
        )
        assert status == 429  # the minted quota (2) still applies
        assert envelope["error"]["detail"]["limit"] == 2
    finally:
        app.close()


def test_page_size_past_maximum_is_400(engine) -> None:
    app = QueryServerApp(engine, ServerConfig(max_page_size=10))
    try:
        status, envelope = app.handle(
            "POST", "/query", {"query": SELECT_ALL, "page_size": 11}
        )
        assert status == 400
        assert "exceeds maximum" in envelope["error"]["message"]
    finally:
        app.close()


def test_default_page_size_applies_when_unspecified(engine) -> None:
    app = QueryServerApp(engine, ServerConfig(default_page_size=5))
    try:
        _, envelope = app.handle("POST", "/query", {"query": SELECT_ALL})
        assert len(envelope["rows"]) == 5
        assert envelope["next_cursor"] is not None
    finally:
        app.close()


# -- /explain and /analyze -----------------------------------------------------


def test_explain_envelope(app, engine) -> None:
    status, envelope = app.handle("POST", "/explain", {"query": SELECT_ALL})
    assert status == 200
    # The cache-activity line varies between calls; the plan itself must
    # match what the engine explains directly.
    direct = engine.explain(SELECT_ALL).splitlines()
    lines = envelope["text"].splitlines()
    assert lines[0] == direct[0]
    assert envelope["lines"] == lines
    assert_conforms(envelope)


def test_analyze_envelope_carries_the_pinned_shape(app) -> None:
    status, envelope = app.handle("POST", "/analyze", {"query": QUERY})
    assert status == 200
    assert envelope["kind"] == "analyze"
    # assert_conforms validates envelope["analysis"] against
    # schemas/analyze.schema.json — the CLI contract, verbatim.
    assert_conforms(envelope)


# -- /stats and admission ------------------------------------------------------


def test_stats_envelope_counts_requests(app) -> None:
    app.handle("POST", "/query", {"query": SELECT_ALL})
    app.handle("POST", "/query", {"query": "SELECT FROM"})
    status, envelope = app.handle("GET", "/stats")
    assert status == 200
    server = envelope["server"]
    # The /stats request itself is only recorded once its envelope is
    # built, so it is not part of its own tally.
    assert server["requests_total"] == 2
    assert server["errors_total"] == 1
    assert server["by_endpoint"]["/query"]["requests"] == 2
    assert server["by_status"]["400"] == 1
    assert server["admission"]["admitted_total"] == 2
    assert envelope["engine"]["backend"]["type"] == "file"
    assert_conforms(envelope)


def test_full_admission_rejects_with_429(engine) -> None:
    app = QueryServerApp(engine, ServerConfig(workers=1, queue_depth=0))
    try:
        ticket = app.admission.admit()  # saturate capacity out-of-band
        try:
            status, envelope = app.handle("POST", "/query", {"query": SELECT_ALL})
        finally:
            ticket.release()
        assert status == 429
        assert envelope["error"]["type"] == "ServerOverloadedError"
        assert envelope["error"]["code"] == "server-overloaded"
        assert envelope["error"]["detail"]["admission"]["capacity"] == 1
        assert_conforms(envelope)
    finally:
        app.close()


def test_concurrent_queries_return_identical_rows(engine) -> None:
    app = QueryServerApp(engine, ServerConfig(workers=4, queue_depth=16))
    expected = render_rows(engine.query(QUERY).rows)
    results: list = [None] * 8
    try:
        def call(slot: int) -> None:
            results[slot] = app.handle("POST", "/query", {"query": QUERY})

        threads = [
            threading.Thread(target=call, args=(slot,)) for slot in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        for status, envelope in results:
            assert status == 200
            assert envelope["rows"] == expected
    finally:
        app.close()


def test_close_is_idempotent(engine) -> None:
    app = QueryServerApp(engine, ServerConfig(workers=1))
    app.close()
    app.close()
