"""The live HTTP server: concurrent clients, pagination over the wire,
admission rejection, degraded-shard partial results, warm caches, and the
CLI's ``repro serve`` round trip."""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from check_schema import validate_envelope  # via conftest sys.path

from repro.api import render_rows
from repro.core.engine import QueryResult
from repro.core.partial import ExecutionStats
from repro.obs.stats import QueryStats
from repro.core.engine import FileQueryEngine
from repro.server import QueryServer, ServerConfig
from repro.shard import ShardedEngine

from tests.server.conftest import QUERY, SELECT_ALL, http_get, http_post

ROOT = Path(__file__).resolve().parent.parent.parent
SERVER_SCHEMA = json.loads((ROOT / "schemas" / "server.schema.json").read_text())
ANALYZE_SCHEMA = json.loads((ROOT / "schemas" / "analyze.schema.json").read_text())


def assert_conforms(envelope: dict) -> None:
    errors = validate_envelope(envelope, SERVER_SCHEMA, ANALYZE_SCHEMA)
    assert errors == [], errors


# -- basic round trips ---------------------------------------------------------


def test_health_and_stats_over_http(server) -> None:
    status, health = http_get(server.url + "/healthz")
    assert status == 200
    assert_conforms(health)
    status, stats = http_get(server.url + "/stats")
    assert status == 200
    assert_conforms(stats)


def test_query_over_http_matches_direct_engine(server, engine) -> None:
    status, envelope = http_post(server.url + "/query", {"query": QUERY})
    assert status == 200
    assert envelope["rows"] == render_rows(engine.query(QUERY).rows)
    assert_conforms(envelope)


def test_eight_concurrent_clients_byte_identical(server, engine) -> None:
    expected = render_rows(engine.query(QUERY).rows)
    results: list = [None] * 8

    def call(slot: int) -> None:
        results[slot] = http_post(server.url + "/query", {"query": QUERY})

    threads = [threading.Thread(target=call, args=(slot,)) for slot in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert all(result is not None for result in results)
    for status, envelope in results:
        assert status == 200
        assert envelope["rows"] == expected


def test_pagination_round_trip_over_http(server, engine) -> None:
    direct = render_rows(engine.query(SELECT_ALL).rows)
    collected: list[list[str]] = []
    body: dict = {"query": SELECT_ALL, "page_size": 6}
    while True:
        status, envelope = http_post(server.url + "/query", body)
        assert status == 200
        collected.extend(envelope["rows"])
        if envelope["next_cursor"] is None:
            break
        body = {"query": SELECT_ALL, "cursor": envelope["next_cursor"]}
    assert collected == direct


def test_malformed_json_body_is_400(server) -> None:
    request = urllib.request.Request(
        server.url + "/query",
        data=b"{not json",
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    assert excinfo.value.code == 400
    envelope = json.load(excinfo.value)
    assert envelope["error"]["code"] == "bad-json"
    assert_conforms(envelope)


def _raw_post(server, content_length: str, body: bytes = b"") -> tuple[int, str | None, dict]:
    """POST /query with a verbatim ``Content-Length`` header over a raw
    socket; returns (status, ``Connection`` header, envelope)."""
    sock = socket.create_connection((server.host, server.port), timeout=5)
    try:
        sock.sendall(
            b"POST /query HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {content_length}\r\n\r\n".encode("ascii")
            + body
        )
        response = http.client.HTTPResponse(sock)
        response.begin()
        return response.status, response.getheader("Connection"), json.loads(response.read())
    finally:
        sock.close()


@pytest.mark.parametrize("content_length", ["abc", "1e3", "-1", "+5", "1 2"])
def test_malformed_content_length_is_400(server, content_length: str) -> None:
    status, connection, envelope = _raw_post(
        server, content_length, b'{"query": "SELECT r FROM Reference r"}'
    )
    assert (status, connection) == (400, "close")
    assert envelope["error"]["code"] == "bad-request"
    assert "Content-Length" in envelope["error"]["message"]
    assert_conforms(envelope)


def test_oversized_body_is_413_and_closes(server) -> None:
    status, connection, envelope = _raw_post(server, str(9 * 1024 * 1024))
    assert (status, connection) == (413, "close")
    assert envelope["error"]["code"] == "payload-too-large"
    assert_conforms(envelope)


def test_keep_alive_round_trips_wait_on_no_tcp_timer(server) -> None:
    """A response written as headers then body must not sit behind the
    client's delayed ACK: with Nagle's algorithm on, every round trip on
    a kept-alive connection took >= 40 ms."""
    page = json.dumps({"query": "SELECT r.Key FROM Reference r", "page_size": 10})
    whole = json.dumps({"query": "SELECT r FROM Reference r"})  # ~18 KB envelope
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    headers = {"Content-Type": "application/json"}

    def round_trip(body: str) -> tuple[float, bytes]:
        started = time.perf_counter()
        connection.request("POST", "/query", body=body, headers=headers)
        response = connection.getresponse()
        data = response.read()
        assert response.status == 200
        return time.perf_counter() - started, data

    try:
        round_trip(page)  # warm the plan and parse caches
        _, data = round_trip(whole)
        assert len(data) > 16_000  # the whole-corpus answer spans segments
        timings = [round_trip(body)[0] for _ in range(10) for body in (page, whole)]
    finally:
        connection.close()
    assert statistics.median(timings) < 0.020, sorted(timings)


def test_wrong_method_over_http_is_405(server) -> None:
    status, envelope = http_post(server.url + "/healthz", {})
    assert status == 405
    assert_conforms(envelope)


# -- warm caches ---------------------------------------------------------------


def test_repeat_queries_warm_the_shared_caches(schema, corpus_text) -> None:
    # A fresh backend so this test owns the cache counters.
    backend = FileQueryEngine(schema, corpus_text)
    with QueryServer(backend, ServerConfig(port=0, workers=2)) as srv:
        durations = []
        for _ in range(4):
            started = time.perf_counter()
            status, _ = http_post(srv.url + "/query", {"query": QUERY})
            durations.append(time.perf_counter() - started)
            assert status == 200
        status, stats = http_get(srv.url + "/stats")
        assert status == 200
        cache = stats["engine"]["cache"]
        assert cache["plan_hits"] >= 3  # repeats reused the first plan
        assert cache["expression_hits"] + cache["parse_hits"] > 0
        # Warm repeats beat the cold first request (generous margin: the
        # cold run did all the planning and parsing).
        assert min(durations[1:]) <= durations[0] * 1.5


# -- admission over HTTP -------------------------------------------------------


class _SlowBackend:
    """A minimal QueryBackend whose queries block until released."""

    def __init__(self, release: threading.Event) -> None:
        self.release = release
        self.started = threading.Event()

    def query(self, query, budget=None, *, trace=True) -> QueryResult:
        self.started.set()
        self.release.wait(timeout=60)
        return QueryResult(rows=[], plan=None, stats=QueryStats(ExecutionStats("slow")))

    def explain(self, query):  # pragma: no cover - protocol filler
        raise NotImplementedError

    def analyze(self, query, budget=None):  # pragma: no cover - protocol filler
        raise NotImplementedError

    def stats(self):  # pragma: no cover - protocol filler
        raise NotImplementedError


def test_overload_is_a_structured_429() -> None:
    release = threading.Event()
    backend = _SlowBackend(release)
    with QueryServer(
        backend, ServerConfig(port=0, workers=1, queue_depth=0)
    ) as srv:
        outcome: list = [None]

        def occupy() -> None:
            outcome[0] = http_post(srv.url + "/query", {"query": SELECT_ALL})

        occupier = threading.Thread(target=occupy)
        occupier.start()
        try:
            assert backend.started.wait(timeout=30)
            status, envelope = http_post(srv.url + "/query", {"query": SELECT_ALL})
            assert status == 429
            error = envelope["error"]
            assert error["type"] == "ServerOverloadedError"
            assert error["code"] == "server-overloaded"
            snapshot = error["detail"]["admission"]
            assert snapshot["in_flight"] == snapshot["capacity"] == 1
            assert snapshot["rejected_total"] >= 1
            assert_conforms(envelope)
        finally:
            release.set()
            occupier.join(timeout=30)
        assert outcome[0][0] == 200  # the occupying request still finished


# -- degraded shards over HTTP -------------------------------------------------


def test_degraded_shard_surfaces_partial_result_warning(
    tmp_path, schema, corpus_text
) -> None:
    directory = tmp_path / "sidx"
    ShardedEngine.split(schema, corpus_text, 4).save(directory)
    victim = sorted((directory / "shards").iterdir())[1]
    (victim / "corpus.txt").write_text("garbage", encoding="utf-8")

    backend = ShardedEngine.from_saved(schema, directory)
    with QueryServer(backend, ServerConfig(port=0, workers=2)) as srv:
        status, envelope = http_post(srv.url + "/query", {"query": QUERY})
        assert status == 200
        codes = [warning["code"] for warning in envelope["warnings"]]
        assert "shard-failed" in codes
        assert "partial-result" in codes
        assert envelope["rows"]  # the healthy shards still answered
        assert_conforms(envelope)
        status, stats = http_get(srv.url + "/stats")
        assert stats["engine"]["backend"]["type"] == "sharded"
        assert_conforms(stats)


# -- the CLI round trip --------------------------------------------------------


@pytest.mark.timeout(120)
def test_cli_serve_round_trip(tmp_path, corpus_text) -> None:
    corpus = tmp_path / "refs.bib"
    corpus.write_text(corpus_text, encoding="utf-8")
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--workload", "bibtex", "--file", str(corpus), "--port", str(port),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        url = f"http://127.0.0.1:{port}"
        deadline = time.monotonic() + 60
        while True:
            try:
                status, _ = http_get(url + "/healthz")
                assert status == 200
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise AssertionError("server did not come up in time")
                assert process.poll() is None, process.stderr.read().decode()
                time.sleep(0.2)
        status, envelope = http_post(url + "/query", {"query": QUERY, "page_size": 2})
        assert status == 200
        assert envelope["rows"]
        assert_conforms(envelope)
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 0
        assert b"server stopped" in process.stderr.read()
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
