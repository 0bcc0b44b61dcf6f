"""Graceful drain: requests already executing finish inside the drain
deadline, queued-but-unstarted ones get typed 503s, new arrivals are
rejected with ``Retry-After`` while the listener stays open, and the
socket is released only after the drain — including under SIGTERM with
requests in flight.  Plus the 429 overload path's retry-after estimate."""

from __future__ import annotations

import json
import math
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.core.engine import QueryResult
from repro.core.partial import ExecutionStats
from repro.obs.stats import QueryStats
from repro.errors import ServerDrainingError
from repro.server import QueryServer, QueryServerApp, ServerConfig
from repro.server.pool import WorkerPool

from tests.server.conftest import QUERY, SELECT_ALL, http_get, http_post

ROOT = Path(__file__).resolve().parent.parent.parent


class _BlockingBackend:
    """A QueryBackend whose queries block until released."""

    def __init__(self) -> None:
        self.release = threading.Event()
        self.started = threading.Event()

    def query(self, query, budget=None) -> QueryResult:
        self.started.set()
        self.release.wait(timeout=60)
        return QueryResult(rows=[], plan=None, stats=QueryStats(ExecutionStats("done")))

    def explain(self, query):  # pragma: no cover - protocol filler
        raise NotImplementedError

    def analyze(self, query, budget=None):  # pragma: no cover - protocol filler
        raise NotImplementedError

    def stats(self):  # pragma: no cover - protocol filler
        raise NotImplementedError


# -- the worker pool's drain ---------------------------------------------------


def test_pool_drain_finishes_active_and_fails_queued() -> None:
    release = threading.Event()
    started = threading.Event()

    def active() -> str:
        started.set()
        release.wait(timeout=60)
        return "finished"

    pool = WorkerPool(workers=1, queue_depth=4)
    try:
        running = pool.submit(active)
        assert started.wait(timeout=30)
        queued = pool.submit(lambda: "never ran")

        drained: list[bool] = []

        def drain() -> None:
            drained.append(pool.drain(deadline_s=30.0))

        drainer = threading.Thread(target=drain)
        drainer.start()
        # The queued-but-unstarted future fails with the typed error as
        # soon as the drain flushes the queue — before the active one ends.
        with pytest.raises(ServerDrainingError):
            queued.result(timeout=30)
        release.set()
        drainer.join(timeout=30)
        assert drained == [True]
        assert running.result(timeout=1) == "finished"  # active completed
    finally:
        release.set()
        pool.drain()


def test_pool_drain_deadline_expires_on_a_stuck_worker() -> None:
    stuck = threading.Event()
    entered = threading.Event()

    def wedge() -> None:
        entered.set()
        stuck.wait(timeout=60)

    pool = WorkerPool(workers=1, queue_depth=0)
    try:
        pool.submit(wedge)
        assert entered.wait(timeout=30)
        started = time.perf_counter()
        assert pool.drain(deadline_s=0.2) is False  # truthfully undrained
        assert time.perf_counter() - started < 5.0
    finally:
        stuck.set()
        pool.drain()


# -- the app's drain -----------------------------------------------------------


def test_app_drain_rejects_new_work_but_reports_health() -> None:
    backend = _BlockingBackend()
    app = QueryServerApp(backend, ServerConfig(workers=1, queue_depth=2))
    occupied: list = [None]

    def occupy() -> None:
        occupied[0] = app.handle("POST", "/query", {"query": SELECT_ALL})

    occupier = threading.Thread(target=occupy)
    occupier.start()
    try:
        assert backend.started.wait(timeout=30)
        app.start_draining()
        # New engine work: structured 503 with a retry hint...
        status, envelope = app.handle("POST", "/query", {"query": SELECT_ALL})
        assert status == 503
        assert envelope["error"]["code"] == "server-draining"
        assert envelope["error"]["detail"]["retry_after_s"] > 0
        # ...while health stays observable and says so.
        status, health = app.handle("GET", "/healthz", None)
        assert status == 200
        assert health["status"] == "draining"
    finally:
        backend.release.set()
        occupier.join(timeout=30)
    assert app.drain() is True
    assert occupied[0][0] == 200  # the in-flight request finished


def test_app_drain_is_idempotent_with_close() -> None:
    backend = _BlockingBackend()
    backend.release.set()
    app = QueryServerApp(backend, ServerConfig(workers=1))
    assert app.drain() is True
    app.close()  # second shutdown path is a no-op, not an error


# -- drain over live HTTP ------------------------------------------------------


def test_http_drain_sends_retry_after_and_releases_socket(engine) -> None:
    backend = _BlockingBackend()
    server = QueryServer(backend, ServerConfig(port=0, workers=1, queue_depth=2))
    server.start()
    port = server.port
    outcome: list = [None]

    def occupy() -> None:
        outcome[0] = http_post(server.url + "/query", {"query": SELECT_ALL})

    occupier = threading.Thread(target=occupy)
    occupier.start()
    try:
        assert backend.started.wait(timeout=30)
        server.app.start_draining()
        # The listener is still open: the client hears a structured 503
        # with a Retry-After header, not a connection refusal.
        request = urllib.request.Request(
            server.url + "/query",
            data=json.dumps({"query": SELECT_ALL}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 503
        assert int(excinfo.value.headers["Retry-After"]) >= 1
        envelope = json.load(excinfo.value)
        assert envelope["error"]["code"] == "server-draining"
    finally:
        backend.release.set()
        occupier.join(timeout=30)
    server.shutdown()
    assert outcome[0][0] == 200  # in-flight request drained to completion
    # The socket is fully released: the port can be rebound immediately.
    with socket.socket() as probe:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind(("127.0.0.1", port))


def test_shutdown_is_idempotent(engine) -> None:
    server = QueryServer(engine, ServerConfig(port=0, workers=1))
    server.start()
    server.shutdown()
    server.shutdown()  # second call must be a no-op


# -- 429 retry-after -----------------------------------------------------------


def test_overload_429_carries_retry_after(engine) -> None:
    backend = _BlockingBackend()
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
            request = urllib.request.Request(
                srv.url + "/query",
                data=json.dumps({"query": SELECT_ALL}).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 429
            envelope = json.load(excinfo.value)
            detail = envelope["error"]["detail"]
            assert detail["retry_after_s"] > 0
            assert detail["admission"]["retry_after_s"] == detail["retry_after_s"]
            # Header is the ceiling of the estimate, at least one second.
            header = int(excinfo.value.headers["Retry-After"])
            assert header == max(1, math.ceil(detail["retry_after_s"]))
        finally:
            backend.release.set()
            occupier.join(timeout=30)
        assert outcome[0][0] == 200


def test_retry_after_estimate_tracks_recent_drain_rate(app) -> None:
    # Cold server: the conservative default.
    assert app.stats.retry_after_s(pending=1) == 1.0
    # Warm the estimator with real POST durations, then the estimate is
    # mean duration x queue waves ahead of the retrier.
    for _ in range(3):
        status, _ = app.handle("POST", "/query", {"query": QUERY})
        assert status == 200
    single = app.stats.retry_after_s(pending=1, workers=1)
    assert 0.1 <= single <= 60.0
    assert app.stats.retry_after_s(pending=8, workers=2) >= single


# -- SIGTERM with requests in flight -------------------------------------------


@pytest.mark.timeout(120)
def test_sigterm_drains_in_flight_requests(tmp_path, corpus_text) -> None:
    corpus = tmp_path / "refs.bib"
    corpus.write_text(corpus_text, encoding="utf-8")
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--workload", "bibtex", "--file", str(corpus),
            "--port", str(port), "--workers", "2",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    url = f"http://127.0.0.1:{port}"
    try:
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

        # Launch in-flight requests, then SIGTERM while they are running.
        results: list = [None] * 4

        def call(slot: int) -> None:
            try:
                results[slot] = http_post(url + "/query", {"query": QUERY})
            except OSError as error:  # refused mid-race: recorded, asserted below
                results[slot] = error

        threads = [
            threading.Thread(target=call, args=(slot,)) for slot in range(4)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.05)  # let the connections land before the signal
        process.send_signal(signal.SIGTERM)
        for thread in threads:
            thread.join(timeout=60)
        assert process.wait(timeout=30) == 0  # clean exit

        statuses = []
        for result in results:
            assert not isinstance(result, OSError), (
                f"client saw a connection error instead of a drained "
                f"response or structured 503: {result}"
            )
            status, envelope = result
            statuses.append(status)
            if status == 200:
                assert envelope["rows"]  # drained to a complete answer
            else:
                # Queued-but-unstarted or post-drain arrivals: typed 503.
                assert status == 503
                assert envelope["error"]["code"] == "server-draining"
        assert 200 in statuses, "at least one in-flight request must drain"

        # The listener socket was released with the process gone.
        with socket.socket() as rebind:
            rebind.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            rebind.bind(("127.0.0.1", port))
        assert b"server stopped" in process.stderr.read()
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
