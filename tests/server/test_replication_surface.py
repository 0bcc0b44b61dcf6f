"""The server's replication surface: per-replica health in ``/healthz``,
the scrubber snapshot in ``/stats``, and write-quorum failures as
structured 503s."""

from __future__ import annotations

import json

import pytest

from repro.errors import WriteQuorumError
from repro.live import LiveEngine
from repro.server import QueryServer, QueryServerApp, ServerConfig
from repro.shard import ScrubDaemon, ShardedEngine, scrub_index


@pytest.fixture
def replicated_backend(tmp_path, schema, corpus_text):
    directory = tmp_path / "ridx"
    ShardedEngine.split(schema, corpus_text, 3).save(directory, replicas=2)
    backend = LiveEngine.open(schema, directory)
    yield backend, directory
    backend.close()


@pytest.fixture
def replicated_app(replicated_backend, schema):
    backend, directory = replicated_backend
    daemon = ScrubDaemon(
        lambda: scrub_index(schema, directory, repair=True), interval_s=3600.0
    )
    application = QueryServerApp(
        backend, ServerConfig(workers=2, queue_depth=4), scrubber=daemon
    )
    yield application
    application.close()


def test_healthz_reports_per_replica_health(replicated_app) -> None:
    status, envelope = replicated_app.handle("GET", "/healthz", None)
    assert status == 200
    replicas = envelope["replicas"]
    assert len(replicas) == 3
    for shard in replicas:
        assert shard["replicas"] == 2
        assert shard["healthy"] == 2
        for detail in shard["detail"]:
            assert detail["status"] == "healthy"
            assert detail["breaker"] == "closed"
            assert detail["last_error"] is None


def test_healthz_replicas_is_null_for_plain_backends(app) -> None:
    status, envelope = app.handle("GET", "/healthz", None)
    assert status == 200
    assert envelope["replicas"] is None


def test_healthz_conforms_to_schema(replicated_app) -> None:
    from check_schema import SCHEMA_PATH, validate_envelope

    schema_doc = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
    _, envelope = replicated_app.handle("GET", "/healthz", None)
    assert validate_envelope(envelope, schema_doc, {}) == []


def test_stats_carries_the_scrub_snapshot(replicated_app) -> None:
    replicated_app.scrubber.run_once()
    status, envelope = replicated_app.handle("GET", "/stats", None)
    assert status == 200
    scrub = envelope["server"]["scrub"]
    assert scrub["runs"] == 1
    assert scrub["last_clean"] is True
    assert scrub["last_error"] is None
    assert scrub["interval_s"] == 3600.0


def test_stats_has_no_scrub_key_without_a_scrubber(app) -> None:
    _, envelope = app.handle("GET", "/stats", None)
    assert "scrub" not in envelope["server"]


def test_close_stops_the_scrubber(replicated_backend, schema) -> None:
    backend, directory = replicated_backend
    daemon = ScrubDaemon(
        lambda: scrub_index(schema, directory), interval_s=3600.0
    )
    daemon.start()
    application = QueryServerApp(backend, ServerConfig(), scrubber=daemon)
    application.close()
    assert daemon._thread is None


def test_server_starts_and_owns_the_scrub_daemon(
    replicated_backend, schema
) -> None:
    backend, directory = replicated_backend
    daemon = ScrubDaemon(
        lambda: scrub_index(schema, directory), interval_s=3600.0
    )
    server = QueryServer(backend, ServerConfig(port=0), scrubber=daemon)
    server.start()
    try:
        assert daemon._thread is not None
    finally:
        server.shutdown()
    assert daemon._thread is None


def test_write_quorum_failure_maps_to_structured_503(
    replicated_app, schema
) -> None:
    class QuorumlessBackend:
        """Stand-in that always fails the quorum."""

        def append(self, record):  # the endpoint gate checks for this
            raise WriteQuorumError("shard2", acked=1, quorum=2, replicas=2)

        def append_record(self, record, request_id=None):
            raise WriteQuorumError("shard2", acked=1, quorum=2, replicas=2)

        def query_request(self, request):  # pragma: no cover
            raise AssertionError

    application = QueryServerApp(
        QuorumlessBackend(), ServerConfig(workers=1, queue_depth=2)
    )
    try:
        status, envelope = application.handle(
            "POST", "/append", {"record": "x", "request_id": "rid-9"}
        )
        assert status == 503
        assert envelope["error"]["code"] == "write-quorum"
        assert envelope["error"]["detail"] == {
            "shard": "shard2",
            "acked": 1,
            "quorum": 2,
            "replicas": 2,
        }
    finally:
        application.close()
