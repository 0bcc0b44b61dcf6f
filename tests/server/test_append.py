"""``POST /append``: the ingestion endpoint — live backends only,
admission-controlled, and schema-conformant envelopes."""

from __future__ import annotations

import json

import pytest

from repro.live import LiveEngine
from repro.server import QueryServerApp, ServerConfig
from repro.shard import ShardedEngine
from repro.workloads.bibtex import generate_bibtex

from tests.server.conftest import SELECT_ALL


@pytest.fixture(scope="module")
def record(schema) -> str:
    text = generate_bibtex(entries=1, seed=99)
    tree = schema.parse(text)
    (child,) = list(tree.children)
    return text[child.start : child.end] + "\n\n"


@pytest.fixture
def live_app(tmp_path, schema, corpus_text):
    directory = tmp_path / "live-idx"
    ShardedEngine.split(schema, corpus_text, 3).save(directory)
    backend = LiveEngine.open(schema, directory)
    application = QueryServerApp(backend, ServerConfig(workers=2, queue_depth=4))
    yield application
    application.close()
    backend.close()


def test_append_envelope_carries_seq_shard_and_pending(live_app, record) -> None:
    status, envelope = live_app.handle("POST", "/append", {"record": record})
    assert status == 200
    assert envelope["ok"] is True
    assert envelope["kind"] == "append"
    assert envelope["seq"] == 1
    assert isinstance(envelope["shard"], str)
    assert envelope["pending"] == 1


def test_append_envelope_conforms_to_schema(live_app, record) -> None:
    from check_schema import SCHEMA_PATH, validate_envelope

    schema_doc = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
    _, envelope = live_app.handle("POST", "/append", {"record": record})
    assert validate_envelope(envelope, schema_doc, {}) == []


def test_appended_record_is_immediately_queryable(live_app, record) -> None:
    _, before = live_app.handle("POST", "/query", {"query": SELECT_ALL})
    status, _ = live_app.handle("POST", "/append", {"record": record})
    assert status == 200
    _, after = live_app.handle("POST", "/query", {"query": SELECT_ALL})
    assert after["total_rows"] == before["total_rows"] + 1


def test_unparseable_record_is_400_bad_record(live_app) -> None:
    status, envelope = live_app.handle(
        "POST", "/append", {"record": "definitely not bibtex"}
    )
    assert status == 400
    assert envelope["error"]["code"] == "bad-record"
    assert envelope["error"]["type"] == "ParseError"


def test_missing_or_malformed_body_is_400(live_app) -> None:
    for body in (None, {}, {"record": 7}):
        status, envelope = live_app.handle("POST", "/append", body)
        assert status == 400
        assert envelope["error"]["code"] == "bad-request"


def test_append_requires_post(live_app) -> None:
    status, envelope = live_app.handle("GET", "/append", None)
    assert status == 405


def test_query_only_backend_is_400_append_unsupported(app, record) -> None:
    status, envelope = app.handle("POST", "/append", {"record": record})
    assert status == 400
    assert envelope["error"]["code"] == "append-unsupported"


def test_draining_server_rejects_appends_with_503(live_app, record) -> None:
    live_app.start_draining()
    status, envelope = live_app.handle("POST", "/append", {"record": record})
    assert status == 503
    assert envelope["error"]["code"] == "server-draining"


# -- idempotent appends (client request ids) ----------------------------------


class TestIdempotentAppend:
    def test_request_id_is_echoed_with_deduped_false(
        self, live_app, record
    ) -> None:
        status, envelope = live_app.handle(
            "POST", "/append", {"record": record, "request_id": "rid-1"}
        )
        assert status == 200
        assert envelope["seq"] == 1
        assert envelope["deduped"] is False
        assert envelope["request_id"] == "rid-1"

    def test_replayed_request_returns_the_original_ack(
        self, live_app, record
    ) -> None:
        _, first = live_app.handle(
            "POST", "/append", {"record": record, "request_id": "rid-1"}
        )
        status, replay = live_app.handle(
            "POST", "/append", {"record": record, "request_id": "rid-1"}
        )
        assert status == 200
        assert replay["seq"] == first["seq"]
        assert replay["deduped"] is True
        # The replay appended nothing: pending is unchanged.
        assert replay["pending"] == first["pending"]

    def test_rebinding_a_request_id_is_409_duplicate_request(
        self, live_app, record, schema
    ) -> None:
        other = generate_bibtex(entries=1, seed=77)
        tree = schema.parse(other)
        other_record = other[tree.children[0].start : tree.children[0].end] + "\n\n"
        live_app.handle("POST", "/append", {"record": record, "request_id": "rid-1"})
        status, envelope = live_app.handle(
            "POST", "/append", {"record": other_record, "request_id": "rid-1"}
        )
        assert status == 409
        assert envelope["error"]["code"] == "duplicate-request"
        assert envelope["error"]["detail"] == {"request_id": "rid-1", "seq": 1}

    def test_append_without_request_id_still_reports_deduped(
        self, live_app, record
    ) -> None:
        _, envelope = live_app.handle("POST", "/append", {"record": record})
        assert envelope["deduped"] is False
        assert "request_id" not in envelope

    def test_malformed_request_id_is_400(self, live_app, record) -> None:
        for bad in ("", 7, ["rid"]):
            status, envelope = live_app.handle(
                "POST", "/append", {"record": bad and record, "request_id": bad}
            )
            assert status == 400
            assert envelope["error"]["code"] == "bad-request"

    def test_deduped_envelope_conforms_to_schema(self, live_app, record) -> None:
        from check_schema import SCHEMA_PATH, validate_envelope

        schema_doc = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
        live_app.handle("POST", "/append", {"record": record, "request_id": "r"})
        _, envelope = live_app.handle(
            "POST", "/append", {"record": record, "request_id": "r"}
        )
        assert envelope["deduped"] is True
        assert validate_envelope(envelope, schema_doc, {}) == []
