"""The served ``/query`` path answers rows, not span trees: it builds no
trace and fires no span hook, on every backend, while ``/analyze`` still
returns the whole tree.  Whole objects are rendered once: the display
string is kept on the (immutable, memoised) object."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.api import render_rows, render_value
from repro.core.engine import FileQueryEngine
from repro.db.values import ObjectValue, atom
from repro.live import LiveEngine
from repro.server import QueryServerApp, ServerConfig
from repro.shard import ShardedEngine
from repro.workloads.bibtex import generate_bibtex

from tests.server.conftest import QUERY, SELECT_ALL

BACKENDS = ["file", "sharded", "live"]


@pytest.fixture(params=BACKENDS)
def served(request, schema, corpus_text, tmp_path):
    """``(engine, app, source names)`` for one backend kind; a live
    backend has one pending append, so a delta segment is a source too."""
    kind = request.param
    if kind == "file":
        engine = FileQueryEngine(schema, corpus_text)
    elif kind == "sharded":
        engine = ShardedEngine.split(schema, corpus_text, 4)
    else:
        ShardedEngine.split(schema, corpus_text, 4).save(tmp_path / "lidx")
        engine = LiveEngine.open(schema, tmp_path / "lidx")
        engine.append(generate_bibtex(entries=1, seed=99).strip() + "\n\n")
    app = QueryServerApp(engine, ServerConfig(workers=2, queue_depth=4))
    status, _ = app.handle("POST", "/query", {"query": QUERY})  # loads every source
    assert status == 200
    sources = [] if kind == "file" else [source.name for source in engine._sources()]
    yield engine, app, sources
    app.close()
    if kind != "file":
        engine.close()


def _source_engines(engine) -> list[FileQueryEngine]:
    if isinstance(engine, FileQueryEngine):
        return [engine]
    return [source.engine for source in engine._sources()]


def test_query_fires_no_span_hook_and_analyze_does(served) -> None:
    engine, app, _ = served
    fired = []
    for one in _source_engines(engine):
        one.on_span(fired.append)
    assert app.handle("POST", "/query", {"query": QUERY})[0] == 200
    assert fired == []
    assert app.handle("POST", "/analyze", {"query": QUERY})[0] == 200
    assert len(fired) > 0


def test_query_envelope_has_no_trace_but_keeps_shards(served) -> None:
    _, app, sources = served
    status, page = app.handle("POST", "/query", {"query": QUERY})
    assert status == 200
    assert page["stats"]["trace"] is None
    assert page["stats"]["duration_s"] > 0
    shards = [record["shard"] for record in page["stats"].get("shards", [])]
    assert shards == sources


@pytest.mark.parametrize("text", [QUERY, SELECT_ALL])
def test_query_rows_are_those_of_a_traced_call(served, text) -> None:
    engine, app, _ = served
    traced = engine.query(text)
    assert traced.trace is not None
    status, page = app.handle("POST", "/query", {"query": text})
    assert status == 200
    assert json.dumps(page["rows"]) == json.dumps(render_rows(traced.rows))


def test_analyze_stages_keep_one_shard_span_per_source(served) -> None:
    _, app, sources = served
    status, envelope = app.handle("POST", "/analyze", {"query": QUERY})
    assert status == 200
    stages = envelope["analysis"]["stages"]
    assert stages is not None
    if sources:
        assert [child["name"] for child in stages["children"]] == [
            f"shard:{name}" for name in sources
        ]
    else:
        assert stages["name"] == "query"


def test_sharded_rows_equal_solo_rows(schema, corpus_text) -> None:
    solo = QueryServerApp(FileQueryEngine(schema, corpus_text))
    engine = ShardedEngine.split(schema, corpus_text, 4)
    sharded = QueryServerApp(engine)
    try:
        for text in (QUERY, SELECT_ALL):
            for _ in range(2):  # the second page renders from the memo
                pages = [
                    app.handle("POST", "/query", {"query": text})[1]
                    for app in (solo, sharded)
                ]
                assert pages[0]["rows"] == pages[1]["rows"]
    finally:
        solo.close()
        sharded.close()
        engine.close()


# -- the render memo -----------------------------------------------------------


def _reference() -> ObjectValue:
    return ObjectValue(
        "Reference",
        {"Key": atom("chang94"), "Title": atom("Files"), "Year": atom("1994")},
    )


def test_an_object_renders_once_and_as_a_fresh_one_would() -> None:
    value = _reference()
    assert value.display is None
    first = render_value(value)
    assert value.display == first
    assert render_value(value) == first == render_value(_reference())
    assert first == "Reference(Key='chang94', Title='Files', Year='1994')"


def test_display_takes_no_part_in_equality_hash_or_repr() -> None:
    value = _reference()
    before = (hash(value), repr(value))
    render_value(value)
    assert (hash(value), repr(value)) == before
    assert "display" not in repr(value)
    assert value == value and value != _reference()
    (display,) = (f for f in dataclasses.fields(ObjectValue) if f.name == "display")
    assert (display.init, display.repr, display.compare) == (False, False, False)
