"""solo ≡ sharded ≡ live, differentially, on every workload generator.

Answers are sets, and the gather that merges shards and live deltas is the
one place rows from more than one corpus meet: every multi-source backend
must serve, row for row and in order, what one engine over the logical
corpus serves, with ``stats.rows`` equal to the rows served — whether the
shards are plain directories or sets of replicated copies.  A join does
not decompose over a split corpus, so it is answered only on one source
and refused with a ``PlanningError`` on more.
"""

from __future__ import annotations

import pytest

from repro.api import QueryRequest, query_response
from repro.core.engine import FileQueryEngine
from repro.errors import PlanningError
from repro.index.config import IndexConfig
from repro.live import LiveEngine
from repro.shard import ShardedEngine
from repro.workloads.bibtex import bibtex_schema, generate_bibtex
from repro.workloads.logs import (
    FAILED_GETS_QUERY,
    STORAGE_ERRORS_QUERY,
    generate_log,
    log_schema,
    tail_entries,
)
from repro.workloads.sgml import generate_sgml, sgml_schema


def _records(schema, text: str, separator: str) -> list[str]:
    """Self-delimiting records: each top-level child plus its separator."""
    return [
        text[child.start : child.end] + separator
        for child in schema.parse(text).children
    ]


# name -> (schema, base text, appended records, single-variable texts, join)
WORKLOADS = {
    "bibtex": lambda: (
        bibtex_schema(),
        generate_bibtex(entries=48, seed=5),
        _records(bibtex_schema(), generate_bibtex(entries=6, seed=99), "\n\n"),
        [
            "SELECT r FROM Reference r",
            "SELECT r.Key FROM Reference r",
            "SELECT r.Year FROM Reference r",
            "SELECT r.Publisher FROM Reference r",
            "SELECT r.Authors.Name.Last_Name FROM Reference r",
            'SELECT r.Year FROM Reference r WHERE r.*X.Last_Name = "Chang"',
            'SELECT r.Title FROM Reference r WHERE r.Year = "1980" OR r.Publisher = "SIAM"',
            'SELECT r.Year FROM Reference r '
            'WHERE r.Publisher = "ACM" AND r.*X.Last_Name = "Cluet"',
        ],
        'SELECT r.Key, s.Key FROM Reference r, Reference s '
        'WHERE r.Year = s.Year AND r.Publisher = "SIAM"',
    ),
    "logs": lambda: (
        log_schema(),
        generate_log(80, seed=3),
        list(tail_entries(entries=6, seed=5, start=80)),
        [
            "SELECT e FROM Entry e",
            "SELECT e.Level FROM Entry e",
            "SELECT e.Component FROM Entry e",
            "SELECT e.Requests.Request.Status FROM Entry e",
            'SELECT e.Level FROM Entry e WHERE e.*X.Status = "503"',
            'SELECT e.Message FROM Entry e WHERE e.Level = "ERROR" OR e.Level = "FATAL"',
            STORAGE_ERRORS_QUERY,
            FAILED_GETS_QUERY,
        ],
        'SELECT e.Component, f.Component FROM Entry e, Entry f '
        'WHERE e.Level = f.Level AND e.Component = "storage"',
    ),
    "sgml": lambda: (
        sgml_schema(),
        generate_sgml(12, seed=3),
        _records(sgml_schema(), generate_sgml(3, seed=8), "\n"),
        [
            "SELECT d FROM Document d",
            "SELECT d.TitleText FROM Document d",
            "SELECT d.Sections.Section.TitleText FROM Document d",
            "SELECT d.*X.TitleText FROM Document d",
            'SELECT d.TitleText FROM Document d WHERE d.*X.TitleText LIKE "Compaction*"',
            'SELECT d.TitleText FROM Document d '
            'WHERE d.TitleText LIKE "Storage*" OR d.*X.TitleText LIKE "Recovery*"',
            'SELECT d.TitleText FROM Document d '
            'WHERE d.*X.TitleText LIKE "Compaction*" AND d.*X.TitleText LIKE "Recovery*"',
        ],
        "SELECT d.TitleText, e.TitleText FROM Document d, Document e "
        "WHERE d.Sections.Section.TitleText = e.Sections.Section.TitleText",
    ),
}

#: The one partial-index build: Reference and the attributes the bibtex
#: texts name, so some plans are candidates re-checked after parsing.
PARTIAL = IndexConfig.partial({"Reference", "Key", "Year", "Last_Name"})


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def workload(request):
    return request.param, *WORKLOADS[request.param]()


def _served(engine, text: str) -> tuple[list[list[str]], int]:
    response = query_response(engine.query(text), QueryRequest(text))
    assert response.stats["rows"] == response.total_rows, text
    return response.rows, response.total_rows


def _assert_equivalent(engine, solo, texts, join, sources: int) -> None:
    for text in texts:
        assert _served(engine, text) == _served(solo, text), text
    if sources == 1:
        assert _served(engine, join) == _served(solo, join)
    else:
        with pytest.raises(PlanningError):
            engine.query(join)


def layouts(*shard_counts: int) -> list:
    """``(shards, replicas)``: plain shard directories (id ``3``), then the
    same shards saved as 2 replicated copies each (id ``3x2``)."""
    return [
        pytest.param(shards, replicas, id=f"{shards}x{replicas}" if replicas else str(shards))
        for replicas in (None, 2)
        for shards in shard_counts
    ]


@pytest.mark.parametrize("shards, replicas", layouts(1, 3, 8))
def test_sharded_equals_solo(workload, shards, replicas, tmp_path) -> None:
    _, schema, text, _, texts, join = workload
    solo = FileQueryEngine(schema, text)
    sharded = ShardedEngine.split(schema, text, shards)
    sources = len(sharded.shard_names)
    _assert_equivalent(sharded, solo, texts, join, sources=sources)
    # replicated ≡ single: the same shards saved and reopened, N copies each.
    sharded.save(tmp_path / "sidx", replicas=replicas)
    saved = ShardedEngine.from_saved(schema, tmp_path / "sidx")
    _assert_equivalent(saved, solo, texts, join, sources=sources)


@pytest.mark.parametrize("shards, replicas", layouts(1, 3))
def test_live_equals_rebuild_before_and_after_compaction(
    workload, shards, replicas, tmp_path
) -> None:
    _, schema, text, records, texts, join = workload
    ShardedEngine.split(schema, text, shards).save(tmp_path / "lidx", replicas=replicas)
    rebuild = FileQueryEngine(schema, text + "".join(records))
    live = LiveEngine.open(schema, tmp_path / "lidx")
    try:
        for record in records:
            live.append(record)
        # Appends go to the tail: one delta source beside the base shards.
        _assert_equivalent(live, rebuild, texts, join, sources=shards + 1)
        live.compact()
        _assert_equivalent(live, rebuild, texts, join, sources=shards)
    finally:
        live.close()


@pytest.mark.parametrize("shards, replicas", layouts(1, 3))
def test_live_equals_rebuild_across_segment_merges(
    workload, shards, replicas, tmp_path
) -> None:
    _, schema, text, records, texts, join = workload
    ShardedEngine.split(schema, text, shards).save(tmp_path / "lidx", replicas=replicas)
    live = LiveEngine.open(schema, tmp_path / "lidx")
    try:
        # A query after every append: each append forms a delta segment,
        # and the newest two merge whenever the older is within 2x.
        for n, record in enumerate(records, start=1):
            live.append(record)
            rebuild = FileQueryEngine(schema, text + "".join(records[:n]))
            _assert_equivalent(live, rebuild, texts, join, sources=shards + 1)
        live.compact()
        _assert_equivalent(live, rebuild, texts, join, sources=shards)
    finally:
        live.close()


def test_partial_index_build_equals_solo(tmp_path) -> None:
    schema, text, records, texts, join = WORKLOADS["bibtex"]()
    solo = FileQueryEngine(schema, text, PARTIAL)
    assert any(
        solo.query(query).stats.strategy == "index-candidates" for query in texts
    )
    sharded = ShardedEngine.split(schema, text, 3, config=PARTIAL)
    _assert_equivalent(sharded, solo, texts, join, sources=3)

    sharded.save(tmp_path / "lidx")
    rebuild = FileQueryEngine(schema, text + "".join(records), PARTIAL)
    live = LiveEngine.open(schema, tmp_path / "lidx")
    try:
        assert live.config == PARTIAL  # deltas build with the base shards' config
        for record in records:
            live.append(record)
        _assert_equivalent(live, rebuild, texts, join, sources=4)
        live.compact()
        _assert_equivalent(live, rebuild, texts, join, sources=3)
    finally:
        live.close()
