"""``index-project`` ≡ the parse path, on every backend.

A one-attribute projection of an exact selection is answered from the
index (Section 5: the attribute region ``⊂d`` the selected object): the
endpoint regions are read, nothing is parsed.  Running the same plan with
``strategy="index-exact"`` takes the parse path, which parses and
instantiates every selected object.  The two must agree on the rendered
rows and their order, ``total_rows``, the row digests the shard and live
gathers union on, ``result_regions`` and each value's ``type_name``; and
both must equal the full scan's rows.  Sharded (1, 3, 8 shards),
replicated and live engines must answer what the solo engine answers.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import render_rows
from repro.cache import CacheConfig
from repro.core.engine import FileQueryEngine
from repro.index.config import IndexConfig
from repro.live import LiveEngine
from repro.shard import ShardedEngine
from repro.workloads.bibtex import LAST_NAMES, bibtex_schema, generate_bibtex
from repro.workloads.logs import generate_log, log_schema, tail_entries
from repro.workloads.sgml import generate_sgml, sgml_schema
from repro.workloads.source import generate_source, source_schema

#: The served benchmark's cold pool: five projections and the whole object
#: under conditions that each select about a tenth of the references.
POOL_PROJECTIONS = ["r.Key", "r.Title", "r.Year", "r.Publisher", "r.Authors.Name.Last_Name"]
POOL_CONDITIONS = [
    f'r.Authors.Name.Last_Name = "{LAST_NAMES[0]}"',
    f'r.Editors.Name.Last_Name = "{LAST_NAMES[3]}"',
    'r.Year = "1980" OR r.Year = "1981"',
]
POOL = [
    f"SELECT {projection} FROM Reference r WHERE {condition}"
    for projection in POOL_PROJECTIONS
    for condition in POOL_CONDITIONS
] + ['SELECT r.Title FROM Reference r WHERE r.Year = "1982"']

BIBTEX = POOL + [
    "SELECT r.Key FROM Reference r",
    "SELECT r.Title FROM Reference r",
    "SELECT r.Year FROM Reference r",
    "SELECT r.Publisher FROM Reference r",
    "SELECT r.Authors.Name.Last_Name FROM Reference r",
    "SELECT r.Editors.Name.First_Name FROM Reference r",
    "SELECT r.Keywords.Keyword FROM Reference r",
    "SELECT r.Referred.RefKey FROM Reference r",
    "SELECT r.Abstract FROM Reference r",
    'SELECT r.Authors.Name.Last_Name FROM Reference r WHERE r.Year = "1982"',
    'SELECT r.Authors.Name.Last_Name FROM Reference r WHERE r.Publisher = "SIAM"',
    'SELECT r.Key FROM Reference r WHERE r.*X.Last_Name = "Chang"',
    'SELECT r.Title FROM Reference r WHERE r.*X.Last_Name = "Chang"',
    'SELECT r.Year FROM Reference r WHERE r.*X.Last_Name = "Chang"',
    'SELECT r.Title FROM Reference r WHERE r.Key = "missing-key"',
    'SELECT r.Title FROM Reference r WHERE r.Title LIKE "Sol*"',
    'SELECT r.Title FROM Reference r WHERE r.Year = "1980" OR r.Publisher = "SIAM"',
    'SELECT r.Key FROM Reference r WHERE r.Authors.Name.Last_Name LIKE "Cor*"',
    'SELECT r.Address FROM Reference r WHERE NOT r.Publisher = "SIAM"',
    # Not projections of one atomic attribute: the parse path keeps them.
    "SELECT r.Authors FROM Reference r",
    "SELECT r.X.Name.Last_Name FROM Reference r",
    'SELECT r.Key, r.Year FROM Reference r WHERE r.Publisher = "ACM"',
]
SGML = [
    "SELECT d.TitleText FROM Document d",
    "SELECT d.Sections.Section.TitleText FROM Document d",
    "SELECT d.Sections.Section.Subsections.Section.TitleText FROM Document d",
    'SELECT d.TitleText FROM Document d WHERE d.*X.TitleText LIKE "Compaction*"',
    'SELECT d.TitleText FROM Document d WHERE d.*X.ParaText = "nesting"',
    "SELECT d.*X.TitleText FROM Document d",
]
LOGS = [
    "SELECT e.Level FROM Entry e",
    "SELECT e.Component FROM Entry e",
    'SELECT e.Component FROM Entry e WHERE e.Level = "ERROR"',
    'SELECT e.Level FROM Entry e WHERE e.*X.Status = "503"',
    'SELECT e.Message FROM Entry e WHERE e.Level = "ERROR" OR e.Level = "FATAL"',
    "SELECT e.Requests.Request.Status FROM Entry e",
    "SELECT e.Timestamp.Date FROM Entry e",
]
SOURCE = [
    "SELECT f.FuncName FROM Function f",
    'SELECT f.FuncName FROM Function f WHERE f.Body.Call.Callee = "alloc"',
    "SELECT c.Callee FROM Call c",
    "SELECT i.Cond FROM If i",
]

#: SGML with its transparent wrappers (``Title``, ``Paragraph``) left out
#: of the index, so a title's region lies directly in its section's.
SGML_UNWRAPPED = IndexConfig.partial(
    {"Document", "Sections", "Section", "Subsections", "Paragraphs", "TitleText", "ParaText"}
)


def _answer(result) -> tuple:
    """Everything a projection's answer is compared on."""
    return (
        render_rows(result.rows),
        [tuple((value.text, value.type_name) for value in row) for row in result.rows],
        len(result.rows),
        list(result.row_hashes),
    )


@pytest.fixture(scope="module")
def bibtex_text() -> str:
    return generate_bibtex(entries=120, seed=23, self_edited_rate=0.2)


@pytest.fixture(scope="module")
def bibtex_engine(bibtex_text) -> FileQueryEngine:
    return FileQueryEngine(bibtex_schema(), bibtex_text)


def _check_against_parse_path(engine: FileQueryEngine, text: str) -> str:
    result = engine.query(text)
    baseline = engine.baseline_query(text)
    assert render_rows(result.rows) == render_rows(baseline.rows) or (
        result.canonical_rows() == baseline.canonical_rows()
    ), text
    if result.stats.strategy != "index-project":
        return result.stats.strategy
    parsed = engine.execute_plan(dataclasses.replace(result.plan, strategy="index-exact"))
    assert parsed.stats.strategy == "index-exact"
    assert _answer(result) == _answer(parsed), text
    assert result.regions == parsed.regions, text
    assert result.stats.result_regions == parsed.stats.result_regions, text
    assert render_rows(result.rows) == render_rows(baseline.rows), text
    assert result.stats.bytes_parsed == 0
    return result.stats.strategy


@pytest.mark.parametrize("text", BIBTEX)
def test_bibtex_projection_equals_parse_path(bibtex_engine, text):
    _check_against_parse_path(bibtex_engine, text)


def test_pool_projections_take_the_index(bibtex_engine):
    for text in POOL:
        assert bibtex_engine.plan(text).strategy == "index-project", text
    for text in BIBTEX[-3:]:
        assert bibtex_engine.plan(text).strategy != "index-project", text


@pytest.mark.parametrize("config", [None, SGML_UNWRAPPED], ids=["full", "unwrapped"])
def test_sgml_projection_equals_parse_path(config):
    engine = FileQueryEngine(
        sgml_schema(), generate_sgml(documents=12, depth=4, branching=2, seed=5), config
    )
    strategies = {text: _check_against_parse_path(engine, text) for text in SGML}
    # An indexed wrapper between a document and its title, and nested
    # sections, keep the parse path; without wrappers the title is read.
    assert strategies["SELECT d.Sections.Section.TitleText FROM Document d"] != "index-project"
    assert (strategies["SELECT d.TitleText FROM Document d"] == "index-project") == (
        config is SGML_UNWRAPPED
    )


def test_log_projection_equals_parse_path():
    engine = FileQueryEngine(log_schema(), generate_log(entries=150, seed=9))
    strategies = [_check_against_parse_path(engine, text) for text in LOGS]
    assert strategies.count("index-project") >= 5


def test_source_projection_equals_parse_path():
    engine = FileQueryEngine(source_schema(), generate_source(functions=30, seed=4))
    strategies = {text: _check_against_parse_path(engine, text) for text in SOURCE}
    assert strategies["SELECT f.FuncName FROM Function f"] == "index-project"
    # ``If`` nests in itself: an inner condition lies in the outer region.
    assert strategies["SELECT i.Cond FROM If i"] != "index-project"


def test_projection_reads_only_the_endpoint_bytes(bibtex_engine):
    text = 'SELECT r.Key FROM Reference r WHERE r.Authors.Name.Last_Name = "Chang"'
    result = bibtex_engine.query(text)
    span = result.trace.find("index-project")
    assert span is not None
    keys = sum(len(row[0].text) for row in result.rows)
    assert span.metrics["bytes_read"] >= keys > 0
    assert result.stats.bytes_parsed == 0


def _sharded_answer(engine, text) -> tuple:
    result = engine.query(text)
    assert not result.warnings, text
    return _answer(result)


@pytest.mark.parametrize("shards", [1, 3, 8])
def test_sharded_projection_equals_solo(bibtex_engine, bibtex_text, shards):
    sharded = ShardedEngine.split(bibtex_schema(), bibtex_text, shards)
    for text in POOL + BIBTEX[len(POOL) : len(POOL) + 9]:
        assert _sharded_answer(sharded, text) == _answer(bibtex_engine.query(text)), text


def test_replicated_projection_equals_solo(bibtex_engine, bibtex_text, tmp_path):
    ShardedEngine.split(bibtex_schema(), bibtex_text, 3).save(tmp_path / "ridx", replicas=2)
    replicated = ShardedEngine.from_saved(bibtex_schema(), tmp_path / "ridx")
    for text in POOL:
        assert _sharded_answer(replicated, text) == _answer(bibtex_engine.query(text)), text


def test_live_projection_equals_rebuild_before_and_after_compaction(tmp_path):
    schema = log_schema()
    base = generate_log(entries=120, seed=29)
    ShardedEngine.split(schema, base, 4).save(tmp_path / "lidx")
    tail = tail_entries(entries=6, seed=7, start=120)
    live = LiveEngine.open(schema, tmp_path / "lidx")
    try:
        for record in tail:
            live.append(record)
        rebuilt = FileQueryEngine(schema, base + "".join(tail))
        for phase in ("pending", "compacted"):
            for text in LOGS:
                assert _sharded_answer(live, text) == _answer(rebuilt.query(text)), (
                    phase, text,
                )
            live.compact()
    finally:
        live.close()


def test_explain_prints_the_projection_chain(bibtex_engine):
    text = bibtex_engine.explain(POOL[0])
    assert "strategy:  index-project" in text
    assert "projection: Key ⊂ Reference" in text


def test_budget_bounds_the_bytes_a_projection_reads(bibtex_text):
    from repro.errors import BudgetExceededError
    from repro.resilience import ResourceBudget

    engine = FileQueryEngine(bibtex_schema(), bibtex_text)
    with pytest.raises(BudgetExceededError) as excinfo:
        engine.query("SELECT r.Title FROM Reference r", budget=ResourceBudget(max_bytes_parsed=64))
    assert excinfo.value.resource == "bytes"


@pytest.mark.parametrize(
    "text",
    [POOL[0], POOL[-2], "SELECT r.Key FROM Reference r", BIBTEX[len(POOL) + 4]],
)
def test_projection_needs_the_region_budget_of_the_parse_path(bibtex_text, text):
    """The region budget is charged for the selection alone, on both paths:
    the smallest region cap the parse path runs under also serves the
    projection, on a cold engine as on a warm one."""
    from repro.errors import BudgetExceededError
    from repro.resilience import ResourceBudget

    def runs_under(engine, plan, cap) -> bool:
        try:
            engine.execute_plan(plan, budget=ResourceBudget(max_regions=cap))
        except BudgetExceededError as error:
            assert error.resource == "regions"
            return False
        return True

    uncached = FileQueryEngine(bibtex_schema(), bibtex_text, cache_config=CacheConfig.disabled())
    plan = uncached.plan(text)
    assert plan.strategy == "index-project", text
    parse_plan = dataclasses.replace(plan, strategy="index-exact")
    cap = next(cap for cap in range(0, 4096, 8) if runs_under(uncached, parse_plan, cap))
    cap = next(low for low in range(max(cap - 8, 0), cap + 1) if runs_under(uncached, parse_plan, low))
    assert runs_under(uncached, plan, cap) and not runs_under(uncached, plan, cap - 1)
    cold = FileQueryEngine(bibtex_schema(), bibtex_text)
    assert runs_under(cold, cold.plan(text), cap) and runs_under(cold, cold.plan(text), cap)


def test_projection_work_grows_with_the_selection(bibtex_text):
    """Without caches the chain is followed down from each selected
    region: one comparison per key inside the selected references, however
    many references the corpus holds."""
    engine = FileQueryEngine(bibtex_schema(), bibtex_text, cache_config=CacheConfig.disabled())
    result = engine.query(POOL[0])
    parsed = engine.execute_plan(dataclasses.replace(result.plan, strategy="index-exact"))
    assert result.stats.strategy == "index-project"
    selected = result.stats.result_regions
    assert 0 < selected < len(engine.query("SELECT r.Key FROM Reference r").rows) // 4
    walked = result.stats.algebra.comparisons - parsed.stats.algebra.comparisons
    assert walked == selected


def test_partial_index_projection_equals_parse_path(bibtex_text):
    """Unindexed attributes between the object and the endpoint: the chain
    is exact only where no other attribute path can reach the endpoint."""
    engine = FileQueryEngine(
        bibtex_schema(), bibtex_text, IndexConfig.partial({"Reference", "Key", "Last_Name", "Year"})
    )
    strategies = {text: _check_against_parse_path(engine, text) for text in BIBTEX}
    assert strategies["SELECT r.Key FROM Reference r"] == "index-project"
    # Last_Name ⊂d Reference would also find the editors' last names.
    assert strategies["SELECT r.Authors.Name.Last_Name FROM Reference r"] != "index-project"


def test_join_does_not_trust_a_chain_through_a_region_of_equal_extent():
    """``⊂d`` looks through an indexed region that shares an end's extent
    (a one-section ``Subsections``), so a nested section's title chain is
    not exact: the Section 5.2 join filters its candidates and answers as
    the full scan does."""
    from repro.db.parser import parse_query

    engine = FileQueryEngine(
        sgml_schema(), generate_sgml(documents=10, depth=4, seed=5), SGML_UNWRAPPED
    )
    nested = "d.Sections.Section.Subsections.Section.TitleText"
    (output,) = parse_query(f"SELECT {nested} FROM Document d").outputs
    chain = engine.translator.endpoint_chain("Document", output)
    assert chain is not None and not chain[1]
    text = (
        f"SELECT d FROM Document d WHERE {nested} = "
        "d.Sections.Section.Subsections.Section.Subsections.Section.TitleText"
    )
    result = engine.query(text)
    assert result.stats.strategy.startswith("index-join")
    assert result.canonical_rows() == engine.baseline_query(text).canonical_rows()


def test_every_terminal_kind_reads_back_from_its_region():
    """Each terminal's region reader agrees with the parser: words,
    numbers, whitespace-trimmed until-text and unquoted strings."""
    from repro.schema.grammar import (
        Grammar, Literal, NonTerminal, SeqRule, StarRule, TNumber, TQuoted, TUntil, TWord,
    )
    from repro.schema.structuring import StructuringSchema

    grammar = Grammar(
        [
            StarRule("Items", NonTerminal("Item")),
            SeqRule(
                "Item",
                [
                    Literal("["), NonTerminal("Name"), NonTerminal("Count"),
                    NonTerminal("Label"), Literal("|"), NonTerminal("Note"), Literal("]"),
                ],
            ),
            SeqRule("Name", [TWord()]),
            SeqRule("Count", [TNumber()]),
            SeqRule("Label", [TQuoted()]),
            SeqRule("Note", [TUntil("]")]),
        ],
        start="Items",
    )
    schema = StructuringSchema(grammar, classes={"Item"})
    text = "".join(
        f'[ item{i % 4}  {i % 3}  "a {i % 5} b"|  note {i % 2}   with  gaps  ]\n'
        for i in range(30)
    )
    engine = FileQueryEngine(schema, text)
    for attribute in ("Name", "Count", "Label", "Note"):
        _check_against_parse_path(engine, f"SELECT i.{attribute} FROM Item i")
        assert engine.plan(f"SELECT i.{attribute} FROM Item i").strategy == "index-project"
