"""The packed saved-index format: a loaded index equals the built one name
by name and word by word, damage to ``spans.bin`` is a typed error, older
JSON layouts still load, and a save's bytes do not depend on the hash
seed."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.algebra.region import Instance, RegionSet
from repro.core.engine import FileQueryEngine
from repro.errors import IndexCorruptError
from repro.index.config import IndexConfig
from repro.index.engine import IndexEngine
from repro.index.persist import applied_seq, load_index, save_index
from repro.index.word_index import WordIndex
from repro.shard import ShardedEngine
from repro.workloads.bibtex import CHANG_AUTHOR_QUERY, bibtex_schema, generate_bibtex
from repro.workloads.logs import generate_log, log_schema
from repro.workloads.sgml import generate_sgml, sgml_schema
from tests.index.saved_layouts import (
    add_suffix_array_key,
    name_slice,
    pack_spans,
    read_spans,
    resign,
    write_json_index,
    write_spans,
)


def assert_same_index(built: IndexEngine, loaded: IndexEngine) -> None:
    """Every region set and every word lookup of ``loaded`` equals ``built``'s."""
    assert loaded.text == built.text
    assert loaded.instance.names == built.instance.names
    for name in built.instance.names:
        assert loaded.instance.get(name) == built.instance.get(name)
        assert loaded.instance.get(name).regions == built.instance.get(name).regions
    assert loaded.instance.all_regions() == built.instance.all_regions()
    words, loaded_words = built.word_index, loaded.word_index
    if words is None:
        assert loaded_words is None
        return
    assert loaded_words.vocabulary == words.vocabulary
    assert loaded_words.posting_count == words.posting_count
    for word in words.vocabulary:
        assert loaded_words.occurrences(word) == words.occurrences(word)
        assert loaded_words.frequency(word) == words.frequency(word)
    for prefix in {word[:length] for word in words.vocabulary for length in (1, 2)}:
        assert loaded_words.occurrences_with_prefix(prefix) == words.occurrences_with_prefix(
            prefix
        )
    for region in built.instance.all_regions():
        assert loaded_words.token_count_between(
            region.start, region.end
        ) == words.token_count_between(region.start, region.end)


GENERATED = {
    "bibtex": (bibtex_schema, lambda: generate_bibtex(entries=12, seed=5)),
    "logs": (log_schema, lambda: generate_log(entries=40, seed=5)),
    "sgml": (sgml_schema, lambda: generate_sgml(documents=4, seed=5)),
}


class TestBuildEqualsLoad:
    @pytest.mark.parametrize("workload", sorted(GENERATED))
    @pytest.mark.parametrize(
        "config",
        [IndexConfig.full(), IndexConfig.full(lowercase_words=True)],
        ids=["full", "lowercase"],
    )
    def test_generated_corpora(self, tmp_path, workload, config):
        schema, generate = GENERATED[workload]
        built = FileQueryEngine(schema(), generate(), config).index
        save_index(built, tmp_path / "idx")
        assert_same_index(built, load_index(tmp_path / "idx"))

    def test_partial_scoped_engine(self, tmp_path):
        config = IndexConfig.partial(
            {"Reference", "Authors"}, word_scope="Authors", lowercase_words=True
        ).with_scoped("Last_Name", "Authors")
        built = FileQueryEngine(bibtex_schema(), generate_bibtex(entries=9, seed=2), config)
        built.save(str(tmp_path / "idx"))
        assert_same_index(built.index, load_index(tmp_path / "idx"))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_drawn_instances(self, data):
        text = data.draw(
            st.lists(
                st.one_of(
                    st.text(alphabet="abAZ-_İiéΩ1", min_size=1, max_size=5),
                    st.sampled_from([" ", "\n", ", ", '"']),
                ),
                max_size=30,
            ).map("".join)
        )
        offsets = st.integers(0, len(text))
        spans = st.lists(st.tuples(offsets, offsets).map(sorted), max_size=6)
        names = data.draw(st.lists(st.sampled_from(["A", "B", "Ω", "A@B"]), unique=True))
        instance = Instance(
            {name: RegionSet.from_pairs(data.draw(spans)) for name in names}
        )
        word_scope = data.draw(st.sampled_from([None, *names]))
        config = IndexConfig(
            region_names=data.draw(st.sampled_from([None, frozenset(names)])),
            word_index=data.draw(st.booleans()),
            word_scope=word_scope,
            lowercase_words=data.draw(st.booleans()),
        )
        words = None
        if config.word_index:
            scope = instance.get(word_scope) if word_scope is not None else None
            words = WordIndex(text, lowercase=config.lowercase_words, scope=scope)
        built = IndexEngine(text, instance, word_index=words, config=config)
        with tempfile.TemporaryDirectory() as directory:
            save_index(built, Path(directory) / "idx")
            loaded = load_index(Path(directory) / "idx")
        assert_same_index(built, loaded)
        assert loaded.config == config


@pytest.fixture
def saved(tmp_path):
    engine = FileQueryEngine(bibtex_schema(), generate_bibtex(entries=10, seed=3))
    engine.save(str(tmp_path / "idx"))
    return tmp_path / "idx"


def _damaged(directory: Path, match: str | None = None) -> None:
    with pytest.raises(IndexCorruptError, match=match) as excinfo:
        load_index(directory)
    assert excinfo.value.part == "spans.bin"


class TestDamagedSpans:
    """A correctly checksummed ``spans.bin`` that breaks the format is
    ``IndexCorruptError`` naming the part, never a wrong index."""

    def test_intact_file_round_trips(self, saved):
        header, values = read_spans(saved)
        write_spans(saved, header, values)
        assert load_index(saved).instance.get("Reference")

    @pytest.mark.parametrize(
        "keep", [0, 3, 40, -1], ids=["empty", "in-length", "in-header", "in-data"]
    )
    def test_truncation(self, saved, keep):
        data = (saved / "spans.bin").read_bytes()
        resign(saved, "spans.bin", data[:keep])
        _damaged(saved)

    def test_trailing_bytes(self, saved):
        resign(saved, "spans.bin", (saved / "spans.bin").read_bytes() + b"\x00")
        _damaged(saved, "trailing bytes")

    @pytest.mark.parametrize("delta", [-1, 1])
    @pytest.mark.parametrize("counts", ["name_counts", "word_counts"])
    def test_wrong_count(self, saved, counts, delta):
        header, values = read_spans(saved)
        header[counts][-1] += delta
        write_spans(saved, header, values)
        _damaged(saved, "its header counts")

    def test_unsorted_spans(self, saved):
        header, values = read_spans(saved)
        where = name_slice(header, "Reference")
        spans = values[where]
        spans[0:2], spans[2:4] = spans[2:4], spans[0:2]
        values[where] = spans
        write_spans(saved, header, values)
        _damaged(saved, "not sorted and unique")

    def test_duplicate_spans(self, saved):
        header, values = read_spans(saved)
        where = name_slice(header, "Key")
        values[where.start : where.start] = values[where.start : where.start + 2]
        header["name_counts"][header["names"].index("Key")] += 1
        write_spans(saved, header, values)
        _damaged(saved, "not sorted and unique")

    @pytest.mark.parametrize("field", ["names", "words"])
    def test_span_past_the_end_of_the_text(self, saved, field):
        header, values = read_spans(saved)
        length = len((saved / "corpus.txt").read_text(encoding="utf-8"))
        index = 1 if field == "names" else len(values) - 1
        values[index] = length + 1
        write_spans(saved, header, values)
        _damaged(saved, "past the text's end")

    @pytest.mark.parametrize("span", [(-1, 3), (5, 3)], ids=["negative", "inverted"])
    def test_negative_or_inverted_span(self, saved, span):
        header, values = read_spans(saved)
        values[0:2] = span
        write_spans(saved, header, values)
        _damaged(saved, "negative or inverted")

    def test_overlapping_tokens(self, saved):
        header, values = read_spans(saved)
        values[-1] += 2  # the last posting now runs into the next token
        write_spans(saved, header, values)
        _damaged(saved, "overlap")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda header: (header["names"].reverse(), header["name_counts"].reverse()),
            lambda header: header.update(word_counts=None),
            lambda header: header["name_counts"].__setitem__(0, 1.0 * header["name_counts"][0]),
            lambda header: header["words"].pop(),
        ],
        ids=["unsorted-names", "no-word-counts", "float-count", "uncounted-word"],
    )
    def test_malformed_header(self, saved, edit):
        header, values = read_spans(saved)
        edit(header)
        write_spans(saved, header, values)
        _damaged(saved, "header lists are malformed or unsorted")

    def test_header_that_is_not_an_object(self, saved):
        resign(saved, "spans.bin", b"\x02\x00\x00\x00[]")
        _damaged(saved)


QUERY = "SELECT r.Key FROM Reference r"


class TestJsonLayoutsStillLoad:
    """Directories saved as version 2 (plain) or 3 (live) keep loading and
    answer exactly as the engine that built them."""

    @pytest.mark.parametrize("live", [None, {"applied_seq": 7}], ids=["v2", "v3"])
    @pytest.mark.parametrize("query", [QUERY, CHANG_AUTHOR_QUERY])
    def test_rows_identical(self, tmp_path, live, query):
        engine = FileQueryEngine(bibtex_schema(), generate_bibtex(entries=15, seed=9))
        write_json_index(engine.index, tmp_path / "idx", live=live)
        restored = FileQueryEngine.from_saved(bibtex_schema(), str(tmp_path / "idx"))
        result = restored.query(query)
        assert result.warnings == []
        assert result.canonical_rows() == engine.query(query).canonical_rows()
        assert_same_index(engine.index, restored.index)
        assert applied_seq(tmp_path / "idx") == (0 if live is None else 7)


class TestSuffixArrayKeyIsIgnored:
    """Earlier releases wrote a ``suffix_array`` flag into every
    ``config.json``.  Such directories, solo or sharded, keep loading and
    answer exactly as before; a new save writes no such key."""

    @pytest.mark.parametrize("flag", [True, False])
    def test_solo(self, tmp_path, flag):
        engine = FileQueryEngine(bibtex_schema(), generate_bibtex(entries=15, seed=9))
        engine.save(str(tmp_path / "idx"))
        add_suffix_array_key(tmp_path / "idx", flag)
        restored = FileQueryEngine.from_saved(bibtex_schema(), str(tmp_path / "idx"))
        for query in (QUERY, CHANG_AUTHOR_QUERY):
            result = restored.query(query)
            assert result.warnings == []
            assert result.canonical_rows() == engine.query(query).canonical_rows()
        assert_same_index(engine.index, restored.index)

    @pytest.mark.parametrize("flag", [True, False])
    @pytest.mark.parametrize("replicas", [None, 2], ids=["plain", "replicated"])
    def test_sharded(self, tmp_path, flag, replicas):
        text = generate_bibtex(entries=15, seed=9)
        ShardedEngine.split(bibtex_schema(), text, 3).save(
            tmp_path / "sidx", replicas=replicas
        )
        configs = sorted((tmp_path / "sidx").rglob("config.json"))
        assert len(configs) == 3 * (replicas or 1)
        for config in configs:
            add_suffix_array_key(config.parent, flag)
        restored = ShardedEngine.from_saved(bibtex_schema(), tmp_path / "sidx")
        solo = FileQueryEngine(bibtex_schema(), text)
        for query in (QUERY, CHANG_AUTHOR_QUERY):
            result = restored.query(query)
            assert result.warnings == []
            assert result.stats.healthy_shards == 3
            assert result.canonical_rows() == solo.query(query).canonical_rows()

    def test_new_saves_carry_no_key(self, tmp_path):
        engine = FileQueryEngine(bibtex_schema(), generate_bibtex(entries=5, seed=9))
        engine.save(str(tmp_path / "idx"))
        config = json.loads((tmp_path / "idx" / "config.json").read_text(encoding="utf-8"))
        assert "suffix_array" not in config
        assert "lowercase_words" in config


_SAVE_SCRIPT = """
import sys
from repro.core.engine import FileQueryEngine
from repro.index.config import IndexConfig
from repro.index.persist import save_index
from repro.workloads.bibtex import bibtex_schema, generate_bibtex

config = IndexConfig.partial({"Reference", "Key", "Authors"}).with_scoped("Last_Name", "Authors")
for name, config in (("full", None), ("partial", config)):
    engine = FileQueryEngine(bibtex_schema(), generate_bibtex(entries=8, seed=4), config)
    engine.save(sys.argv[1] + "/" + name)
    save_index(engine.index, sys.argv[1] + "/" + name + "-replicated", replicas=2)
"""


def _files(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_saves_do_not_depend_on_the_hash_seed(tmp_path):
    source = str(Path(repro.__file__).resolve().parents[1])
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": source}
        subprocess.run(
            [sys.executable, "-c", _SAVE_SCRIPT, str(tmp_path / seed)],
            env=env,
            check=True,
            timeout=120,
        )
    first, second = _files(tmp_path / "1"), _files(tmp_path / "2")
    assert len(first) == 2 * 4 + 2 * (2 * 4 + 1)  # replicated: 2 copies + a manifest
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], name
