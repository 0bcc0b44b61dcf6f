"""Corrupted saved indexes: typed errors under a strict policy, graceful
full-scan degradation (byte-identical answers + warnings + a ``degraded``
trace span) otherwise — the PR's headline acceptance criterion."""

from __future__ import annotations

import json
import zlib

import pytest

from repro.core.engine import FileQueryEngine
from repro.errors import IndexCorruptError, IndexNotFoundError
from repro.index.persist import load_index, verify_index
from repro.resilience import (
    DEGRADED_FULL_SCAN,
    INDEX_CORRUPT,
    INDEX_MISSING,
    INDEX_REBUILT,
    DegradationPolicy,
)
from tests.chaos.faults import corrupt_index_file
from tests.index.saved_layouts import name_slice, pack_spans, read_spans, write_json_index

#: Every (part, mode) fault and the strict-policy error it must raise.
FAULT_MATRIX = [
    ("corpus", "garbage", IndexCorruptError),
    ("corpus", "truncate", IndexCorruptError),
    ("corpus", "delete", IndexCorruptError),
    ("regions", "garbage", IndexCorruptError),
    ("regions", "truncate", IndexCorruptError),
    ("regions", "delete", IndexCorruptError),
    ("config", "garbage", IndexCorruptError),
    ("config", "truncate", IndexCorruptError),
    ("config", "delete", IndexNotFoundError),
    ("manifest", "garbage", IndexCorruptError),
    ("manifest", "truncate", IndexCorruptError),
    ("manifest", "delete", IndexCorruptError),
]


class TestFaultMatrix:
    @pytest.mark.parametrize("part,mode,expected", FAULT_MATRIX)
    def test_strict_policy_raises_typed_errors(
        self, saved_index, corpus_schema, part, mode, expected
    ):
        corrupt_index_file(saved_index, part=part, mode=mode)
        with pytest.raises(expected) as excinfo:
            FileQueryEngine.from_saved(
                corpus_schema, str(saved_index), policy=DegradationPolicy.strict()
            )
        assert excinfo.value.path == str(saved_index)

    @pytest.mark.parametrize("part,mode,expected", FAULT_MATRIX)
    def test_verify_index_matches_load_behaviour(self, saved_index, part, mode, expected):
        corrupt_index_file(saved_index, part=part, mode=mode)
        with pytest.raises(expected):
            verify_index(saved_index)
        with pytest.raises(expected):
            load_index(saved_index)


class TestMissingManifestIsDamage:
    """A saved index without ``manifest.json`` used to load as "legacy v1,
    skip checksums": halve the saved ``Reference`` spans (still well
    formed), delete the manifest, and ``SELECT r.Key FROM Reference r``
    answered 12 of 25 rows under nothing but a warning."""

    QUERY = "SELECT r.Key FROM Reference r"

    @pytest.fixture
    def halved_index(self, saved_index):
        header, values = read_spans(saved_index)
        where = name_slice(header, "Reference")
        count = (where.stop - where.start) // 2
        del values[where.start + 2 * (count // 2) : where.stop]
        header["name_counts"][header["names"].index("Reference")] = count // 2
        (saved_index / "spans.bin").write_bytes(pack_spans(header, values))
        (saved_index / "manifest.json").unlink()
        return saved_index

    def test_strict_policy_raises_a_typed_error(self, halved_index, corpus_schema):
        with pytest.raises(IndexCorruptError) as excinfo:
            FileQueryEngine.from_saved(
                corpus_schema, str(halved_index), policy=DegradationPolicy.strict()
            )
        assert excinfo.value.part == "manifest.json"

    def test_default_policy_answers_every_row(
        self, halved_index, corpus_schema, corpus_text
    ):
        expected = FileQueryEngine(corpus_schema, corpus_text).query(self.QUERY)
        result = FileQueryEngine.from_saved(corpus_schema, str(halved_index)).query(
            self.QUERY
        )
        assert len(result.rows) == len(expected.rows) == 25
        assert result.canonical_rows() == expected.canonical_rows()
        codes = [warning.code for warning in result.warnings]
        assert INDEX_CORRUPT in codes and DEGRADED_FULL_SCAN in codes


def _rewrite_checksummed(directory, name: str, content: str) -> None:
    """Replace a checksummed file and re-sign it in the manifest, so that
    only the load path's structural checks stand between it and a load."""
    (directory / name).write_text(content, encoding="utf-8")
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    crc = zlib.crc32(content.encode("utf-8")) & 0xFFFFFFFF
    manifest["checksums"][name] = f"crc32:{crc:08x}"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


@pytest.fixture
def json_saved_index(tmp_path, corpus_schema, corpus_text):
    """The same corpus saved in the version 2 JSON layout."""
    directory = tmp_path / "json-idx"
    write_json_index(FileQueryEngine(corpus_schema, corpus_text).index, directory)
    return directory


class TestManifestMustChecksumEveryFile:
    """A manifest whose ``checksums`` omitted the spans file let a halved
    one load unverified.  ``regions.json`` is the version 2/3 spans file."""

    @pytest.mark.parametrize(
        "name", ["corpus.txt", "regions.json", "config.json", "spans.bin"]
    )
    def test_omitted_checksum_is_damage(self, request, corpus_schema, name):
        layout = "json_saved_index" if name == "regions.json" else "saved_index"
        saved_index = request.getfixturevalue(layout)
        manifest_path = saved_index / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        del manifest["checksums"][name]
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(IndexCorruptError) as excinfo:
            verify_index(saved_index)
        assert excinfo.value.part == "manifest.json"
        with pytest.raises(IndexCorruptError):
            load_index(saved_index)
        with pytest.raises(IndexCorruptError):
            FileQueryEngine.from_saved(
                corpus_schema, str(saved_index), policy=DegradationPolicy.strict()
            )


class TestMalformedRegions:
    """A correctly checksummed ``regions.json`` (of a version 2/3
    directory) or ``config.json`` of the wrong shape is
    ``IndexCorruptError``, never an ``AttributeError`` or a float region.
    Damage to the current ``spans.bin`` is covered by
    ``tests/index/test_packed_index.py``."""

    @pytest.mark.parametrize("name", ["regions.json", "config.json"])
    def test_top_level_list(self, request, corpus_schema, name):
        layout = "json_saved_index" if name == "regions.json" else "saved_index"
        saved_index = request.getfixturevalue(layout)
        _rewrite_checksummed(saved_index, name, "[[0, 5]]")
        with pytest.raises(IndexCorruptError) as excinfo:
            load_index(saved_index)
        assert excinfo.value.part == name
        with pytest.raises(IndexCorruptError):
            FileQueryEngine.from_saved(
                corpus_schema, str(saved_index), policy=DegradationPolicy.strict()
            )

    @pytest.mark.parametrize(
        "spans",
        [
            [[0.5, 3]],
            [[0, 3.0]],
            [[True, 3]],
            [["0", "3"]],
            [[1, 2, 3]],
            [[1]],
            [7],
            [None],
            [[-1, 3]],  # negative
            [[5, 3]],  # inverted
        ],
        ids=repr,
    )
    def test_span_that_is_not_two_ordered_ints(self, json_saved_index, spans):
        path = json_saved_index / "regions.json"
        regions = json.loads(path.read_text(encoding="utf-8"))
        regions["Key"] = regions["Key"][:2] + spans
        _rewrite_checksummed(json_saved_index, "regions.json", json.dumps(regions))
        with pytest.raises(IndexCorruptError) as excinfo:
            load_index(json_saved_index)
        assert excinfo.value.part == "regions.json"


class TestGracefulDegradation:
    @pytest.mark.parametrize("part", ["regions", "config", "manifest"])
    def test_degraded_rows_identical_to_healthy(
        self, saved_index, corpus_schema, query_text, healthy_rows, part
    ):
        corrupt_index_file(saved_index, part=part, mode="garbage")
        engine = FileQueryEngine.from_saved(
            corpus_schema, str(saved_index), policy=DegradationPolicy.degrade()
        )
        result = engine.query(query_text)
        assert result.canonical_rows() == healthy_rows
        assert result.stats.strategy == "full-scan"
        codes = [warning.code for warning in result.warnings]
        assert INDEX_CORRUPT in codes
        assert DEGRADED_FULL_SCAN in codes
        assert result.trace is not None
        degraded = result.trace.find("degraded")
        assert degraded is not None
        assert degraded.metrics["code"] == INDEX_CORRUPT

    def test_degraded_full_scan_is_cached(
        self, saved_index, corpus_schema, query_text
    ):
        corrupt_index_file(saved_index, part="regions", mode="garbage")
        engine = FileQueryEngine.from_saved(
            corpus_schema, str(saved_index), policy=DegradationPolicy.degrade()
        )
        first = engine.query(query_text)
        second = engine.query(query_text)
        assert first.stats.cache_parse_misses == 1  # paid the corpus parse once
        assert second.stats.cache_parse_hits == 1
        assert second.stats.bytes_parsed == 0

    def test_corrupt_corpus_with_no_source_still_raises(
        self, saved_index, corpus_schema
    ):
        # Nothing trustworthy survives: the saved text itself is damaged and
        # no fresh source was provided — degrading would answer wrongly.
        corrupt_index_file(saved_index, part="corpus", mode="garbage")
        with pytest.raises(IndexCorruptError):
            FileQueryEngine.from_saved(
                corpus_schema, str(saved_index), policy=DegradationPolicy.degrade()
            )

    def test_corrupt_corpus_recovers_from_fresh_source(
        self, saved_index, corpus_schema, corpus_text, query_text, healthy_rows
    ):
        corrupt_index_file(saved_index, part="corpus", mode="garbage")
        engine = FileQueryEngine.from_saved(
            corpus_schema,
            str(saved_index),
            policy=DegradationPolicy.degrade(),
            source_text=corpus_text,
        )
        assert engine.query(query_text).canonical_rows() == healthy_rows

    def test_rebuild_policy_restores_indexed_execution(
        self, saved_index, corpus_schema, query_text, healthy_rows
    ):
        corrupt_index_file(saved_index, part="regions", mode="truncate")
        engine = FileQueryEngine.from_saved(
            corpus_schema, str(saved_index), policy=DegradationPolicy.rebuild()
        )
        result = engine.query(query_text)
        assert result.canonical_rows() == healthy_rows
        assert result.stats.strategy == "index-exact"  # indexed again
        codes = [warning.code for warning in result.warnings]
        assert INDEX_CORRUPT in codes
        assert INDEX_REBUILT in codes


class TestMissingIndex:
    def test_missing_directory_raises_typed_error(self, tmp_path, corpus_schema):
        missing = tmp_path / "nowhere"
        with pytest.raises(IndexNotFoundError) as excinfo:
            FileQueryEngine.from_saved(corpus_schema, str(missing))
        assert excinfo.value.path == str(missing)

    def test_missing_index_rebuilds_from_source(
        self, tmp_path, corpus_schema, corpus_text, query_text, healthy_rows
    ):
        missing = tmp_path / "nowhere"
        engine = FileQueryEngine.from_saved(
            corpus_schema,
            str(missing),
            policy=DegradationPolicy.degrade(),  # on_missing="rebuild"
            source_text=corpus_text,
        )
        result = engine.query(query_text)
        assert result.canonical_rows() == healthy_rows
        assert result.stats.strategy == "index-exact"
        codes = [warning.code for warning in result.warnings]
        assert INDEX_MISSING in codes and INDEX_REBUILT in codes

    def test_missing_index_without_source_raises_even_degraded(
        self, tmp_path, corpus_schema
    ):
        with pytest.raises(IndexNotFoundError):
            FileQueryEngine.from_saved(
                corpus_schema,
                str(tmp_path / "nowhere"),
                policy=DegradationPolicy.degrade(),
            )
