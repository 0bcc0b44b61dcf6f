"""Index persistence."""

import pytest

from repro.core.engine import FileQueryEngine
from repro.errors import RegionIndexError
from repro.index.config import IndexConfig
from repro.index.persist import (
    load_index,
    load_schema_fingerprint,
    save_index,
    schema_fingerprint,
)
from repro.workloads.bibtex import CHANG_AUTHOR_QUERY, bibtex_schema, generate_bibtex
from repro.workloads.logs import log_schema


@pytest.fixture(scope="module")
def built_engine():
    return FileQueryEngine(
        bibtex_schema(), generate_bibtex(entries=15, seed=8)
    )


class TestRoundtrip:
    def test_save_and_load_index(self, built_engine, tmp_path):
        save_index(built_engine.index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        assert loaded.text == built_engine.index.text
        assert set(loaded.instance.names) == set(built_engine.index.instance.names)
        for name in loaded.instance.names:
            assert loaded.instance.get(name) == built_engine.index.instance.get(name)

    def test_word_index_rebuilt(self, built_engine, tmp_path):
        save_index(built_engine.index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        assert loaded.word_index is not None
        assert (
            loaded.word_index.posting_count
            == built_engine.index.word_index.posting_count
        )

    def test_engine_from_saved_answers_identically(self, built_engine, tmp_path):
        built_engine.save(str(tmp_path / "idx"))
        restored = FileQueryEngine.from_saved(bibtex_schema(), str(tmp_path / "idx"))
        original = built_engine.query(CHANG_AUTHOR_QUERY)
        reloaded = restored.query(CHANG_AUTHOR_QUERY)
        assert original.canonical_rows() == reloaded.canonical_rows()
        assert original.stats.strategy == reloaded.stats.strategy

    def test_partial_config_survives(self, tmp_path):
        config = IndexConfig.partial({"Reference", "Key"}).with_scoped(
            "Last_Name", "Authors"
        )
        engine = FileQueryEngine(
            bibtex_schema(), generate_bibtex(entries=5, seed=1), config
        )
        engine.save(str(tmp_path / "idx"))
        restored = FileQueryEngine.from_saved(bibtex_schema(), str(tmp_path / "idx"))
        assert restored.config.region_names == frozenset({"Reference", "Key"})
        assert restored.config.scoped[0].name == "Last_Name@Authors"
        assert "Last_Name@Authors" in restored.index.instance.names

    def test_word_scope_survives(self, tmp_path):
        config = IndexConfig.full(word_scope="Authors")
        engine = FileQueryEngine(
            bibtex_schema(), generate_bibtex(entries=5, seed=1), config
        )
        engine.save(str(tmp_path / "idx"))
        restored = load_index(tmp_path / "idx")
        assert (
            restored.word_index.posting_count
            == engine.index.word_index.posting_count
        )


class TestBuildEqualsLoad:
    """A built engine and its saved-then-loaded copy hold the same regions
    and the same postings, name by name and word by word."""

    @pytest.mark.parametrize(
        "config",
        [
            IndexConfig.full(),
            IndexConfig.full(lowercase_words=True),
            IndexConfig.partial({"Reference", "Authors"}, word_scope="Authors"),
            IndexConfig.partial({"Reference", "Key"}).with_scoped("Last_Name", "Authors"),
        ],
        ids=["full", "lowercase", "word-scope", "scoped-region"],
    )
    def test_regions_and_postings(self, tmp_path, config):
        built = FileQueryEngine(bibtex_schema(), generate_bibtex(entries=12, seed=5), config)
        built.save(str(tmp_path / "idx"))
        loaded = load_index(tmp_path / "idx")
        assert loaded.instance.names == built.index.instance.names
        for name in built.index.instance.names:
            assert loaded.instance.get(name).regions == built.index.instance.get(name).regions
        words, loaded_words = built.index.word_index, loaded.word_index
        assert loaded_words.vocabulary == words.vocabulary
        assert loaded_words.posting_count == words.posting_count
        for word in words.vocabulary:
            assert loaded_words.occurrences(word).regions == words.occurrences(word).regions


class TestSchemaFingerprint:
    def test_fingerprint_round_trips(self, built_engine, tmp_path):
        built_engine.save(str(tmp_path / "idx"))
        saved = load_schema_fingerprint(tmp_path / "idx")
        assert saved == schema_fingerprint(bibtex_schema())
        restored = FileQueryEngine.from_saved(bibtex_schema(), str(tmp_path / "idx"))
        assert restored.query(CHANG_AUTHOR_QUERY).canonical_rows() == (
            built_engine.query(CHANG_AUTHOR_QUERY).canonical_rows()
        )

    def test_mismatched_schema_rejected(self, built_engine, tmp_path):
        built_engine.save(str(tmp_path / "idx"))
        with pytest.raises(RegionIndexError, match="different structuring schema"):
            FileQueryEngine.from_saved(log_schema(), str(tmp_path / "idx"))

    def test_legacy_save_without_fingerprint_loads(self, built_engine, tmp_path):
        # Directories written before fingerprints existed carry no key:
        # they load without a check rather than failing.
        save_index(built_engine.index, tmp_path / "idx")
        assert load_schema_fingerprint(tmp_path / "idx") is None
        restored = FileQueryEngine.from_saved(log_schema(), str(tmp_path / "idx"))
        assert restored.index.text == built_engine.index.text

    def test_fingerprint_is_stable_and_schema_sensitive(self):
        assert schema_fingerprint(bibtex_schema()) == schema_fingerprint(bibtex_schema())
        assert schema_fingerprint(bibtex_schema()) != schema_fingerprint(log_schema())


class TestErrors:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(RegionIndexError):
            load_index(tmp_path / "nope")

    def test_version_check(self, built_engine, tmp_path):
        import json

        save_index(built_engine.index, tmp_path / "idx")
        config_path = tmp_path / "idx" / "config.json"
        data = json.loads(config_path.read_text())
        data["version"] = 99
        config_path.write_text(json.dumps(data))
        with pytest.raises(RegionIndexError):
            load_index(tmp_path / "idx")


class TestStagingSweep:
    def test_orphaned_staging_dirs_are_swept_on_save(self, built_engine, tmp_path):
        from repro.index.persist import sweep_stale_staging

        target = tmp_path / "idx"
        save_index(built_engine.index, target)
        # A crashed save leaves a staging sibling; a crashed swap leaves a
        # retired one.  Both are garbage once the target is in place.
        staging = tmp_path / f".{target.name}.saving-12345"
        retired = tmp_path / f".{target.name}.retired-12345"
        for orphan in (staging, retired):
            orphan.mkdir()
            (orphan / "corpus.txt").write_text("half-written", encoding="utf-8")
        save_index(built_engine.index, target)
        assert not staging.exists()
        assert not retired.exists()
        assert sweep_stale_staging(target) == []

    def test_sweep_reports_what_it_removed(self, built_engine, tmp_path):
        from repro.index.persist import sweep_stale_staging

        target = tmp_path / "idx"
        save_index(built_engine.index, target)
        orphan = tmp_path / f".{target.name}.saving-999"
        orphan.mkdir()
        removed = sweep_stale_staging(target)
        assert removed == [str(orphan)]

    def test_from_saved_warns_about_swept_staging(self, built_engine, tmp_path):
        target = tmp_path / "idx"
        built_engine.save(str(target))
        orphan = tmp_path / f".{target.name}.saving-42"
        orphan.mkdir()
        restored = FileQueryEngine.from_saved(bibtex_schema(), str(target))
        result = restored.query(CHANG_AUTHOR_QUERY)
        codes = [warning.code for warning in result.warnings]
        assert codes == ["stale-staging-removed"]
        assert not orphan.exists()
        # The warning is a load-time fact; it repeats on every query of
        # this engine but not after a clean reopen.
        fresh = FileQueryEngine.from_saved(bibtex_schema(), str(target))
        assert fresh.query(CHANG_AUTHOR_QUERY).warnings == []


class TestLiveManifest:
    def test_live_checkpoint_rides_the_manifest(self, built_engine, tmp_path):
        from repro.index.persist import applied_seq, load_live_state, verify_index

        target = tmp_path / "idx"
        save_index(built_engine.index, target, live={"applied_seq": 17})
        assert load_live_state(target) == {"applied_seq": 17}
        assert applied_seq(target) == 17
        # v3 manifests still checksum-verify and reload.
        assert verify_index(target) is not None
        assert load_index(target).text == built_engine.index.text

    def test_plain_saves_use_the_packed_format(self, built_engine, tmp_path):
        import json

        from repro.index.persist import load_live_state, load_manifest

        target = tmp_path / "idx"
        save_index(built_engine.index, target)
        assert load_manifest(target)["format_version"] == 4
        config = json.loads((target / "config.json").read_text(encoding="utf-8"))
        assert config["version"] == 4
        assert load_live_state(target) is None
        assert sorted(path.name for path in target.iterdir()) == [
            "config.json", "corpus.txt", "manifest.json", "spans.bin"
        ]

    def test_live_saves_use_the_same_format(self, built_engine, tmp_path):
        from repro.index.persist import load_manifest

        target = tmp_path / "idx"
        save_index(built_engine.index, target, live={"applied_seq": 1})
        assert load_manifest(target)["format_version"] == 4
        assert not (target / "regions.json").exists()

    @pytest.mark.parametrize(
        "raw",
        ["NaN", "Infinity", "-Infinity", "1e400", "2.7", "2.0", "true", "false",
         "-1", '"3"', "null", "[1]"],
    )
    def test_damaged_applied_seq_is_corrupt(self, built_engine, tmp_path, raw):
        # A bool read as 1 made live replay skip frame 1; floats escaped as
        # untyped errors or were silently truncated.
        from repro.errors import IndexCorruptError
        from repro.index.persist import applied_seq

        target = tmp_path / "idx"
        save_index(built_engine.index, target, live={"applied_seq": 17})
        path = target / "manifest.json"
        text = path.read_text(encoding="utf-8")
        path.write_text(
            text.replace('"applied_seq": 17', f'"applied_seq": {raw}'), encoding="utf-8"
        )
        with pytest.raises(IndexCorruptError) as excinfo:
            applied_seq(target)
        assert excinfo.value.part == "manifest.json"

    def test_applied_seq_defaults_to_zero(self, built_engine, tmp_path):
        from repro.index.persist import applied_seq

        save_index(built_engine.index, tmp_path / "plain")
        save_index(built_engine.index, tmp_path / "live", live={})
        save_index(built_engine.index, tmp_path / "zero", live={"applied_seq": 0})
        assert [applied_seq(tmp_path / name) for name in ("plain", "live", "zero")] == [0, 0, 0]
