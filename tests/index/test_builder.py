"""Index construction from parse trees."""

import pytest

from repro.errors import IndexConfigError
from repro.index.builder import build_engine, build_instance, collect_spans
from repro.index.config import IndexConfig
from repro.workloads.bibtex import bibtex_schema, generate_bibtex

TEXT = generate_bibtex(entries=5, seed=2)
SCHEMA = bibtex_schema()
TREE = SCHEMA.parse(TEXT)
ROOT = SCHEMA.grammar.start


class TestCollectSpans:
    def test_every_nonterminal_collected(self):
        spans = collect_spans(TREE)
        assert len(spans["Reference"]) == 5
        assert "Last_Name" in spans
        assert ROOT in spans  # the root span is collected, filtering is later

    def test_spans_are_real_text(self):
        spans = collect_spans(TREE)
        for start, end in spans["Key"]:
            assert TEXT[start:end].strip()


class TestBuildInstance:
    def test_full_excludes_root(self):
        instance = build_instance(TREE, IndexConfig.full(), ROOT)
        assert ROOT not in instance
        assert "Reference" in instance

    def test_partial_only_requested(self):
        config = IndexConfig.partial({"Reference", "Key"})
        instance = build_instance(TREE, config, ROOT)
        assert set(instance.names) == {"Reference", "Key"}

    def test_unknown_partial_name_rejected(self):
        config = IndexConfig.partial({"Bogus"})
        with pytest.raises(IndexConfigError):
            build_instance(TREE, config, ROOT)

    def test_scoped_index(self):
        config = IndexConfig.partial({"Reference"}).with_scoped(
            "Last_Name", "Authors"
        )
        instance = build_instance(TREE, config, ROOT)
        scoped = instance.get("Last_Name@Authors")
        full_instance = build_instance(TREE, IndexConfig.full(), ROOT)
        all_last_names = full_instance.get("Last_Name")
        authors = full_instance.get("Authors")
        assert 0 < len(scoped) < len(all_last_names)
        for region in scoped:
            assert authors.any_including(region)

    def test_scoped_index_custom_name(self):
        config = IndexConfig.partial({"Reference"}).with_scoped(
            "Last_Name", "Authors", name="AuthorSurnames"
        )
        instance = build_instance(TREE, config, ROOT)
        assert "AuthorSurnames" in instance


class TestBuildEngine:
    def test_word_index_built_by_default(self):
        engine = build_engine(TEXT, TREE, root=ROOT)
        assert engine.word_index is not None
        assert engine.word_index.posting_count > 0

    def test_word_index_disabled(self):
        engine = build_engine(TEXT, TREE, IndexConfig.full(word_index=False), root=ROOT)
        assert engine.word_index is None

    def test_word_scope(self):
        config = IndexConfig.full(word_scope="Authors")
        engine = build_engine(TEXT, TREE, config, root=ROOT)
        unscoped = build_engine(TEXT, TREE, root=ROOT)
        assert engine.word_index.posting_count < unscoped.word_index.posting_count

    def test_statistics(self):
        engine = build_engine(TEXT, TREE, root=ROOT)
        stats = engine.statistics()
        assert stats.text_bytes == len(TEXT)
        assert stats.total_region_entries > 0
        assert stats.word_postings > 0
        assert stats.estimated_bytes > 0
        assert "region entries" in stats.summary()

    def test_partial_index_is_smaller(self):
        full = build_engine(TEXT, TREE, root=ROOT).statistics()
        partial = build_engine(
            TEXT, TREE, IndexConfig.partial({"Reference", "Last_Name"}), root=ROOT
        ).statistics()
        assert partial.total_region_entries < full.total_region_entries
        assert partial.estimated_bytes < full.estimated_bytes
