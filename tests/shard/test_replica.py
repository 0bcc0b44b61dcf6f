"""Replicated persistence and breaker-aware read routing
(`shard/replica.py`, the ``replicas=`` persist layout, and the sharded
engine's failover surface)."""

from __future__ import annotations

import json
import shutil

import pytest

from repro.core.engine import FileQueryEngine
from repro.errors import IndexCorruptError, IndexNotFoundError
from repro.index.persist import (
    applied_seq,
    corpus_fingerprint,
    load_live_state,
    load_manifest,
    load_replica_manifest,
    replica_dir_name,
    save_replica_manifest,
)
from repro.live import LiveEngine
from repro.resilience import DegradationPolicy
from repro.resilience.breaker import BreakerConfig
from repro.shard import ReplicaSet, ShardedEngine, scrub_index
from repro.shard.manifest import load_shard_manifest
from repro.shard.scrub import MANIFEST_DAMAGED, MANIFEST_REWRITTEN
from repro.shard.split import split_corpus
from repro.workloads.bibtex import generate_bibtex


@pytest.fixture
def replicated_dir(tmp_path, schema, corpus_text):
    """A single index saved in the replicated layout (2 copies)."""
    directory = tmp_path / "ridx"
    FileQueryEngine(schema, corpus_text).save(str(directory), replicas=2)
    return directory


def corrupt_copy(replica_dir) -> None:
    """Flip bytes inside one replica's config so its checksum fails."""
    target = replica_dir / "config.json"
    data = bytearray(target.read_bytes())
    data[20:24] = b"XXXX"
    target.write_bytes(bytes(data))


# -- persist layout -----------------------------------------------------------


class TestReplicatedLayout:
    def test_save_with_replicas_writes_sibling_copies(
        self, replicated_dir, corpus_text
    ) -> None:
        names = [d.name for d in ReplicaSet.open(replicated_dir).copies]
        assert names == [replica_dir_name(0), replica_dir_name(1)]
        manifest = load_replica_manifest(replicated_dir)
        assert manifest["corpus_fingerprint"] == corpus_fingerprint(corpus_text)
        assert [e["directory"] for e in manifest["replicas"]] == names

    def test_each_replica_is_a_complete_loadable_index(
        self, replicated_dir, schema, corpus_text, query_text, reference_rows
    ) -> None:
        for directory in ReplicaSet.open(replicated_dir).copies:
            engine = FileQueryEngine.from_saved(schema, str(directory))
            assert engine.query(query_text).canonical_rows() == reference_rows

    def test_from_saved_on_replicated_dir_routes_through_a_replica(
        self, replicated_dir, schema, query_text, reference_rows
    ) -> None:
        engine = FileQueryEngine.from_saved(schema, str(replicated_dir))
        assert engine.query(query_text).canonical_rows() == reference_rows

    def test_manifest_helpers_see_through_the_replicated_layout(
        self, replicated_dir, corpus_text
    ) -> None:
        manifest = load_manifest(replicated_dir)
        assert manifest is not None
        assert manifest["corpus_fingerprint"] == corpus_fingerprint(corpus_text)
        assert applied_seq(replicated_dir) == 0
        assert load_live_state(replicated_dir) is None

    def test_plain_dir_has_no_replica_manifest(
        self, tmp_path, schema, corpus_text
    ) -> None:
        directory = tmp_path / "plain"
        FileQueryEngine(schema, corpus_text).save(str(directory))
        assert load_replica_manifest(directory) is None
        plain = ReplicaSet.open(directory)
        assert not plain.replicated
        assert plain.copies == [directory]

    def test_damaged_replica_manifest_degrades_not_fails(
        self, replicated_dir
    ) -> None:
        (replicated_dir / "manifest.json").write_text("{ not json")
        manifest = load_replica_manifest(replicated_dir)
        assert manifest is not None
        assert manifest["manifest_damaged"] is True
        assert manifest["corpus_fingerprint"] is None
        assert len(manifest["replicas"]) == 2


# -- read routing -------------------------------------------------------------


class TestReplicaSetRouting:
    def loader(self, schema, query_text):
        def load(directory: str):
            # Strict, like the sharded engine's first pass: a damaged copy
            # must raise (and fail over), not degrade to a full scan.
            return (
                FileQueryEngine.from_saved(
                    schema, directory, policy=DegradationPolicy.strict()
                )
                .query(query_text)
                .canonical_rows()
            )

        return load

    def test_routes_to_first_replica_when_healthy(
        self, replicated_dir, schema, query_text, reference_rows
    ) -> None:
        replicas = ReplicaSet.open(replicated_dir)
        load = replicas.load(self.loader(schema, query_text))
        assert load.value == reference_rows
        assert load.replica_index == 0
        assert not load.warnings

    def test_fails_over_past_a_corrupt_copy_with_warning(
        self, replicated_dir, schema, query_text, reference_rows
    ) -> None:
        corrupt_copy(replicated_dir / replica_dir_name(0))
        replicas = ReplicaSet.open(replicated_dir)
        load = replicas.load(self.loader(schema, query_text))
        assert load.value == reference_rows
        assert load.replica_index == 1
        assert [w.code for w in load.warnings] == ["replica-failover"]

    def test_all_replicas_corrupt_raises_the_last_error(
        self, replicated_dir, schema, query_text
    ) -> None:
        for directory in ReplicaSet.open(replicated_dir).copies:
            corrupt_copy(directory)
        replicas = ReplicaSet.open(replicated_dir)
        with pytest.raises(IndexCorruptError):
            replicas.load(self.loader(schema, query_text))

    def test_breaker_opens_after_repeated_failures_and_skips_upfront(
        self, replicated_dir, schema, query_text
    ) -> None:
        corrupt_copy(replicated_dir / replica_dir_name(0))
        replicas = ReplicaSet.open(
            replicated_dir,
            breaker_config=BreakerConfig(failure_threshold=2, reset_timeout_s=60.0),
        )
        load = self.loader(schema, query_text)
        replicas.load(load)
        replicas.load(load)  # second failure trips the breaker
        third = replicas.load(load)
        skip = [e for e in third.events if not e.ok]
        assert skip and skip[0].reason == "breaker-open"

    def test_diverged_replica_is_skipped_without_tripping_its_breaker(
        self, replicated_dir, schema, corpus_text, query_text, reference_rows
    ) -> None:
        # Rewrite replica-0 with *different* (self-consistent) content.
        other = corpus_text + "\n"
        target = replicated_dir / replica_dir_name(0)
        shutil.rmtree(target)
        FileQueryEngine(schema, other).save(str(target))
        replicas = ReplicaSet.open(replicated_dir)
        load = replicas.load(self.loader(schema, query_text))
        assert load.value == reference_rows
        assert load.replica_index == 1
        health = replicas.health()
        assert health["detail"][0]["status"] == "suspect"
        assert health["detail"][0]["breaker"] == "closed"

    def test_record_repaired_resets_health_and_breaker(
        self, replicated_dir, schema, query_text
    ) -> None:
        corrupt_copy(replicated_dir / replica_dir_name(0))
        replicas = ReplicaSet.open(
            replicated_dir,
            breaker_config=BreakerConfig(failure_threshold=1, reset_timeout_s=60.0),
        )
        replicas.load(self.loader(schema, query_text))
        assert replicas.health()["detail"][0]["status"] == "suspect"
        replicas.record_repaired(0)
        health = replicas.health()
        assert health["detail"][0]["status"] == "healthy"
        assert health["detail"][0]["breaker"] == "closed"


# -- sharded engine integration -----------------------------------------------


class TestShardedReplication:
    def test_one_replica_of_every_shard_corrupt_is_byte_identical(
        self, tmp_path, schema, corpus_text, query_text, reference_rows
    ) -> None:
        directory = tmp_path / "sidx"
        ShardedEngine.split(schema, corpus_text, 4).save(directory, replicas=2)
        manifest = load_shard_manifest(directory)
        for entry in manifest.shards:
            corrupt_copy(directory / entry.directory / replica_dir_name(0))
        engine = ShardedEngine.from_saved(schema, directory)
        result = engine.query(query_text)
        assert result.canonical_rows() == reference_rows
        codes = {w.code for w in result.warnings}
        assert "replica-failover" in codes
        assert "partial-result" not in codes

    def test_replica_health_surface(self, tmp_path, schema, corpus_text) -> None:
        directory = tmp_path / "sidx"
        ShardedEngine.split(schema, corpus_text, 3).save(directory, replicas=2)
        engine = ShardedEngine.from_saved(schema, directory)
        health = engine.replica_health()
        assert len(health) == 3
        for shard in health:
            assert shard["replicas"] == 2
            assert shard["healthy"] == 2
            assert [d["replica"] for d in shard["detail"]] == [
                replica_dir_name(0),
                replica_dir_name(1),
            ]
        assert engine.stats().backend["replica_health"] == health

    def test_unreplicated_index_reports_empty_health(
        self, saved_sharded, schema
    ) -> None:
        engine = ShardedEngine.from_saved(schema, saved_sharded)
        assert engine.replica_health() == []

    def test_split_corpus_chunks_save_replicated(
        self, tmp_path, schema, corpus_text, query_text, reference_rows
    ) -> None:
        texts = split_corpus(schema, corpus_text, 3)
        engine = ShardedEngine.from_texts(schema, texts)
        directory = tmp_path / "sidx"
        engine.save(directory, replicas=3)
        for entry in load_shard_manifest(directory).shards:
            shard_dir = directory / entry.directory
            manifest = load_replica_manifest(shard_dir)
            assert manifest is not None
            assert len(manifest["replicas"]) == 3
            assert manifest["corpus_fingerprint"] == entry.corpus_fingerprint
        reopened = ShardedEngine.from_saved(schema, directory)
        assert reopened.query(query_text).canonical_rows() == reference_rows


# -- interrupted-commit recovery ---------------------------------------------


class TestInterruptedCommit:
    def test_agreed_divergence_promotes_the_new_fingerprint(
        self, replicated_dir, schema, corpus_text, query_text
    ) -> None:
        """Every replica was rewritten (and agrees) but the crash landed
        before the shard manifest rewrite: ReplicaSet must treat the copies
        as the committed state once the manifest is re-pointed, which is
        the scrubber's finish-the-commit path — here we check the raw
        divergence detection that drives it."""
        other = corpus_text + "\n"
        for name in (replica_dir_name(0), replica_dir_name(1)):
            target = replicated_dir / name
            shutil.rmtree(target)
            FileQueryEngine(schema, other).save(str(target))
        replicas = ReplicaSet.open(replicated_dir)
        with pytest.raises(IndexNotFoundError):
            # Every copy diverges: all are skipped (fingerprint-mismatch),
            # none errored, so "no replica could be routed to".
            replicas.load(
                lambda d: FileQueryEngine.from_saved(schema, d).query(query_text)
            )
        # Finishing the commit re-points the manifest; routing resumes.
        save_replica_manifest(
            replicated_dir,
            corpus_fingerprint(other),
            [replica_dir_name(0), replica_dir_name(1)],
        )
        replicas = ReplicaSet.open(replicated_dir)
        load = replicas.load(
            lambda d: FileQueryEngine.from_saved(schema, d).query(query_text)
        )
        assert load.replica_index == 0


def test_live_open_and_scrub_finish_an_interrupted_fold_alike(
    tmp_path, schema, corpus_text
) -> None:
    """Every copy of the tail shard folded, its set manifest one fold
    behind: live recovery and scrub repair apply the same reconcile rule,
    so both leave the same set manifest."""
    directory = tmp_path / "lidx"
    ShardedEngine.split(schema, corpus_text, 2).save(directory, replicas=2)
    extra = generate_bibtex(entries=3, seed=99)
    records = [
        extra[child.start : child.end] + "\n\n"
        for child in schema.parse(extra).children
    ]

    def crash(point: str) -> None:
        if point == f"compact:replica-saved:{replica_dir_name(1)}":
            raise RuntimeError(point)

    live = LiveEngine.open(schema, directory, crash_hook=crash)
    try:
        for record in records:
            live.append(record)
        with pytest.raises(RuntimeError):
            live.compact()
    finally:
        live.close()
    tail = load_shard_manifest(directory).shards[-1].directory
    behind = load_manifest(directory / tail)["corpus_fingerprint"]
    folded = {
        load_manifest(copy)["corpus_fingerprint"]
        for copy in ReplicaSet.open(directory / tail).copies
    }
    assert len(folded) == 1 and behind not in folded

    twin = tmp_path / "twin"
    shutil.copytree(directory, twin)
    LiveEngine.open(schema, directory).close()
    scrub_index(schema, twin, repair=True)
    reconciled = load_manifest(directory / tail)
    assert reconciled == load_manifest(twin / tail)
    assert reconciled["corpus_fingerprint"] in folded
    assert reconciled["live"] == {"applied_seq": len(records)}


# -- one rule for the replica count ---------------------------------------------


class TestReplicaCount:
    def test_save_refuses_fewer_than_two_copies(
        self, tmp_path, schema, corpus_text
    ) -> None:
        engine = FileQueryEngine(schema, corpus_text)
        for replicas in (0, 1):
            with pytest.raises(ValueError, match="at least 2 copies"):
                engine.save(str(tmp_path / "idx"), replicas=replicas)
        assert not (tmp_path / "idx").exists()

    def test_a_one_copy_layout_already_on_disk_still_loads(
        self, replicated_dir, schema, query_text, reference_rows
    ) -> None:
        fingerprint = load_replica_manifest(replicated_dir)["corpus_fingerprint"]
        shutil.rmtree(replicated_dir / replica_dir_name(1))
        save_replica_manifest(replicated_dir, fingerprint, [replica_dir_name(0)])
        copies = ReplicaSet.open(replicated_dir)
        assert copies.replicated and len(copies) == 1
        engine = FileQueryEngine.from_saved(schema, str(replicated_dir))
        assert engine.query(query_text).canonical_rows() == reference_rows


# -- a malformed replica map is a damaged manifest ------------------------------

#: Every probe asks for all 40 references.
PROBE_TEXT = generate_bibtex(entries=40, seed=1)
EVERY_REFERENCE = "SELECT r FROM Reference r"


def break_replica_map(shard_dir) -> None:
    """Leave a replicated manifest readable but its replica map malformed."""
    path = shard_dir / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["replicas"] = "replica-0,replica-1"
    path.write_text(json.dumps(manifest), encoding="utf-8")


class TestMalformedReplicaMap:
    @pytest.fixture
    def damaged(self, tmp_path, schema):
        """A 3-shard, 2-replica index whose first shard's map is malformed."""
        directory = tmp_path / "sidx"
        ShardedEngine.split(schema, PROBE_TEXT, 3).save(directory, replicas=2)
        shard_dir = directory / load_shard_manifest(directory).shards[0].directory
        break_replica_map(shard_dir)
        return directory, shard_dir

    def test_the_set_is_rebuilt_from_the_listing(self, damaged) -> None:
        _, shard_dir = damaged
        copies = ReplicaSet.open(shard_dir)
        assert copies.replicated and copies.manifest_damaged
        assert [copy.name for copy in copies.copies] == [
            replica_dir_name(0),
            replica_dir_name(1),
        ]

    def test_solo_serves_every_row(self, tmp_path, schema) -> None:
        directory = tmp_path / "ridx"
        FileQueryEngine(schema, PROBE_TEXT).save(str(directory), replicas=2)
        break_replica_map(directory)
        engine = FileQueryEngine.from_saved(schema, str(directory))
        assert len(engine.query(EVERY_REFERENCE)) == 40

    def test_sharded_serves_every_row_without_partial_result(
        self, damaged, schema
    ) -> None:
        directory, _ = damaged
        result = ShardedEngine.from_saved(schema, directory).query(EVERY_REFERENCE)
        assert len(result) == 40
        assert "partial-result" not in {w.code for w in result.warnings}

    def test_scrub_reports_it_and_repair_rewrites_the_manifest(
        self, damaged, schema
    ) -> None:
        directory, shard_dir = damaged
        report = scrub_index(schema, directory)
        assert [f.kind for f in report.findings] == [MANIFEST_DAMAGED]
        repaired = scrub_index(schema, directory, repair=True)
        assert [r.action for r in repaired.repairs] == [MANIFEST_REWRITTEN]
        assert load_replica_manifest(shard_dir)["replicas"] == [
            {"directory": replica_dir_name(0)},
            {"directory": replica_dir_name(1)},
        ]
        assert scrub_index(schema, directory).clean

    def test_live_open_succeeds(self, damaged, schema) -> None:
        directory, _ = damaged
        live = LiveEngine.open(schema, directory)
        try:
            assert len(live.query(EVERY_REFERENCE)) == 40
        finally:
            live.close()
