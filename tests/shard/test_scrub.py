"""The background scrubber (`shard/scrub.py`): verification findings,
quarantine-never-delete, anti-entropy repair, and the server-owned daemon."""

from __future__ import annotations

import shutil

import pytest

from repro.core.engine import FileQueryEngine
from repro.index.persist import (
    QUARANTINE_PREFIX,
    corpus_fingerprint,
    replica_dir_name,
)
from repro.shard import ScrubDaemon, ShardedEngine, scrub_index
from repro.shard.manifest import load_shard_manifest
from repro.shard.scrub import (
    COPIED_FROM_PEER,
    CORRUPT,
    MANIFEST_REWRITTEN,
    MISSING,
    QUARANTINE_ACTION,
    REBUILT_FROM_SOURCE,
    UNREPAIRABLE,
)


@pytest.fixture
def replicated_index(tmp_path, schema, corpus_text):
    """A 3-shard index with 2 replicas per shard."""
    directory = tmp_path / "sidx"
    ShardedEngine.split(schema, corpus_text, 3).save(directory, replicas=2)
    return directory


def shard_dirs(directory):
    return [
        directory / entry.directory
        for entry in load_shard_manifest(directory).shards
    ]


def corrupt_copy(replica_dir) -> None:
    target = replica_dir / "config.json"
    data = bytearray(target.read_bytes())
    data[20:24] = b"XXXX"
    target.write_bytes(bytes(data))


def quarantines(shard_dir):
    return sorted(d.name for d in shard_dir.glob(f"{QUARANTINE_PREFIX}*"))


class TestVerification:
    def test_clean_index_scrubs_clean(self, schema, replicated_index) -> None:
        report = scrub_index(schema, replicated_index)
        assert report.clean
        assert report.shards_checked == 3
        assert report.replicas_checked == 6

    def test_detects_corruption_without_touching_disk(
        self, schema, replicated_index
    ) -> None:
        first = shard_dirs(replicated_index)[0]
        corrupt_copy(first / replica_dir_name(0))
        report = scrub_index(schema, replicated_index)  # no repair
        assert [f.kind for f in report.findings] == [CORRUPT]
        assert report.findings[0].replica == replica_dir_name(0)
        assert not report.repairs
        assert not quarantines(first)

    def test_detects_a_missing_replica(self, schema, replicated_index) -> None:
        first = shard_dirs(replicated_index)[0]
        shutil.rmtree(first / replica_dir_name(1))
        report = scrub_index(schema, replicated_index)
        assert [f.kind for f in report.findings] == [MISSING]

    def test_plain_unreplicated_shards_are_verified_in_place(
        self, schema, saved_sharded
    ) -> None:
        report = scrub_index(schema, saved_sharded)
        assert report.clean
        assert report.replicas_checked == report.shards_checked


class TestRepair:
    def test_repair_quarantines_then_copies_from_verified_peer(
        self, schema, replicated_index, query_text, reference_rows
    ) -> None:
        first = shard_dirs(replicated_index)[0]
        corrupt_copy(first / replica_dir_name(0))
        report = scrub_index(schema, replicated_index, repair=True)
        actions = [r.action for r in report.repairs]
        assert actions == [QUARANTINE_ACTION, COPIED_FROM_PEER]
        assert quarantines(first)  # damaged copy preserved, never deleted
        assert {w.code for w in report.warnings} == {
            "replica-quarantined",
            "replica-repaired",
        }
        # Second pass: fully healed.
        assert scrub_index(schema, replicated_index).clean
        engine = ShardedEngine.from_saved(schema, replicated_index)
        assert engine.query(query_text).canonical_rows() == reference_rows

    def test_repair_all_shards_one_replica_each(
        self, schema, replicated_index
    ) -> None:
        for shard_dir in shard_dirs(replicated_index):
            corrupt_copy(shard_dir / replica_dir_name(1))
        report = scrub_index(schema, replicated_index, repair=True)
        assert len([r for r in report.repairs if r.action == COPIED_FROM_PEER]) == 3
        assert scrub_index(schema, replicated_index).clean

    def test_unrepairable_damage_is_left_in_place(
        self, schema, replicated_index
    ) -> None:
        """Every replica corrupt and no source file: the scrub must not
        quarantine the last copies into oblivion."""
        first = shard_dirs(replicated_index)[0]
        for name in (replica_dir_name(0), replica_dir_name(1)):
            corrupt_copy(first / name)
        report = scrub_index(schema, replicated_index, repair=True)
        actions = {r.action for r in report.repairs}
        assert actions == {UNREPAIRABLE}
        assert not quarantines(first)
        assert (first / replica_dir_name(0)).is_dir()
        assert (first / replica_dir_name(1)).is_dir()

    def test_rebuild_from_source_when_no_peer_survives(
        self, tmp_path, schema, corpus_text
    ) -> None:
        source = tmp_path / "refs.bib"
        source.write_text(corpus_text, encoding="utf-8")
        directory = tmp_path / "sidx"
        ShardedEngine.from_paths(schema, [str(source)]).save(directory, replicas=2)
        first = shard_dirs(directory)[0]
        for name in (replica_dir_name(0), replica_dir_name(1)):
            corrupt_copy(first / name)
        report = scrub_index(schema, directory, repair=True)
        actions = [r.action for r in report.repairs]
        assert actions.count(REBUILT_FROM_SOURCE) == 2
        assert len(quarantines(first)) == 2
        assert scrub_index(schema, directory).clean

    def test_changed_source_never_rebuilds_wrong_answers(
        self, tmp_path, schema, corpus_text
    ) -> None:
        source = tmp_path / "refs.bib"
        source.write_text(corpus_text, encoding="utf-8")
        directory = tmp_path / "sidx"
        ShardedEngine.from_paths(schema, [str(source)]).save(directory, replicas=2)
        source.write_text(corpus_text + "\n% drifted", encoding="utf-8")
        first = shard_dirs(directory)[0]
        for name in (replica_dir_name(0), replica_dir_name(1)):
            corrupt_copy(first / name)
        report = scrub_index(schema, directory, repair=True)
        assert {r.action for r in report.repairs} == {UNREPAIRABLE}
        assert "no longer matches the committed fingerprint" in (
            report.repairs[0].detail
        )

    def test_agreed_divergence_finishes_the_interrupted_commit(
        self, schema, replicated_index, corpus_text
    ) -> None:
        """All replicas of a shard agree on a *new* fingerprint that the
        shard manifest never committed (crash between replica folds and the
        manifest rewrite): the scrub promotes the agreed state instead of
        quarantining every copy."""
        first = shard_dirs(replicated_index)[0]
        drifted = corpus_text + "\n"
        for name in (replica_dir_name(0), replica_dir_name(1)):
            target = first / name
            shutil.rmtree(target)
            FileQueryEngine(schema, drifted).save(str(target))
        report = scrub_index(schema, replicated_index, repair=True)
        promoted = [r for r in report.repairs if r.action == MANIFEST_REWRITTEN]
        assert len(promoted) == 1
        assert not quarantines(first)
        from repro.index.persist import load_replica_manifest

        manifest = load_replica_manifest(first)
        assert manifest["corpus_fingerprint"] == corpus_fingerprint(drifted)
        assert scrub_index(schema, replicated_index).clean


class TestScrubDaemon:
    def test_run_once_records_report(self, schema, replicated_index) -> None:
        daemon = ScrubDaemon(
            lambda: scrub_index(schema, replicated_index, repair=True),
            interval_s=3600.0,
        )
        report = daemon.run_once()
        assert report is not None and report.clean
        snapshot = daemon.snapshot()
        assert snapshot["runs"] == 1
        assert snapshot["last_clean"] is True
        assert snapshot["last_findings"] == 0
        assert snapshot["last_error"] is None

    def test_runner_exceptions_are_contained(self) -> None:
        def boom():
            raise RuntimeError("disk on fire")

        daemon = ScrubDaemon(boom, interval_s=3600.0)
        assert daemon.run_once() is None
        snapshot = daemon.snapshot()
        assert snapshot["runs"] == 1
        assert "disk on fire" in snapshot["last_error"]

    def test_start_stop_is_idempotent(self, schema, replicated_index) -> None:
        daemon = ScrubDaemon(
            lambda: scrub_index(schema, replicated_index), interval_s=3600.0
        )
        daemon.start()
        daemon.start()
        daemon.stop()
        daemon.stop()

    def test_rejects_nonpositive_interval(self) -> None:
        with pytest.raises(ValueError):
            ScrubDaemon(lambda: None, interval_s=0)

    @pytest.mark.parametrize("interval", [float("nan"), float("inf")])
    def test_rejects_a_nonfinite_interval(self, interval) -> None:
        # NaN passed the old `<= 0` check, and _delay() turned NaN (or
        # inf plus inf-wide jitter) into 0.0: a back-to-back scrub loop.
        with pytest.raises(ValueError, match="finite"):
            ScrubDaemon(lambda: None, interval_s=interval)

    def test_repairs_heal_between_runs(self, schema, replicated_index) -> None:
        daemon = ScrubDaemon(
            lambda: scrub_index(schema, replicated_index, repair=True),
            interval_s=3600.0,
        )
        corrupt_copy(shard_dirs(replicated_index)[0] / replica_dir_name(0))
        first = daemon.run_once()
        assert not first.clean and first.repairs
        second = daemon.run_once()
        assert second.clean
        assert daemon.snapshot()["runs"] == 2
