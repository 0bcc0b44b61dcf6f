"""Live ingestion over replicated shards: WAL fan-out, write quorum,
idempotent appends, union replay, and reconcile-at-open
(`live/engine.py` + `live/journal.py`)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.errors import DuplicateRequestError, JournalCorruptError, WriteQuorumError
from repro.index.persist import replica_dir_name
from repro.live import WAL_SUBDIR, LiveEngine, encode_frame, replay_journal
from repro.live.journal import JournalWriter
from repro.shard import ShardedEngine
from repro.shard.manifest import load_shard_manifest
from tests.chaos.faults import injected

from .conftest import QUERY, rebuild_rows


@pytest.fixture
def replicated_index(tmp_path, schema, corpus_text):
    directory = tmp_path / "live-ridx"
    ShardedEngine.split(schema, corpus_text, 3).save(directory, replicas=2)
    return directory


def open_live(schema, directory, **kwargs) -> LiveEngine:
    return LiveEngine.open(schema, directory, **kwargs)


def tail_wals(directory) -> list[Path]:
    """The tail shard's per-replica journal paths (sorted)."""
    manifest = load_shard_manifest(directory)
    base = Path(manifest.shards[-1].directory).name
    return sorted((directory / WAL_SUBDIR).glob(f"{base}.replica-*.wal"))


# -- journal request-id frames ------------------------------------------------


class TestRequestIdFrames:
    def test_roundtrip_with_and_without_request_id(self, tmp_path) -> None:
        wal = tmp_path / "x.wal"
        with JournalWriter(wal) as writer:
            writer.append(1, "plain")
            writer.append(2, "tagged", request_id="rid-é")
        frames = replay_journal(wal).frames
        assert [(f.seq, f.record, f.request_id) for f in frames] == [
            (1, "plain", None),
            (2, "tagged", "rid-é"),
        ]

    def test_seq_colliding_with_flag_bit_is_rejected(self) -> None:
        with pytest.raises(ValueError):
            encode_frame(1 << 63, "r")

    def test_oversized_request_id_is_rejected(self) -> None:
        with pytest.raises(ValueError):
            encode_frame(1, "r", request_id="x" * 70_000)

    def test_truncated_rid_length_prefix_is_corruption(self, tmp_path) -> None:
        wal = tmp_path / "x.wal"
        frame = encode_frame(1, "rec", request_id="abcdef")
        # Rewrite the frame claiming a rid longer than the payload holds.
        import struct as _struct
        import zlib as _zlib

        payload = bytearray(frame[8:])
        payload[8:10] = _struct.pack(">H", 60_000)
        header = _struct.pack(
            ">II", len(payload), _zlib.crc32(bytes(payload)) & 0xFFFFFFFF
        )
        wal.write_bytes(header + bytes(payload))
        with pytest.raises(JournalCorruptError):
            replay_journal(wal)


# -- WAL fan-out and quorum ---------------------------------------------------


class TestQuorumAppend:
    def test_append_fans_out_to_every_replica_journal(
        self, schema, replicated_index, records
    ) -> None:
        live = open_live(schema, replicated_index)
        try:
            live.append(records[0])
            live.append(records[1])
        finally:
            live.close()
        wals = tail_wals(replicated_index)
        assert len(wals) == 2
        contents = [w.read_bytes() for w in wals]
        assert contents[0] == contents[1]
        assert [f.seq for f in replay_journal(wals[0]).frames] == [1, 2]

    def test_default_quorum_is_all_replicas(
        self, schema, replicated_index, records, monkeypatch
    ) -> None:
        real_append = JournalWriter.append

        def failing_append(self, seq, record, request_id=None):
            if "replica-1" in self.path.name:
                raise OSError("injected: replica-1 disk gone")
            return real_append(self, seq, record, request_id=request_id)

        monkeypatch.setattr(JournalWriter, "append", failing_append)
        live = open_live(schema, replicated_index)
        try:
            with pytest.raises(WriteQuorumError) as info:
                live.append(records[0])
            assert info.value.acked == 1
            assert info.value.quorum == 2
            # The seq is burned: journal 0 holds frame 1 durably, so a
            # retry (disk back) must not reuse it.
            monkeypatch.undo()
            assert live.append_record(records[0])["seq"] == 2
        finally:
            live.close()

    def test_ack_quorum_1_tolerates_a_dead_replica_journal(
        self, schema, replicated_index, records, corpus_text, monkeypatch
    ) -> None:
        real_append = JournalWriter.append

        def failing_append(self, seq, record, request_id=None):
            if "replica-1" in self.path.name:
                raise OSError("injected: replica-1 disk gone")
            return real_append(self, seq, record, request_id=request_id)

        monkeypatch.setattr(JournalWriter, "append", failing_append)
        live = open_live(schema, replicated_index, ack_quorum=1)
        try:
            assert live.append(records[0]) == 1
            result = live.query(QUERY)
            assert "quorum-degraded" in {w.code for w in result.warnings}
            assert result.canonical_rows() == rebuild_rows(
                schema, corpus_text + records[0]
            )
        finally:
            live.close()

    def test_quorum_is_clamped_to_replica_count(
        self, schema, replicated_index, records
    ) -> None:
        live = open_live(schema, replicated_index, ack_quorum=99)
        try:
            assert live.append(records[0]) == 1  # 99 clamps to "all" (2)
        finally:
            live.close()

    @pytest.mark.parametrize("quorum", [0, -1])
    def test_quorum_below_one_is_refused(
        self, schema, replicated_index, quorum
    ) -> None:
        with pytest.raises(ValueError, match="ack_quorum must be >= 1"):
            open_live(schema, replicated_index, ack_quorum=quorum)
        assert not (replicated_index / WAL_SUBDIR).exists()

    def test_status_reports_replicas_and_quorum(
        self, schema, replicated_index, records
    ) -> None:
        live = open_live(schema, replicated_index, ack_quorum=1)
        try:
            live.append(records[0])
            status = live.status()
            assert status["ack_quorum"] == 1
            assert all(s["replicas"] == 2 for s in status["shards"])
            assert status["request_ids"] == 0
        finally:
            live.close()


# -- idempotent appends -------------------------------------------------------


class TestRequestIdDedupe:
    def test_same_request_id_returns_original_ack(
        self, schema, replicated_index, records
    ) -> None:
        live = open_live(schema, replicated_index)
        try:
            first = live.append_record(records[0], request_id="rid-1")
            assert first == {"seq": 1, "deduped": False}
            replay = live.append_record(records[0], request_id="rid-1")
            assert replay == {"seq": 1, "deduped": True}
            assert live.append_record(records[1])["seq"] == 2
        finally:
            live.close()

    def test_rebinding_a_request_id_conflicts(
        self, schema, replicated_index, records
    ) -> None:
        live = open_live(schema, replicated_index)
        try:
            live.append_record(records[0], request_id="rid-1")
            with pytest.raises(DuplicateRequestError) as info:
                live.append_record(records[1], request_id="rid-1")
            assert info.value.request_id == "rid-1"
            assert info.value.seq == 1
        finally:
            live.close()

    def test_dedupe_window_survives_reopen(
        self, schema, replicated_index, records
    ) -> None:
        live = open_live(schema, replicated_index)
        try:
            live.append_record(records[0], request_id="rid-1")
        finally:
            live.close()
        reopened = open_live(schema, replicated_index)
        try:
            assert reopened.append_record(records[0], request_id="rid-1") == {
                "seq": 1,
                "deduped": True,
            }
        finally:
            reopened.close()

    def test_compaction_closes_the_dedupe_window(
        self, schema, replicated_index, records
    ) -> None:
        """Folded request ids are forgotten with their journal frames: the
        dedupe window *is* the journal retention window, documented and
        pinned here."""
        live = open_live(schema, replicated_index)
        try:
            live.append_record(records[0], request_id="rid-1")
            live.compact()
            again = live.append_record(records[0], request_id="rid-1")
            assert again == {"seq": 2, "deduped": False}
        finally:
            live.close()


# -- recovery -----------------------------------------------------------------


class TestReplicatedRecovery:
    def test_lagging_replica_journal_is_promoted_to_the_union(
        self, schema, replicated_index, records, corpus_text
    ) -> None:
        live = open_live(schema, replicated_index)
        try:
            live.append(records[0])
            live.append(records[1])
        finally:
            live.close()
        lagging = tail_wals(replicated_index)[1]
        lagging.unlink()  # replica-1's journal lost entirely
        reopened = open_live(schema, replicated_index)
        try:
            result = reopened.query(QUERY)
            assert result.canonical_rows() == rebuild_rows(
                schema, corpus_text + records[0] + records[1]
            )
        finally:
            reopened.close()
        # Re-leveled on open: both journals hold the union again.
        wals = tail_wals(replicated_index)
        assert len(wals) == 2
        assert [f.seq for f in replay_journal(wals[1]).frames] == [1, 2]

    def test_disagreeing_replica_journals_refuse_to_guess(
        self, schema, replicated_index, records
    ) -> None:
        live = open_live(schema, replicated_index)
        try:
            live.append(records[0])
        finally:
            live.close()
        second = tail_wals(replicated_index)[1]
        second.write_bytes(encode_frame(1, records[1]))  # same seq, other record
        with pytest.raises(JournalCorruptError, match="disagree at seq 1"):
            open_live(schema, replicated_index)

    @pytest.mark.parametrize("point", ["replica-0", "replica-1"])
    def test_crash_mid_replica_fold_never_duplicates_rows(
        self, schema, replicated_index, records, corpus_text, point
    ) -> None:
        """Compaction crashes after folding one (or both) replica copies
        but before the shard-manifest commit: reopen must converge — every
        acked record exactly once."""

        class Boom(RuntimeError):
            pass

        def crash(name: str) -> None:
            if name == f"compact:replica-saved:{point}":
                raise Boom(name)

        live = open_live(schema, replicated_index)
        try:
            for record in records:
                live.append(record)
            with injected(crash), pytest.raises(Boom):
                live.compact()
        finally:
            live.close()
        reopened = open_live(schema, replicated_index)
        try:
            expected = rebuild_rows(schema, corpus_text + "".join(records))
            assert reopened.query(QUERY).canonical_rows() == expected
            reopened.compact()
            assert reopened.query(QUERY).canonical_rows() == expected
        finally:
            reopened.close()

    def test_open_sweep_leaves_quarantine_dirs_alone(
        self, schema, replicated_index
    ) -> None:
        manifest = load_shard_manifest(replicated_index)
        shard_dir = replicated_index / manifest.shards[0].directory
        keep = shard_dir / "quarantine-1700000000-replica-0"
        keep.mkdir()
        (keep / "evidence.txt").write_text("damaged copy under investigation")
        live = open_live(schema, replicated_index)
        live.close()
        assert keep.is_dir()
        assert (keep / "evidence.txt").exists()

    def test_replicated_compact_then_clean_reopen(
        self, schema, replicated_index, records, corpus_text
    ) -> None:
        live = open_live(schema, replicated_index)
        try:
            for record in records[:2]:
                live.append(record)
            live.compact()
        finally:
            live.close()
        assert tail_wals(replicated_index) == []  # journals trimmed away
        reopened = open_live(schema, replicated_index)
        try:
            result = reopened.query(QUERY)
            assert result.canonical_rows() == rebuild_rows(
                schema, corpus_text + records[0] + records[1]
            )
            assert not result.warnings
            assert reopened.status()["pending_records"] == 0
        finally:
            reopened.close()
