"""The live engine (`live/engine.py`): durable appends, delta-merged
queries, compaction commit points, tail splitting, and crash recovery."""

from __future__ import annotations

import threading
import time

import pytest

from repro.api import QueryRequest, QueryResponse, query_response
from repro.errors import JournalCorruptError, ParseError
from repro.live import LiveEngine, WAL_SUBDIR, encode_frame, replay_journal
from repro.shard.manifest import load_shard_manifest
from tests.chaos.faults import injected

from tests.live.conftest import QUERY, rebuild_rows


def open_live(schema, directory, **kwargs) -> LiveEngine:
    return LiveEngine.open(schema, directory, **kwargs)


# -- appending and querying ---------------------------------------------------


def test_append_assigns_monotonic_sequence_numbers(schema, saved_index, records):
    live = open_live(schema, saved_index)
    try:
        assert [live.append(r) for r in records[:3]] == [1, 2, 3]
        assert live.status()["next_seq"] == 4
    finally:
        live.close()


def test_merged_rows_match_a_full_rebuild(schema, saved_index, corpus_text, records):
    live = open_live(schema, saved_index)
    try:
        for record in records:
            live.append(record)
        merged = live.query(QUERY).canonical_rows()
        assert merged == rebuild_rows(schema, corpus_text + "".join(records))
    finally:
        live.close()


def test_concurrent_queries_after_an_append_build_the_delta_once(
    schema, saved_index, corpus_text, records, monkeypatch
):
    from repro.live.engine import DELTA_SUFFIX
    from repro.shard import ShardedEngine

    # Every query after an append finds a fresh delta segment with no
    # engine.  Two queries that meet it together must share one build:
    # building it once per query doubles the work of exactly the requests
    # that happen to overlap.
    load = ShardedEngine._load_shard_engine
    builds: list[str] = []
    both_waiting = threading.Barrier(2)

    def counting_load(self, shard):
        if DELTA_SUFFIX in shard.name:
            builds.append(shard.name)
            time.sleep(0.2)  # a slow build: the other query arrives mid-build
        return load(self, shard)

    monkeypatch.setattr(ShardedEngine, "_load_shard_engine", counting_load)
    live = open_live(schema, saved_index)
    try:
        live.append(records[0])
        expected = rebuild_rows(schema, corpus_text + records[0])
        answers: list[list] = []

        def ask() -> None:
            both_waiting.wait()
            answers.append(live.query(QUERY).canonical_rows())

        threads = [threading.Thread(target=ask) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert answers == [expected, expected]
        assert builds == [f"{live.status()['tail']}+delta:1-1"]
    finally:
        live.close()


def test_unparseable_record_is_rejected_before_journaling(
    schema, saved_index
):
    live = open_live(schema, saved_index)
    try:
        with pytest.raises(ParseError):
            live.append("this is not a bibtex entry")
        assert live.status()["pending_records"] == 0
        assert live.status()["journal_bytes"] == 0
    finally:
        live.close()


def test_delta_segment_runs_under_the_request_budget(schema, saved_index, corpus_text):
    from repro.errors import ShardFailedError
    from repro.live.engine import DELTA_SUFFIX
    from repro.resilience import DegradationPolicy, ResourceBudget
    from repro.workloads.bibtex import generate_bibtex

    # Each base shard holds 6 of the 24 references, the first delta
    # segment 12: a cap of 9 regions is blown only inside that segment —
    # which used to run with no budget at all, so the cap was silently
    # ignored.  A segment is a source like any shard, so it fails like one:
    # flagged, or typed under fail_fast.  A later append forms a segment of
    # its own, which answers beside the failing one.
    text = generate_bibtex(entries=13, seed=99)
    appended = [
        text[child.start : child.end] + "\n\n" for child in schema.parse(text).children
    ]
    budget = ResourceBudget(max_regions=9)
    live = open_live(schema, saved_index)
    try:
        for record in appended[:12]:
            live.append(record)
        tail = live.status()["tail"]
        blown = f"{tail}+delta:1-12"
        partial = live.query(QUERY, budget=budget)
        assert partial.canonical_rows() == rebuild_rows(schema, corpus_text)
        codes = [w.code for w in partial.warnings]
        assert "shard-failed" in codes and "partial-result" in codes
        (failed,) = [r for r in partial.stats.shards if r.status == "failed"]
        assert failed.shard == blown

        live.append(appended[12])
        partial = live.query(QUERY, budget=budget)
        assert partial.canonical_rows() == rebuild_rows(schema, corpus_text + appended[12])
        assert [
            (r.shard, r.status) for r in partial.stats.shards if DELTA_SUFFIX in r.shard
        ] == [(blown, "failed"), (f"{tail}+delta:13-13", "ok")]
        live.fail_fast = True
        with pytest.raises(ShardFailedError):
            live.query(QUERY, budget=budget)
    finally:
        live.close()
    # Reopening replays all 13 frames as one segment, which degrades.
    live = open_live(schema, saved_index, policy=DegradationPolicy.degrade())
    try:
        result = live.query(QUERY, budget=budget)
        assert result.canonical_rows() == rebuild_rows(
            schema, corpus_text + "".join(appended)
        )
        degraded = [w for w in result.warnings if w.code == "budget-degraded"]
        assert [w.detail["shard"] for w in degraded] == [f"{tail}+delta:1-13"]
    finally:
        live.close()


def test_query_request_returns_wire_response(schema, saved_index, records):
    live = open_live(schema, saved_index)
    try:
        live.append(records[0])
        request = QueryRequest(query=QUERY)
        response = query_response(live.query(request.query), request)
        assert isinstance(response, QueryResponse)
        assert response.total_rows == len(live.query(QUERY).rows)
    finally:
        live.close()


def test_stats_reports_live_backend(schema, saved_index, records):
    live = open_live(schema, saved_index)
    try:
        live.append(records[0])
        backend = live.stats().backend
        assert backend["type"] == "live"
        assert backend["base"] == "sharded"
        assert backend["pending_records"] == 1
    finally:
        live.close()


# -- durability across reopen -------------------------------------------------


def test_acked_appends_survive_reopen(schema, saved_index, corpus_text, records):
    live = open_live(schema, saved_index)
    try:
        for record in records[:2]:
            live.append(record)
    finally:
        live.close()  # no compaction: records live only in the journal

    reopened = open_live(schema, saved_index)
    try:
        rows = reopened.query(QUERY)
        assert rows.canonical_rows() == rebuild_rows(
            schema, corpus_text + "".join(records[:2])
        )
        codes = [w.code for w in rows.warnings]
        assert "delta-replayed" in codes
        # The sequence counter continues where the journal left off.
        assert reopened.append(records[2]) == 3
    finally:
        reopened.close()


def test_clean_index_reopens_without_warnings(schema, saved_index):
    live = open_live(schema, saved_index)
    try:
        assert live.query(QUERY).warnings == []
    finally:
        live.close()


# -- compaction ---------------------------------------------------------------


def test_compact_folds_delta_and_trims_journal(
    schema, saved_index, corpus_text, records
):
    live = open_live(schema, saved_index)
    try:
        for record in records:
            live.append(record)
        report = live.compact()
        assert sum(report["folded"].values()) == len(records)
        status = live.status()
        assert status["pending_records"] == 0
        assert status["journal_bytes"] == 0
        assert live.query(QUERY).canonical_rows() == rebuild_rows(
            schema, corpus_text + "".join(records)
        )
    finally:
        live.close()

    # A post-compaction open finds nothing to recover.
    reopened = open_live(schema, saved_index)
    try:
        result = reopened.query(QUERY)
        assert result.warnings == []
        assert result.canonical_rows() == rebuild_rows(
            schema, corpus_text + "".join(records)
        )
    finally:
        reopened.close()


def test_applied_seq_checkpoint_rides_the_shard_manifest(
    schema, saved_index, records
):
    from repro.index.persist import applied_seq

    live = open_live(schema, saved_index)
    try:
        for record in records[:3]:
            live.append(record)
        live.compact()
        tail = live.status()["tail"]
        manifest = load_shard_manifest(saved_index)
        (entry,) = [s for s in manifest.shards if s.name == tail]
        assert applied_seq(saved_index / entry.directory) == 3
        # Sequence numbers never restart, even with the journal gone.
        assert live.append(records[3]) == 4
    finally:
        live.close()


def test_compact_is_idempotent_when_clean(schema, saved_index):
    live = open_live(schema, saved_index)
    try:
        assert live.compact()["folded"] == {}
    finally:
        live.close()


def test_compact_reloads_only_the_shards_it_folded(
    schema, saved_index, corpus_text, records, monkeypatch
):
    from repro.shard import ShardedEngine

    # Folding the tail rewrites the tail's index and nothing else: every
    # other shard keeps its loaded engine (and with it its caches, breaker
    # and copies), so the next query loads the tail alone.
    live = open_live(schema, saved_index)
    try:
        live.query(QUERY)
        engines = {shard.name: shard.engine for shard in live._shards}
        for record in records:
            live.append(record)
        live.query(QUERY)
        live.compact()
        tail = live.status()["tail"]
        load = ShardedEngine._load_shard_engine
        loads: list[str] = []

        def counting_load(self, shard):
            loads.append(shard.name)
            return load(self, shard)

        monkeypatch.setattr(ShardedEngine, "_load_shard_engine", counting_load)
        assert live.query(QUERY).canonical_rows() == rebuild_rows(
            schema, corpus_text + "".join(records)
        )
        assert loads == [tail]
        for shard in live._shards:
            if shard.name != tail:
                assert shard.engine is engines[shard.name]
    finally:
        live.close()


# -- crash points -------------------------------------------------------------


class Boom(RuntimeError):
    pass


@pytest.mark.parametrize(
    "point", ["compact:shard-saved", "compact:manifest-updated"]
)
def test_crash_between_compaction_commit_points_recovers(
    schema, saved_index, corpus_text, records, point
):
    def crash(name: str) -> None:
        if name == point:
            raise Boom(name)

    live = open_live(schema, saved_index)
    try:
        for record in records:
            live.append(record)
        with injected(crash), pytest.raises(Boom):
            live.compact()
    finally:
        live.close()

    reopened = open_live(schema, saved_index)
    try:
        assert reopened.query(QUERY).canonical_rows() == rebuild_rows(
            schema, corpus_text + "".join(records)
        )
        reopened.compact()
        assert reopened.query(QUERY).canonical_rows() == rebuild_rows(
            schema, corpus_text + "".join(records)
        )
    finally:
        reopened.close()


def test_torn_journal_tail_recovers_acked_records_only(
    schema, saved_index, corpus_text, records
):
    live = open_live(schema, saved_index)
    try:
        for record in records[:2]:
            live.append(record)
        tail = live.status()["tail"]
    finally:
        live.close()
    # Forge the crash: half of an unacked frame reaches the journal.
    manifest = load_shard_manifest(saved_index)
    (entry,) = [s for s in manifest.shards if s.name == tail]
    from pathlib import Path

    wal = saved_index / WAL_SUBDIR / f"{Path(entry.directory).name}.wal"
    partial = encode_frame(3, records[2])
    with open(wal, "ab") as handle:
        handle.write(partial[: len(partial) // 2])

    reopened = open_live(schema, saved_index)
    try:
        assert reopened.query(QUERY).canonical_rows() == rebuild_rows(
            schema, corpus_text + "".join(records[:2])
        )
        # The torn bytes are physically gone; the seq was never acked and
        # is reused for the retry.
        assert replay_journal(wal).torn_bytes == 0
        assert reopened.append(records[2]) == 3
    finally:
        reopened.close()


@pytest.mark.parametrize("page_cache", ["reached", "lost"])
def test_crash_between_journal_write_and_fsync(
    schema, saved_index, corpus_text, records, page_cache
):
    """A crash at ``append:written``: the frame is written, not fsynced,
    not acked.  Whether its bytes reached the disk (``reached``: the
    buffered frame is flushed as the process goes) or not (``lost``: the
    journal is cut back to its pre-append length), reopening recovers
    every acked record exactly once and the unacked one whole or not at
    all — never torn."""
    from repro.shard.replica import ReplicaSet
    from tests.chaos.faults import SimulatedCrash, crash_at

    acked, unacked = records[:3], records[3]
    live = open_live(schema, saved_index)
    try:
        for record in acked:
            live.append(record)
        journals = sorted((saved_index / WAL_SUBDIR).glob("*.wal"))
        sizes = {wal: wal.stat().st_size for wal in journals}
        with injected(crash_at("append:written")), pytest.raises(SimulatedCrash):
            live.append(unacked)
    finally:
        live.close()
    assert sorted((saved_index / WAL_SUBDIR).glob("*.wal")) == journals
    if page_cache == "lost":
        for wal, size in sizes.items():
            with open(wal, "r+b") as handle:
                handle.truncate(size)
    survivors = acked + [unacked] if page_cache == "reached" else acked
    logical = corpus_text + "".join(survivors)

    reopened = open_live(schema, saved_index)
    try:
        assert all(replay_journal(wal).torn_bytes == 0 for wal in journals)
        assert reopened.status()["pending_records"] == len(survivors)
        whole = "SELECT r FROM Reference r"
        assert reopened.query(whole).canonical_rows() == rebuild_rows(
            schema, logical, whole
        )
        assert reopened.query(QUERY).canonical_rows() == rebuild_rows(schema, logical)
        # Exactly once, which row sets cannot show: the folded shard
        # corpora concatenate to the logical corpus byte for byte.
        reopened.compact()
    finally:
        reopened.close()
    stored = "".join(
        (ReplicaSet.open(saved_index / entry.directory).copies[0] / "corpus.txt").read_text(
            encoding="utf-8"
        )
        for entry in load_shard_manifest(saved_index).shards
    )
    assert stored == logical


def test_corrupt_journal_raises_typed_error_on_open(
    schema, saved_index, records
):
    live = open_live(schema, saved_index)
    try:
        live.append(records[0])
        tail = live.status()["tail"]
    finally:
        live.close()
    manifest = load_shard_manifest(saved_index)
    (entry,) = [s for s in manifest.shards if s.name == tail]
    from pathlib import Path

    wal = saved_index / WAL_SUBDIR / f"{Path(entry.directory).name}.wal"
    data = bytearray(wal.read_bytes())
    data[10] ^= 0xFF  # in-place damage inside the first frame's payload
    wal.write_bytes(bytes(data))
    with pytest.raises(JournalCorruptError):
        open_live(schema, saved_index)


# -- splitting ----------------------------------------------------------------


@pytest.mark.parametrize("limit", [0, -5])
def test_max_shard_bytes_below_one_is_refused(schema, saved_index, limit):
    with pytest.raises(ValueError, match="max_shard_bytes must be >= 1"):
        open_live(schema, saved_index, max_shard_bytes=limit)


def test_oversized_tail_splits_during_compaction(
    schema, saved_index, corpus_text, records
):
    live = open_live(schema, saved_index, max_shard_bytes=1)
    try:
        for record in records:
            live.append(record)
        report = live.compact()
        assert report["split"] is not None
        assert len(report["split"]["into"]) == 2
        status = live.status()
        assert len(status["shards"]) == 5
        assert live.query(QUERY).canonical_rows() == rebuild_rows(
            schema, corpus_text + "".join(records)
        )
    finally:
        live.close()

    reopened = open_live(schema, saved_index)
    try:
        result = reopened.query(QUERY)
        assert result.warnings == []
        assert result.canonical_rows() == rebuild_rows(
            schema, corpus_text + "".join(records)
        )
    finally:
        reopened.close()


def test_appends_continue_into_the_new_tail_after_split(
    schema, saved_index, corpus_text, records
):
    live = open_live(schema, saved_index, max_shard_bytes=1)
    try:
        live.append(records[0])
        live.compact()  # folds, then splits the tail
        seq = live.append(records[1])
        assert seq == 2
        live.compact()
        assert live.query(QUERY).canonical_rows() == rebuild_rows(
            schema, corpus_text + records[0] + records[1]
        )
    finally:
        live.close()


def test_appends_do_not_drop_the_base_shards_cached_plans(
    schema, saved_index, records
):
    # An append replaces only its shard's delta source: every base shard
    # keeps its engine, so each query after an append hits its cached plan.
    live = open_live(schema, saved_index)
    try:
        # A cold engine plans on whichever shard loads first; from the
        # second query on, the first shard plans and caches the plan.
        for _ in range(2):
            live.query(QUERY)
        hits = live.stats().cache["plan_hits"]
        rounds = 8
        for number in range(rounds):
            live.append(records[number % len(records)])
            live.query(QUERY)
        assert live.stats().cache["plan_hits"] == hits + rounds
    finally:
        live.close()


def test_save_and_split_refuse_a_live_engine(schema, saved_index, corpus_text, tmp_path):
    live = open_live(schema, saved_index)
    try:
        with pytest.raises(TypeError, match="compact"):
            live.save(tmp_path / "copy")
        assert not (tmp_path / "copy").exists()
    finally:
        live.close()
    with pytest.raises(TypeError, match="LiveEngine.open"):
        LiveEngine.split(schema, corpus_text, 2)


def test_base_shard_names_must_not_contain_the_delta_marker(
    schema, corpus_text, tmp_path
):
    from repro.shard import ShardedEngine

    ShardedEngine.from_texts(
        schema, [corpus_text], names=["logs+delta:1-1/0"]
    ).save(tmp_path / "idx")
    with pytest.raises(ValueError, match="must not contain"):
        open_live(schema, tmp_path / "idx")


def test_projection_repeating_in_the_delta_is_served_once(tmp_path) -> None:
    from repro.core.engine import FileQueryEngine
    from repro.shard import ShardedEngine
    from repro.workloads.logs import generate_log, log_schema, tail_entries

    schema = log_schema()
    text = generate_log(400, seed=3)
    ShardedEngine.split(schema, text, 4).save(tmp_path / "lidx")
    records = list(tail_entries(entries=40, seed=5, start=400))
    query = "SELECT e.Level FROM Entry e"
    live = open_live(schema, tmp_path / "lidx")
    try:
        for record in records:
            live.append(record)
        merged = live.query(query)
        solo = FileQueryEngine(schema, text + "".join(records)).query(query)
        assert len(merged.rows) == len(solo.rows) == 5
        assert merged.rows == solo.rows
        assert merged.stats.rows == 5
    finally:
        live.close()


# -- delta segments -------------------------------------------------------------


def test_segments_stay_logarithmic_and_bound_reindexing(tmp_path, monkeypatch):
    from repro.live.engine import DELTA_SUFFIX
    from repro.shard import ShardedEngine
    from repro.workloads.logs import generate_log, log_schema, tail_entries

    # n one-record appends, each followed by a query.  The size-tiered
    # merge keeps every adjacent pair at older > 2 x newer, so the tail
    # carries at most floor(log2 n) + 1 segments, and a record is
    # re-indexed once per segment it lands in: n * (floor(log2 n) + 1)
    # records built in all, against n * (n + 1) / 2 for a delta rebuilt
    # whole after every append.
    schema = log_schema()
    text = generate_log(40, seed=3)
    ShardedEngine.split(schema, text, 2).save(tmp_path / "lidx")
    load = ShardedEngine._load_shard_engine
    built: list[int] = []

    def counting_load(self, shard):
        if DELTA_SUFFIX in shard.name:
            built.append(len(schema.parse(shard.text).children))
        return load(self, shard)

    monkeypatch.setattr(ShardedEngine, "_load_shard_engine", counting_load)
    live = open_live(schema, tmp_path / "lidx")
    try:
        tail = live.status()["tail"]
        for n, record in enumerate(tail_entries(entries=70, seed=5, start=40), start=1):
            live.append(record)
            live.query("SELECT e.Level FROM Entry e")
            segments = live._segments[tail]
            covered = [
                seq for seg in segments for seq in range(seg.first_seq, seg.last_seq + 1)
            ]
            assert covered == list(range(1, n + 1))
            assert [seg.records for seg in segments] == [
                seg.last_seq - seg.first_seq + 1 for seg in segments
            ]
            assert all(
                older.records > 2 * newer.records
                for older, newer in zip(segments, segments[1:])
            )
            tiers = n.bit_length()  # floor(log2 n) + 1
            assert len(segments) <= tiers
            assert sum(built) <= n * tiers
            assert live.stats().backend["delta_segments"] == {
                tail: [seg.records for seg in segments]
            }
    finally:
        live.close()
