"""Crash-safe live ingestion over a saved sharded index.

:class:`LiveEngine` turns the immutable sharded index of
:mod:`repro.shard` into an appendable corpus without giving up any of its
durability guarantees.  The moving parts:

- **Write-ahead journal** (:mod:`repro.live.journal`): every append is
  framed, checksummed, and fsynced before the call returns.  Journals
  live under ``<root>/wal/`` — *outside* the shard directories — because
  compaction replaces a shard directory wholesale and must never take
  unfolded journal frames down with it.
- **Delta segments**: acked records accumulate in memory per shard.  A
  :class:`LiveEngine` *is* a :class:`~repro.shard.ShardedEngine` whose
  scatter has more sources per dirty shard: its pending records as
  immutable text segments, oldest first, each named
  ``<shard>+delta:<first_seq>-<last_seq>``, placed right after the base
  shard and running the plan made on a base shard.  A query turns the
  records no segment covers yet into one new segment; then, while the
  second-newest segment holds at most twice the records of the newest,
  the two merge into one.  Every adjacent pair thus has older > 2 x newer,
  so n pending records take at most floor(log2 n) + 1 segments; a built
  segment only ever merges as the older partner, so each rebuild puts its
  records in a segment at least 1.5x larger and a record is re-indexed
  O(log n) times, not once per later append.  Each segment's engine is
  built once, lazily, in its scatter task.  The gather's set union in
  source order — the one merge point — then serves exactly the rows of a
  full rebuild of the logical corpus (base text + acked appends), and a
  failing segment is a failed source, flagged like any shard.
- **Compaction**: folds each dirty shard's delta into its base index via
  the existing staging-sibling + rename-swap save.  The journal
  checkpoint (``applied_seq``) rides *in the shard's own manifest*, so
  one rename commits the folded rows and the checkpoint together; the
  journal trim afterwards is pure garbage collection.  A tail shard that
  outgrows ``max_shard_bytes`` then splits through
  :func:`~repro.shard.split.split_corpus`, with the root ``manifest.json``
  rewritten last as the commit point.
- **Recovery** (:meth:`LiveEngine.open`): orphaned shard directories from
  an uncommitted split are swept; a shard whose own manifest ran ahead of
  the root manifest (crash between a compaction's swap and the root
  rewrite) refreshes the root entry; journal frames above each shard's
  ``applied_seq`` are replayed as pending records with a
  ``delta-replayed`` warning; torn journal tails are truncated.  Every
  acked append survives, every unacked one vanishes.

**Replicated shards** (saved with ``replicas=N``, see
:mod:`repro.shard.replica`) extend each of those parts:

- the WAL fans out: each replica gets its own journal
  (``wal/<shard>.replica-{i}.wal``) and an append is acknowledged once
  ``ack_quorum`` journals have fsynced the frame (default: all of them;
  fewer acks than journals but at least the quorum surfaces a
  ``quorum-degraded`` warning, fewer than the quorum raises
  :class:`~repro.errors.WriteQuorumError`);
- recovery replays the **union** of the replica journals (the same
  sequence number must carry the same record everywhere) and re-levels
  every journal to that union, so a frame durable on one journal when
  the process died is promoted to all of them — for a replicated shard,
  "acked" weakens to "fsynced on at least one journal";
- compaction folds the delta into *every* replica, then rewrites the
  shard-level replica manifest as the commit point
  (:meth:`~repro.shard.replica.ReplicaSet.fold`); a crash in between is
  finished at the next :meth:`open`, which reconciles a shard manifest
  that fell behind replicas that all agree on a newer fingerprint
  (:meth:`~repro.shard.replica.ReplicaSet.reconcile`) *before* the
  checkpoint is read (otherwise replay would re-apply frames the
  replicas already hold).

Which directories hold a shard's copies, and which journal belongs to
each, is the shard's :class:`~repro.shard.replica.ReplicaSet`'s to say; a
plain shard directory is a set of one.

Appends may carry a client ``request_id`` for **idempotence**: a replayed
id returns the original sequence number with ``deduped=True`` instead of
appending again, and an id reused with *different* content raises
:class:`~repro.errors.DuplicateRequestError`.  The dedupe window is the
journal retention window — an id is remembered until its frame is folded
by compaction.

Appends go to the **tail shard** (the root manifest's last entry) and
each record must be self-delimiting — it carries its own separators, so
the logical shard text is exactly ``base + "".join(records)``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import threading
from dataclasses import dataclass
from dataclasses import replace as dataclass_replace
from pathlib import Path
from typing import Any

from repro.core.engine import FileQueryEngine, QueryResult
from repro.db.query import Query
from repro.errors import (
    DuplicateRequestError,
    JournalCorruptError,
    ParseError,
    WriteQuorumError,
)
from repro.index.persist import applied_seq as saved_applied_seq
from repro.index.persist import corpus_fingerprint, load_manifest
from repro.live.journal import (
    Frame,
    JournalWriter,
    encode_frame,
    replay_journal,
    trim_journal,
)
from repro.resilience.budget import ResourceBudget
from repro.resilience.fault import fault_point
from repro.resilience.warnings import (
    DELTA_REPLAYED,
    QUORUM_DEGRADED,
    SHARD_SPLIT,
    STALE_STAGING_REMOVED,
    QueryWarning,
)
from repro.schema.structuring import StructuringSchema
from repro.shard.engine import ShardedEngine, _Shard
from repro.shard.manifest import (
    SHARDS_SUBDIR,
    ShardEntry,
    ShardManifest,
    load_shard_manifest,
    save_shard_manifest,
    shard_slug,
)
from repro.shard.replica import ReplicaSet
from repro.shard.split import split_corpus

WAL_SUBDIR = "wal"

#: Marker naming a dirty shard's delta segments (``shard3+delta:1-12``); no
#: base shard name of a live engine may contain it, so names never collide.
DELTA_SUFFIX = "+delta"


@dataclass(frozen=True)
class _Segment:
    """An immutable run of one dirty shard's pending records, seqs
    ``first_seq``..``last_seq``, served as one more text source."""

    first_seq: int
    last_seq: int
    records: int
    source: _Shard


def _record_digest(record: str) -> str:
    return hashlib.sha256(record.encode("utf-8")).hexdigest()


def _entry_key(entry: ShardEntry) -> tuple[str, str, str]:
    """What identifies a shard's saved contents: same key, same shard."""
    return (entry.name, entry.directory, entry.corpus_fingerprint)


class LiveEngine(ShardedEngine):
    """A sharded query engine that accepts durable appends.

    Construct via :meth:`open` on a directory produced by
    :meth:`~repro.shard.ShardedEngine.save` (``repro index --shards N``).  It
    is the sharded engine over the saved shards, plus the delta segments of
    every dirty shard, so ``query``/``explain``/``analyze``/``stats`` and the
    :class:`~repro.api.QueryBackend` surface are the sharded engine's;
    ``repro serve`` puts ``POST /append`` next to ``/query``.

    Every commit step of an append, a compaction and a split is a named
    :func:`~repro.resilience.fault_point` (``"append:written"``,
    ``"append:journal-acked:{i}"``, ``"compact:replica-saved:{name}"``,
    ``"compact:shard-saved"``, ``"compact:manifest-updated"``,
    ``"split:shards-saved"``, ``"split:manifest-updated"``), where the
    chaos scenarios simulate a crash in every window.
    """

    def __init__(
        self,
        schema: StructuringSchema,
        shards: list[_Shard],
        *,
        root: Path,
        manifest: ShardManifest,
        pending: dict[str, list[Frame]],
        next_seq: int,
        load_warnings: list[QueryWarning],
        max_shard_bytes: int | None = None,
        ack_quorum: int | None = None,
        request_seqs: dict[str, tuple[int, str]] | None = None,
        **options: Any,
    ) -> None:
        super().__init__(schema, shards, **options)
        if any(DELTA_SUFFIX in shard.name for shard in self._shards):
            raise ValueError(f"live shard names must not contain {DELTA_SUFFIX!r}")
        self.root = root
        self._wal_dir = root / WAL_SUBDIR
        self.max_shard_bytes = max_shard_bytes
        self.ack_quorum = ack_quorum
        self._manifest = manifest
        self._pending = pending
        self._next_seq = next_seq
        self._load_warnings = load_warnings
        self._segments: dict[str, list[_Segment]] = {}
        self._writers: dict[str, JournalWriter] = {}
        self._request_seqs: dict[str, tuple[int, str]] = dict(request_seqs or {})
        self._quorum_warned: set[tuple[str, tuple[str, ...]]] = set()
        self._lock = threading.RLock()

    # -- construction / recovery ------------------------------------------------

    @classmethod
    def open(
        cls,
        schema: StructuringSchema,
        directory: str | os.PathLike[str],
        max_shard_bytes: int | None = None,
        ack_quorum: int | None = None,
        **options: Any,
    ) -> "LiveEngine":
        """Open a saved sharded index for live ingestion, running the full
        crash-recovery protocol described in the module docstring.
        ``options`` pass through to :meth:`ShardedEngine.from_saved`;
        ``config`` defaults to the tail shard's saved one, which delta
        sources and compaction build with.  ``ack_quorum`` and
        ``max_shard_bytes`` must be at least 1; a quorum above the
        replica count means every replica."""
        if ack_quorum is not None and ack_quorum < 1:
            raise ValueError(f"ack_quorum must be >= 1, got {ack_quorum!r}")
        if max_shard_bytes is not None and max_shard_bytes < 1:
            raise ValueError(f"max_shard_bytes must be >= 1, got {max_shard_bytes!r}")
        root = Path(directory)
        manifest = load_shard_manifest(root)
        warnings: list[QueryWarning] = []

        # 1. Sweep shard directories no manifest entry references: the
        # staging side of a split whose commit (the root manifest rewrite)
        # never happened, or the retired side of one that did.  Quarantined
        # replicas live *inside* shard directories and are never touched.
        referenced = {entry.directory for entry in manifest.shards}
        shards_dir = root / SHARDS_SUBDIR
        if shards_dir.is_dir():
            for child in sorted(shards_dir.iterdir()):
                relative = f"{SHARDS_SUBDIR}/{child.name}"
                if (
                    child.is_dir()
                    and not child.name.startswith(".")
                    and relative not in referenced
                ):
                    shutil.rmtree(child, ignore_errors=True)
                    warnings.append(
                        QueryWarning(
                            STALE_STAGING_REMOVED,
                            f"removed unreferenced shard directory {relative} "
                            "(uncommitted or superseded by a split)",
                            detail={"path": str(child), "root": str(root)},
                        )
                    )

        # 2. Replicated shards whose replicas all committed *ahead* of the
        # shard-level manifest: a compaction crashed after folding every
        # replica but before the manifest rewrite.  Finish that commit now
        # — before the checkpoint is read in step 4 — or replay would
        # re-apply frames the replicas already hold, duplicating rows.
        copies = {
            entry.directory: ReplicaSet.open(root / entry.directory, shard_name=entry.name)
            for entry in manifest.shards
        }
        for entry in manifest.shards:
            agreed = copies[entry.directory].reconcile()
            if agreed is not None:
                warnings.append(
                    QueryWarning(
                        DELTA_REPLAYED,
                        f"shard {entry.name!r}'s replicas committed ahead of its "
                        "manifest (crash mid-compaction); shard manifest reconciled",
                        detail={"shard": entry.name, "fingerprint": agreed},
                    )
                )

        # 3. A shard whose own (atomically committed) manifest ran ahead
        # of the root manifest: a compaction crashed between the shard
        # swap and the root rewrite.  The shard is authoritative — refresh
        # the root entry.
        entries: list[ShardEntry] = []
        refreshed = False
        for entry in manifest.shards:
            shard_manifest = load_manifest(root / entry.directory)
            actual = (
                shard_manifest.get("corpus_fingerprint")
                if isinstance(shard_manifest, dict)
                else None
            )
            if isinstance(actual, str) and actual != entry.corpus_fingerprint:
                entry = dataclass_replace(entry, corpus_fingerprint=actual)
                refreshed = True
                warnings.append(
                    QueryWarning(
                        DELTA_REPLAYED,
                        f"shard {entry.name!r} committed ahead of the root "
                        "manifest (crash mid-compaction); root entry refreshed",
                        detail={"shard": entry.name, "fingerprint": actual},
                    )
                )
            entries.append(entry)
        if refreshed:
            manifest = dataclass_replace(manifest, shards=tuple(entries))
            save_shard_manifest(root, manifest)

        # 4. Replay journals: frames above a shard's applied_seq become
        # its delta segment again; torn tails are truncated; journals for
        # vanished shards are deleted iff fully applied.  A replicated
        # shard replays the *union* of its replica journals and re-levels
        # each journal to that union, promoting frames that reached only
        # some journals before a crash.
        applied_by_dir = {
            entry.directory: saved_applied_seq(root / entry.directory)
            for entry in entries
        }
        global_applied = max(applied_by_dir.values(), default=0)
        pending: dict[str, list[Frame]] = {}
        request_seqs: dict[str, tuple[int, str]] = {}
        next_seq = global_applied + 1
        wal_dir = root / WAL_SUBDIR
        known_wals: set[str] = set()
        for entry in entries:
            applied = applied_by_dir[entry.directory]
            paths = copies[entry.directory].journal_paths(wal_dir)
            # A shard replicated after it already journaled keeps its old
            # single journal in the union until it is re-leveled.
            legacy: Path | None = wal_dir / f"{Path(entry.directory).name}.wal"
            if legacy in paths or not legacy.exists():
                legacy = None
            else:
                paths = paths + [legacy]
            known_wals.update(path.name for path in paths)
            replays = {path: replay_journal(path) for path in paths}
            union: dict[int, Frame] = {}
            for path, replay in replays.items():
                for frame in replay.frames:
                    prev = union.get(frame.seq)
                    if prev is None:
                        union[frame.seq] = frame
                    elif prev.record != frame.record:
                        raise JournalCorruptError(
                            str(path),
                            f"replica journals disagree at seq {frame.seq}: "
                            "same sequence number, different record",
                        )
                    elif prev.request_id is None and frame.request_id is not None:
                        union[frame.seq] = frame
            ordered = [union[seq] for seq in sorted(union)]
            if ordered:
                next_seq = max(next_seq, ordered[-1].seq + 1)
            frames = [frame for frame in ordered if frame.seq > applied]
            torn = sum(replay.torn_bytes for replay in replays.values())
            promoted = 0
            want = [frame.seq for frame in frames]
            for path in paths:
                if path is legacy:
                    continue
                have = [
                    frame.seq for frame in replays[path].frames if frame.seq > applied
                ]
                if have != want:
                    promoted += len(set(want) - set(have))
                    cls._rewrite_journal(path, frames)
            if legacy is not None:
                legacy.unlink(missing_ok=True)
            for frame in frames:
                if frame.request_id is not None:
                    request_seqs[frame.request_id] = (
                        frame.seq,
                        _record_digest(frame.record),
                    )
            if frames:
                pending[entry.name] = frames
            if frames or torn:
                message = (
                    f"replayed {len(frames)} journaled append(s) into "
                    f"shard {entry.name!r}'s delta segment"
                )
                if torn:
                    message += f"; truncated a {torn}-byte torn tail"
                if promoted:
                    message += (
                        f"; promoted {promoted} frame(s) to lagging replica "
                        "journal(s)"
                    )
                warnings.append(
                    QueryWarning(
                        DELTA_REPLAYED,
                        message,
                        detail={
                            "shard": entry.name,
                            "replayed": len(frames),
                            "torn_bytes": torn,
                            "promoted": promoted,
                            "journals": [str(path) for path in paths],
                        },
                    )
                )
        if wal_dir.is_dir():
            for wal in sorted(wal_dir.glob("*.wal")):
                if wal.name in known_wals:
                    continue
                replay = replay_journal(wal)
                if replay.max_seq <= global_applied:
                    wal.unlink(missing_ok=True)
                    continue
                raise JournalCorruptError(
                    str(wal),
                    "journal for a shard absent from the manifest holds "
                    f"frames beyond the applied checkpoint {global_applied} "
                    "— acked appends would be lost",
                )

        options.setdefault("config", copies[entries[-1].directory].index_config())
        return cls.from_saved(
            schema,
            root,
            root=root,
            manifest=manifest,
            pending=pending,
            next_seq=next_seq,
            load_warnings=warnings,
            max_shard_bytes=max_shard_bytes,
            ack_quorum=ack_quorum,
            request_seqs=request_seqs,
            **options,
        )

    @classmethod
    def _eager(cls, schema, shards, options) -> "LiveEngine":
        raise TypeError(
            "a live engine runs over a saved sharded index: build one with "
            "ShardedEngine, save it, then LiveEngine.open() it"
        )

    def save(self, directory, replicas=None) -> None:
        raise TypeError(
            "a live engine is already saved under its root; saving elsewhere "
            "would drop its pending appends — fold them with compact()"
        )

    @staticmethod
    def _rewrite_journal(path: Path, frames: list[Frame]) -> None:
        """Atomically replace one journal with exactly ``frames``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        if not frames:
            path.unlink(missing_ok=True)
            return
        tmp = path.parent / f".{path.name}.sync-{os.getpid()}"
        with open(tmp, "wb") as handle:
            for frame in frames:
                handle.write(encode_frame(frame.seq, frame.record, frame.request_id))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    # -- journal plumbing -------------------------------------------------------

    def _copies(self, entry: ShardEntry) -> ReplicaSet:
        return self._replica_set(self._shard_by_name(entry.name))

    def _writer_for(self, path: Path) -> JournalWriter:
        key = str(path)
        writer = self._writers.get(key)
        if writer is None:
            writer = JournalWriter(path)
            self._writers[key] = writer
        return writer

    def _close_writers(self) -> None:
        """Trims and splits replace journal files; never keep a handle to
        a replaced inode."""
        for writer in self._writers.values():
            writer.close()
        self._writers.clear()

    # -- appending --------------------------------------------------------------

    def append(self, record: str, request_id: str | None = None) -> int:
        """Durably append one record to the tail shard.

        The record must parse under the engine's schema as at least one
        complete top-level record (raises
        :class:`~repro.errors.ParseError` otherwise — nothing is
        journaled) and must be self-delimiting: it carries any separators
        the grammar needs, e.g. a trailing newline for line-oriented
        workloads.  Returns the record's journal sequence number; by the
        time it returns, the frame is fsynced — the append survives any
        subsequent crash.  See :meth:`append_record` for the quorum and
        idempotence contract on replicated tails.
        """
        return self.append_record(record, request_id=request_id)["seq"]

    def append_record(
        self, record: str, request_id: str | None = None
    ) -> dict[str, Any]:
        """:meth:`append` with the full ack envelope: ``{"seq", "deduped"}``.

        On a replicated tail the frame is written and fsynced to every
        replica journal; the append is acknowledged once ``ack_quorum``
        journals acked (default: all).  Journals beyond the quorum that
        failed surface a ``quorum-degraded`` warning on subsequent
        queries; fewer acks than the quorum raise
        :class:`~repro.errors.WriteQuorumError` — but any journal that
        *did* ack keeps the frame, and recovery promotes it, so a
        quorum-failed append may still reappear after a restart.  Supply a
        ``request_id`` to make retries safe: a replayed id returns the
        original sequence number with ``deduped=True``; an id reused with
        different content raises
        :class:`~repro.errors.DuplicateRequestError`.  Ids are remembered
        until their frame is folded by compaction (the journal retention
        window).
        """
        tree = self.schema.parse(record)
        if not list(tree.children):
            raise ParseError(
                f"record contains no top-level <{tree.symbol}> record", 0
            )
        digest = _record_digest(record) if request_id is not None else None
        with self._lock:
            if request_id is not None:
                known = self._request_seqs.get(request_id)
                if known is not None:
                    seq, known_digest = known
                    if known_digest != digest:
                        raise DuplicateRequestError(request_id, seq)
                    return {"seq": seq, "deduped": True}
            tail = self._manifest.shards[-1]
            paths = self._copies(tail).journal_paths(self._wal_dir)
            quorum = self._effective_quorum(len(paths))
            seq = self._next_seq
            # The sequence number is burned even if the fan-out fails
            # below quorum: a journal that acked holds it durably, and
            # reusing it for different content would corrupt replay.
            self._next_seq = seq + 1
            acked = 0
            failed: list[str] = []
            last_error: OSError | None = None
            for i, path in enumerate(paths):
                try:
                    self._writer_for(path).append(seq, record, request_id=request_id)
                except OSError as error:
                    last_error = error
                    failed.append(path.name)
                    writer = self._writers.pop(str(path), None)
                    if writer is not None:
                        try:
                            writer.close()
                        except OSError:
                            pass
                    continue
                acked += 1
                fault_point(f"append:journal-acked:{i}")
            if acked < quorum:
                raise WriteQuorumError(
                    tail.name, acked, quorum, len(paths), cause=last_error
                ) from last_error
            if failed:
                self._note_quorum_degraded(tail.name, failed, acked, len(paths))
            self._pending.setdefault(tail.name, []).append(
                Frame(seq=seq, record=record, request_id=request_id)
            )
            if request_id is not None and digest is not None:
                self._request_seqs[request_id] = (seq, digest)
            return {"seq": seq, "deduped": False}

    def _effective_quorum(self, journals: int) -> int:
        if self.ack_quorum is None:
            return journals
        return min(self.ack_quorum, journals)

    def _note_quorum_degraded(
        self, shard: str, failed: list[str], acked: int, journals: int
    ) -> None:
        key = (shard, tuple(sorted(failed)))
        if key in self._quorum_warned:
            return
        self._quorum_warned.add(key)
        self._load_warnings.append(
            QueryWarning(
                QUORUM_DEGRADED,
                f"append to shard {shard!r} acknowledged by {acked}/{journals} "
                f"replica journal(s); {', '.join(failed)} failed — durability "
                "is degraded until recovery re-levels the journals",
                detail={
                    "shard": shard,
                    "acked": acked,
                    "journals": journals,
                    "failed": failed,
                },
            )
        )

    # -- querying ---------------------------------------------------------------

    def query(
        self, query: Query | str, budget: ResourceBudget | None = None
    ) -> QueryResult:
        """The sharded scatter-gather over the base shards and every dirty
        shard's delta segments — the merged rows are those of a full rebuild
        of the logical corpus."""
        return super().query(query, budget=budget)

    def _sources(self) -> list[_Shard]:
        """The base shards, each dirty one followed by its delta segments:
        one snapshot per query, taken under the append lock."""
        with self._lock:
            sources = []
            for shard in self._shards:
                sources.append(shard)
                frames = self._pending.get(shard.name)
                if frames:
                    sources.extend(
                        segment.source
                        for segment in self._segments_for(shard.name, frames)
                    )
            return sources

    def _segments_for(self, shard_name: str, frames: list[Frame]) -> list[_Segment]:
        """The dirty shard's segments, oldest first, once the frames no
        segment covers yet became one new segment and the size-tiered merge
        ran.  A merge always takes the newest two, so its frames are the
        pending tail."""
        segments = self._segments.setdefault(shard_name, [])
        covered = sum(segment.records for segment in segments)
        if covered < len(frames):
            segments.append(self._segment(shard_name, frames[covered:]))
        while len(segments) > 1 and segments[-2].records <= 2 * segments[-1].records:
            merged = segments.pop().records + segments.pop().records
            segments.append(self._segment(shard_name, frames[-merged:]))
        return segments

    def _segment(self, shard_name: str, frames: list[Frame]) -> _Segment:
        first, last = frames[0].seq, frames[-1].seq
        (source,) = self._adopt(
            [
                _Shard(
                    name=f"{shard_name}{DELTA_SUFFIX}:{first}-{last}",
                    text="".join(frame.record for frame in frames),
                )
            ]
        )
        return _Segment(first, last, len(frames), source)

    # -- compaction and the shard lifecycle -------------------------------------

    def compact(self) -> dict[str, Any]:
        """Fold every dirty shard's delta into its base index, then split
        the tail shard if it outgrew ``max_shard_bytes``.

        Commit points, in order, per shard: (1) the staging-sibling
        rename-swap that lands the folded index *and* its ``applied_seq``
        checkpoint atomically (a replicated shard folds into every replica
        and commits via the shard-level manifest rewrite instead); (2) the
        root-manifest rewrite refreshing the shard's fingerprint; (3) the
        atomic journal trim.  A crash between any two is recovered by
        :meth:`open` — step 1 makes the remaining steps idempotent
        housekeeping.
        """
        with self._lock:
            self._close_writers()
            unchanged = {
                _entry_key(entry): shard
                for entry, shard in zip(self._manifest.shards, self._shards)
            }
            folded: dict[str, int] = {}
            for entry in list(self._manifest.shards):
                frames = self._pending.get(entry.name)
                if not frames:
                    continue
                copies = self._copies(entry)
                applied = frames[-1].seq
                new_text = copies.base_text() + "".join(frame.record for frame in frames)
                copies.fold(
                    FileQueryEngine(self.schema, new_text, self.config),
                    {"applied_seq": applied},
                )
                fault_point("compact:shard-saved")
                self._replace_entry(
                    entry,
                    dataclass_replace(entry, corpus_fingerprint=corpus_fingerprint(new_text)),
                )
                save_shard_manifest(self.root, self._manifest)
                fault_point("compact:manifest-updated")
                for path in copies.journal_paths(self._wal_dir):
                    trim_journal(path, applied)
                self._pending.pop(entry.name, None)
                self._segments.pop(entry.name, None)
                for frame in frames:
                    # Folded frames leave the journal, and their request
                    # ids leave the dedupe window with them.
                    if frame.request_id is not None:
                        self._request_seqs.pop(frame.request_id, None)
                folded[entry.name] = len(frames)
            split = self._maybe_split() if self.max_shard_bytes is not None else None
            # Only folded shards and split children start cold: every other
            # shard keeps its loaded engine, caches, breaker and copies.
            self._shards = [
                unchanged.get(_entry_key(entry)) or self._adopt([shard])[0]
                for entry, shard in zip(
                    self._manifest.shards, self._saved_shards(self.root, self._manifest)
                )
            ]
            return {"folded": folded, "split": split}

    def _replace_entry(self, old: ShardEntry, new: ShardEntry) -> None:
        entries = tuple(
            new if entry.name == old.name else entry
            for entry in self._manifest.shards
        )
        self._manifest = dataclass_replace(self._manifest, shards=entries)

    def _maybe_split(self) -> dict[str, Any] | None:
        """Split the (just-compacted) tail shard in two when it exceeds the
        byte budget.  New shard directories are always fresh slugs — the
        old directory is never reused — and the root manifest rewrite is
        the commit point; the old directory and journal are garbage
        afterwards.  A replicated tail splits into children saved with the
        same replica count."""
        tail = self._manifest.shards[-1]
        copies = self._copies(tail)
        replicas = len(copies) if len(copies) > 1 else None
        text = copies.base_text()
        if len(text.encode("utf-8")) <= self.max_shard_bytes:
            return None
        halves = split_corpus(self.schema, text, 2)
        if len(halves) < 2:
            return None  # a single record cannot be split
        applied = saved_applied_seq(copies.directory)
        position = len(self._manifest.shards) - 1
        new_entries: list[ShardEntry] = []
        for offset, half in enumerate(halves):
            name = f"{tail.name}/{offset}"
            index = position + offset
            relative = f"{SHARDS_SUBDIR}/{shard_slug(name, index)}"
            while (self.root / relative).exists():
                index += len(self._manifest.shards) + 1
                relative = f"{SHARDS_SUBDIR}/{shard_slug(name, index)}"
            FileQueryEngine(self.schema, half, self.config).save(
                str(self.root / relative),
                live={"applied_seq": applied},
                replicas=replicas,
            )
            new_entries.append(
                ShardEntry(
                    name=name,
                    directory=relative,
                    corpus_fingerprint=corpus_fingerprint(half),
                    source=None,
                )
            )
        fault_point("split:shards-saved")
        self._manifest = dataclass_replace(
            self._manifest, shards=self._manifest.shards[:-1] + tuple(new_entries)
        )
        save_shard_manifest(self.root, self._manifest)
        fault_point("split:manifest-updated")
        shutil.rmtree(copies.directory, ignore_errors=True)
        for path in copies.journal_paths(self._wal_dir):
            path.unlink(missing_ok=True)
        warning = QueryWarning(
            SHARD_SPLIT,
            f"shard {tail.name!r} exceeded {self.max_shard_bytes} bytes and "
            f"split into {new_entries[0].name!r} and {new_entries[1].name!r}",
            detail={
                "shard": tail.name,
                "bytes": len(text.encode("utf-8")),
                "max_shard_bytes": self.max_shard_bytes,
                "into": [entry.name for entry in new_entries],
                "replicas": replicas,
            },
        )
        self._load_warnings.append(warning)
        return {
            "shard": tail.name,
            "into": [entry.name for entry in new_entries],
            "bytes": len(text.encode("utf-8")),
            "replicas": replicas,
        }

    # -- introspection ----------------------------------------------------------

    def status(self) -> dict[str, Any]:
        """A structured snapshot of the live state: shard roster with
        journal checkpoints, pending delta sizes, and journal footprint."""
        with self._lock:
            shards = []
            journal_bytes = 0
            for entry in self._manifest.shards:
                copies = self._copies(entry)
                size = sum(
                    wal.stat().st_size
                    for wal in copies.journal_paths(self._wal_dir)
                    if wal.exists()
                )
                journal_bytes += size
                shards.append(
                    {
                        "name": entry.name,
                        "directory": entry.directory,
                        "applied_seq": saved_applied_seq(self.root / entry.directory),
                        "pending": len(self._pending.get(entry.name, [])),
                        "journal_bytes": size,
                        "replicas": len(copies),
                    }
                )
            return {
                "root": str(self.root),
                "shards": shards,
                "tail": self._manifest.shards[-1].name,
                "pending_records": sum(
                    len(frames) for frames in self._pending.values()
                ),
                "next_seq": self._next_seq,
                "max_shard_bytes": self.max_shard_bytes,
                "journal_bytes": journal_bytes,
                "ack_quorum": self.ack_quorum,
                "request_ids": len(self._request_seqs),
            }

    def _backend(self) -> dict[str, Any]:
        base = super()._backend()
        with self._lock:
            return {
                **base,
                "type": "live",
                "base": "sharded",
                "pending_records": sum(
                    len(frames) for frames in self._pending.values()
                ),
                "next_seq": self._next_seq,
                "tail": self._manifest.shards[-1].name,
                "ack_quorum": self.ack_quorum,
                "delta_segments": {
                    name: [segment.records for segment in segments]
                    for name, segments in self._segments.items()
                },
            }

    def close(self) -> None:
        """Close the journal writers and the scatter pool."""
        with self._lock:
            self._close_writers()
        super().close()
