"""The write-ahead journal: checksummed, record-boundary-aware frames.

Every live append is journaled *before* it is acknowledged.  The frame
format is fixed and self-delimiting::

    [u32 length][u32 crc32][payload]          (big-endian)
    payload = [u64 seq][UTF-8 record bytes]
    payload = [u64 seq|RID_FLAG][u16 rid_len][rid bytes][UTF-8 record]

``length`` counts payload bytes; ``crc32`` covers the payload.  The
sequence number is a monotonically increasing per-journal counter — it is
what the compaction checkpoint (``applied_seq`` in the shard's own
manifest) refers to, so replay can tell "already folded into the base
index" from "pending in the delta segment" without comparing bytes.

A frame may carry a client-supplied **request id** for idempotent
appends: the high bit of the sequence field (:data:`RID_FLAG`) marks its
presence, followed by a length-prefixed UTF-8 id before the record bytes.
Journals written before this extension never set the bit (sequence
numbers are far below 2**63), so old journals replay unchanged.

The ack contract: :meth:`JournalWriter.append` returns only after the
frame's bytes are flushed **and fsynced**.  A record whose append call
returned therefore survives any crash; a record whose call did not return
may or may not have reached the disk — and replay resolves that edge
deterministically:

- a frame that simply runs past end-of-file (short header *or* short
  payload) is a **torn tail** — the signature of a crash mid-write.
  Appends only ever extend the journal, so a torn frame is always the
  last one; :func:`replay_journal` truncates it away and carries on.
- a fully present frame whose CRC does not match, a complete header
  describing an impossible payload, or sequence numbers that fail to
  increase are **corruption** — in-place damage that truncation cannot
  explain — and raise :class:`~repro.errors.JournalCorruptError` rather
  than silently dropping acked data.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.errors import JournalCorruptError
from repro.resilience.fault import fault_point

_HEADER = struct.Struct(">II")  # payload length, payload crc32
_SEQ = struct.Struct(">Q")
_RID_LEN = struct.Struct(">H")

#: Smallest legal payload: a u64 sequence number and an empty record.
_MIN_PAYLOAD = _SEQ.size

#: High bit of the sequence field: this frame carries a request id.
RID_FLAG = 1 << 63


@dataclass(frozen=True)
class Frame:
    """One journaled append: its sequence number, the record text, and the
    client request id (``None`` unless the append asked for idempotence)."""

    seq: int
    record: str
    request_id: str | None = None


def encode_frame(seq: int, record: str, request_id: str | None = None) -> bytes:
    """The on-disk bytes for one frame (exposed for tests and the chaos
    scenarios, which forge torn tails from real frame prefixes)."""
    if seq >= RID_FLAG:
        raise ValueError(f"sequence number {seq} collides with the request-id flag bit")
    if request_id is None:
        payload = _SEQ.pack(seq) + record.encode("utf-8")
    else:
        rid = request_id.encode("utf-8")
        if len(rid) > 0xFFFF:
            raise ValueError(f"request id is {len(rid)} bytes; the frame format caps it at 65535")
        payload = _SEQ.pack(seq | RID_FLAG) + _RID_LEN.pack(len(rid)) + rid + record.encode("utf-8")
    return _HEADER.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF) + payload


@dataclass
class ReplayResult:
    """What :func:`replay_journal` found: the intact frames, plus how many
    torn-tail bytes were discarded (0 on a clean journal)."""

    frames: list[Frame]
    torn_bytes: int

    @property
    def max_seq(self) -> int:
        return self.frames[-1].seq if self.frames else 0


def replay_journal(
    path: str | os.PathLike[str], repair: bool = True
) -> ReplayResult:
    """Read every intact frame from a journal, truncating a torn tail.

    With ``repair`` (the default) a torn tail is also physically truncated
    from the file, so the next append extends a clean journal.  Raises
    :class:`~repro.errors.JournalCorruptError` on damage that is not a
    torn tail (see the module docstring for the torn/corrupt distinction).
    A missing journal is an empty one.
    """
    journal = Path(path)
    try:
        data = journal.read_bytes()
    except FileNotFoundError:
        return ReplayResult(frames=[], torn_bytes=0)
    frames: list[Frame] = []
    offset = 0
    last_seq = 0
    good_end = 0
    while offset < len(data):
        if len(data) - offset < _HEADER.size:
            break  # torn tail: header itself ran past EOF
        length, crc = _HEADER.unpack_from(data, offset)
        if length < _MIN_PAYLOAD:
            raise JournalCorruptError(
                str(journal),
                f"frame payload length {length} is below the {_MIN_PAYLOAD}-byte "
                "minimum (a sequence number no longer fits)",
                offset=offset,
            )
        start = offset + _HEADER.size
        if start + length > len(data):
            break  # torn tail: payload ran past EOF
        payload = data[start : start + length]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise JournalCorruptError(
                str(journal),
                "frame checksum mismatch (in-place damage, not a torn tail)",
                offset=offset,
            )
        (raw_seq,) = _SEQ.unpack_from(payload, 0)
        seq = raw_seq & ~RID_FLAG
        if seq <= last_seq:
            raise JournalCorruptError(
                str(journal),
                f"sequence numbers must increase (frame {seq} after {last_seq})",
                offset=offset,
            )
        body = _MIN_PAYLOAD
        request_id: str | None = None
        if raw_seq & RID_FLAG:
            if len(payload) < body + _RID_LEN.size:
                raise JournalCorruptError(
                    str(journal),
                    "frame claims a request id but the payload cannot hold "
                    "its length prefix",
                    offset=offset,
                )
            (rid_len,) = _RID_LEN.unpack_from(payload, body)
            body += _RID_LEN.size
            if len(payload) < body + rid_len:
                raise JournalCorruptError(
                    str(journal),
                    f"frame claims a {rid_len}-byte request id but the "
                    "payload ends early",
                    offset=offset,
                )
            try:
                request_id = payload[body : body + rid_len].decode("utf-8")
            except UnicodeDecodeError as error:
                raise JournalCorruptError(
                    str(journal),
                    f"frame request id is not valid UTF-8 despite a matching "
                    f"checksum: {error}",
                    offset=offset,
                ) from None
            body += rid_len
        try:
            record = payload[body:].decode("utf-8")
        except UnicodeDecodeError as error:
            raise JournalCorruptError(
                str(journal),
                f"frame record is not valid UTF-8 despite a matching "
                f"checksum: {error}",
                offset=offset,
            ) from None
        frames.append(Frame(seq=seq, record=record, request_id=request_id))
        last_seq = seq
        offset = start + length
        good_end = offset
    torn = len(data) - good_end
    if torn and repair:
        with open(journal, "r+b") as handle:
            handle.truncate(good_end)
            handle.flush()
            os.fsync(handle.fileno())
    return ReplayResult(frames=frames, torn_bytes=torn)


def trim_journal(path: str | os.PathLike[str], applied_seq: int) -> int:
    """Drop every frame at or below ``applied_seq`` — pure garbage
    collection, safe at any time, because the checkpoint those frames fed
    is already committed in the shard's own manifest.

    The trim is atomic (rewrite to a temporary sibling, fsync, rename);
    a journal left with no frames is deleted outright.  Returns how many
    frames remain.
    """
    journal = Path(path)
    replay = replay_journal(journal)
    kept = [frame for frame in replay.frames if frame.seq > applied_seq]
    if not kept:
        journal.unlink(missing_ok=True)
        return 0
    if len(kept) == len(replay.frames) and replay.torn_bytes == 0:
        return len(kept)  # nothing to drop and the tail is clean
    tmp = journal.parent / f".{journal.name}.trim-{os.getpid()}"
    with open(tmp, "wb") as handle:
        for frame in kept:
            handle.write(encode_frame(frame.seq, frame.record, frame.request_id))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, journal)
    return len(kept)


class JournalWriter:
    """Append frames to one shard's journal with an fsync-before-ack
    contract.  Not thread-safe by itself — the live engine serializes
    appends under its own lock."""

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "ab")

    def append(self, seq: int, record: str, request_id: str | None = None) -> None:
        """Write one frame and fsync it.  Returning *is* the ack: the
        record is durable.  The ``append:written`` fault point lies after
        the write but before the fsync — the widest unacked window."""
        self._handle.write(encode_frame(seq, record, request_id))
        fault_point("append:written")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
