"""Index persistence.

Building region indexes requires parsing the corpus — by far the most
expensive step.  Persisting the engine saves the corpus text, the region
instance and the word index's postings, so a load reads saved positions
back and re-tokenizes nothing.

Layout of a saved engine directory (format version 4)::

    corpus.txt     the indexed text
    spans.bin      a 4-byte little-endian length, then a JSON header
                   {"names": [...], "name_counts": [...], "words": [...],
                   "word_counts": [...]} with names and words in sorted
                   order, then one zlib-compressed array of 4-byte
                   little-endian ints: each name's spans, then each word's
                   postings, as start, end pairs in header order
    config.json    the IndexConfig that built the engine
    manifest.json  format version, per-file CRC32 checksums, the corpus
                   content hash, (when known) the source file's
                   path/mtime/size fingerprint, and (for a live index) the
                   journal checkpoint under ``live``

Loading checks ``spans.bin`` as a whole-array pass per check: counts match
the array, no bytes trail it, every span lies inside the text with its end
at or after its start, each name's spans are sorted and unique, and word
tokens do not overlap.  Directories saved as versions 2 and 3 hold a
``regions.json`` (``{"region name": [[start, end], ...], ...}``) instead
and no postings; they still load, with the word index rebuilt from the
text, and nothing writes them any more.

Integrity and staleness are distinguished by typed errors:

- :class:`~repro.errors.IndexNotFoundError` — the directory is not a saved
  index at all;
- :class:`~repro.errors.IndexCorruptError` — a file fails its recorded
  checksum, is truncated/unparseable, or the format version is unknown;
- :class:`~repro.errors.IndexStaleError` — the index is intact but the
  source file changed after it was built (raised by callers via
  :func:`stale_reason`).

A directory without ``manifest.json`` is a damaged index, not an older
format: nothing loads without checksum verification.

Saves are crash-safe: :func:`save_index` writes into a temporary sibling
directory and renames it into place only once every file (manifest
included) is on disk, so an interrupted save cannot leave a torn index.

Replicated layout (``save_index(..., replicas=N)``, N >= 2)::

    manifest.json      kind="replicated": the replica map, the corpus
                       fingerprint every replica must match, and (v3) the
                       live journal checkpoint — written last, the commit
                       point for the whole set
    replica-0/         a complete, self-verifying index
    replica-1/         ...
    quarantine-*/      damaged replicas set aside by the scrubber (never
                       deleted automatically)

Each ``replica-{i}/`` is a full saved index in its own right, so every
single-directory primitive in this module (verify, load, swap-in-place)
applies per replica unchanged.  This module writes and reads the bytes;
which directories hold a saved index's copies — and what to do when they
disagree — is decided by :class:`repro.shard.replica.ReplicaSet` alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import struct
import sys
import zlib
from array import array
from itertools import accumulate, chain, islice
from operator import le, lt
from pathlib import Path
from typing import TYPE_CHECKING

from repro.algebra.region import Instance, RegionSet
from repro.errors import (
    IndexConfigError,
    IndexCorruptError,
    IndexNotFoundError,
    RegionError,
)
from repro.index.config import IndexConfig, ScopedRegionSpec
from repro.index.engine import IndexEngine
from repro.index.word_index import WordIndex

if TYPE_CHECKING:  # pragma: no cover
    from repro.schema.structuring import StructuringSchema

#: The version every save writes: spans and postings packed in ``spans.bin``.
_FORMAT_VERSION = 4
#: Versions saved with a ``regions.json`` and no postings (3 when they carry
#: live state); they still load, and nothing writes them any more.
_JSON_VERSIONS = (2, 3)
_SUPPORTED_VERSIONS = (*_JSON_VERSIONS, _FORMAT_VERSION)

#: The files covered by manifest checksums, by format.
_CHECKSUMMED = ("corpus.txt", "spans.bin", "config.json")
_JSON_CHECKSUMMED = ("corpus.txt", "regions.json", "config.json")

#: ``spans.bin`` starts with the byte length of its JSON header.
_HEADER_LENGTH = struct.Struct("<I")
#: ``spans.bin``'s ints are 4-byte signed: offsets into a text under 2 GiB.
_SPAN_TYPECODE = "i"

#: Manifest ``kind`` marking a replicated shard directory.
REPLICA_KIND = "replicated"
REPLICA_FORMAT_VERSION = 1
#: Replica subdirectories are named ``replica-0``, ``replica-1``, ...
REPLICA_DIR_PREFIX = "replica-"
#: Damaged replicas are renamed (never deleted) under this prefix.
QUARANTINE_PREFIX = "quarantine-"


def replica_dir_name(index: int) -> str:
    return f"{REPLICA_DIR_PREFIX}{index}"


def schema_fingerprint(schema: "StructuringSchema") -> str:
    """A stable fingerprint of the structuring schema an index was built
    with: the grammar start symbol plus a hash of the non-terminal set.

    A saved index is a function of (corpus text, schema, index config);
    loading it under a *different* schema would silently produce wrong
    answers — region names would bind to the wrong grammar.  The
    fingerprint travels with the saved index so ``from_saved`` can refuse.
    """
    payload = json.dumps(
        {
            "start": schema.grammar.start,
            "nonterminals": sorted(schema.grammar.nonterminals),
        },
        sort_keys=True,
    )
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
    return f"{schema.grammar.start}:{digest}"


def corpus_fingerprint(text: str) -> str:
    """Content hash of a corpus text — the staleness comparand recorded at
    build time and recomputed against the current source at load time."""
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def _crc32(data: bytes) -> str:
    return f"crc32:{zlib.crc32(data) & 0xFFFFFFFF:08x}"


def load_schema_fingerprint(directory: str | os.PathLike[str]) -> str | None:
    """The fingerprint stored with a saved index (``None`` for indexes
    saved before fingerprints existed, or saved without a schema)."""
    path = Path(directory) / "config.json"
    try:
        config_data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise IndexNotFoundError(str(Path(directory)), "missing config.json") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise IndexCorruptError(
            str(Path(directory)), f"config.json unreadable: {error}", part="config.json"
        ) from None
    if not isinstance(config_data, dict):
        raise IndexCorruptError(
            str(Path(directory)), "config.json is not an object", part="config.json"
        )
    return config_data.get("schema_fingerprint")


def load_manifest(directory: str | os.PathLike[str]) -> dict | None:
    """The saved manifest, or ``None`` when the directory has none (which
    :func:`verify_index` treats as damage).

    Raises :class:`IndexCorruptError` when a manifest exists but cannot be
    parsed.
    """
    path = Path(directory) / "manifest.json"
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise IndexCorruptError(
            str(Path(directory)), f"manifest unreadable: {error}", part="manifest.json"
        ) from None
    if not isinstance(data, dict):
        raise IndexCorruptError(
            str(Path(directory)), "manifest is not an object", part="manifest.json"
        )
    return data


def save_index(
    engine: IndexEngine,
    directory: str | os.PathLike[str],
    schema_fingerprint: str | None = None,
    source_path: str | os.PathLike[str] | None = None,
    live: dict | None = None,
    replicas: int | None = None,
) -> None:
    """Persist an engine's text, region indexes and word postings to
    ``directory``, in format version 4 (see the module docstring).

    ``source_path`` (optional) records the original file's mtime/size next
    to the corpus content hash, enabling cheap staleness checks at load
    time.

    ``live`` (optional) attaches live-ingestion state to the manifest —
    today the journal checkpoint ``{"applied_seq": N}``.  Because it rides
    in the manifest, it is committed by the *same* rename that promotes the
    folded data: a compaction can never land rows without advancing the
    checkpoint, or vice versa.

    ``replicas=N`` (optional, N >= 2) writes the replicated layout instead:
    ``replica-{i}/`` sibling directories under ``directory``, each a
    complete index, plus a ``kind="replicated"`` manifest recording
    the replica map.  The manifest is written last inside the staging
    sibling, and the whole set is promoted by one rename — the same commit
    point discipline as a plain save.

    The save is crash-safe: every file is written into a temporary sibling
    directory which is renamed into place only once complete.  A process
    killed mid-save therefore never leaves a half-written index at
    ``directory`` — the previous index (if any) survives intact instead of
    failing at checksum-verify time on the next load.  When replacing an
    existing index the swap is two renames (retire the old directory,
    promote the new one); a crash exactly between them leaves the old
    index complete under a ``.<name>.retired-*`` sibling rather than a
    torn mixture of the two.
    """
    check_replicas(replicas)
    target = Path(directory)
    target.parent.mkdir(parents=True, exist_ok=True)
    sweep_stale_staging(target)
    staging = target.parent / f".{target.name}.saving-{os.getpid()}"
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir()
    try:
        files = _index_files(engine, schema_fingerprint)
        fingerprint = corpus_fingerprint(engine.text)
        if replicas is None:
            _write_index_files(files, staging, fingerprint, source_path, live)
        else:
            for i in range(replicas):
                replica = staging / replica_dir_name(i)
                replica.mkdir()
                _write_index_files(files, replica, fingerprint, source_path, live)
            save_replica_manifest(
                staging,
                fingerprint,
                [replica_dir_name(i) for i in range(replicas)],
                source_record(source_path),
                live,
            )
        _swap_into_place(staging, target)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def check_replicas(replicas: int | None) -> None:
    """The one rule for ``replicas``: ``None`` saves a plain directory, and
    a replicated layout holds at least two copies — one copy would only be
    a plain directory spelled differently."""
    if replicas is not None and replicas < 2:
        raise ValueError("replicas needs at least 2 copies to be worth the disk")


def source_record(source_path: str | os.PathLike[str] | None) -> dict | None:
    if source_path is None:
        return None
    source: dict = {"path": str(source_path)}
    try:
        stat = os.stat(source_path)
        source["mtime"] = stat.st_mtime
        source["size"] = stat.st_size
    except OSError:
        pass  # fingerprint still works via the content hash
    return source


def _replica_manifest_data(
    fingerprint: str | None,
    replica_names: list[str],
    source: dict | None,
    live: dict | None,
) -> dict:
    manifest = {
        "format_version": _FORMAT_VERSION,
        "kind": REPLICA_KIND,
        "replica_format_version": REPLICA_FORMAT_VERSION,
        "corpus_fingerprint": fingerprint,
        "replicas": [{"directory": name} for name in replica_names],
        "source": source,
    }
    if live is not None:
        manifest["live"] = dict(live)
    return manifest


def save_replica_manifest(
    directory: str | os.PathLike[str],
    fingerprint: str,
    replica_names: list[str],
    source: dict | None = None,
    live: dict | None = None,
) -> None:
    """Atomically (re)write the shard-level manifest of a replicated
    directory — the commit point for compactions and reconciliations that
    update replicas in place rather than re-staging the whole set."""
    target = Path(directory)
    data = _replica_manifest_data(fingerprint, replica_names, source, live)
    tmp = target / f".manifest.json.tmp-{os.getpid()}"
    tmp.write_text(json.dumps(data, indent=2), encoding="utf-8")
    os.replace(tmp, target / "manifest.json")


def load_replica_manifest(directory: str | os.PathLike[str]) -> dict | None:
    """The replicated-layout manifest of ``directory``, or ``None`` when
    the directory is not a replicated index.

    A damaged shard-level manifest must not make a shard with intact
    replicas unreadable: when the manifest is missing, unparseable, or a
    replicated manifest with a malformed replica map, but ``replica-*/``
    subdirectories exist, a degraded manifest is synthesised from the
    directory listing (``corpus_fingerprint`` is ``None`` — no recorded
    expectation survives — and ``"manifest_damaged": True`` marks it for
    the scrubber).
    """
    path = Path(directory)
    try:
        manifest = load_manifest(path)
    except IndexCorruptError:
        manifest = None
    if manifest is not None:
        if manifest.get("kind") != REPLICA_KIND:
            return None  # a plain (or sharded-root) manifest
        replicas = manifest.get("replicas")
        if isinstance(replicas, list) and all(
            isinstance(r, dict) and isinstance(r.get("directory"), str)
            for r in replicas
        ):
            return manifest
    listed = sorted(
        entry.name
        for entry in path.glob(f"{REPLICA_DIR_PREFIX}*")
        if entry.is_dir()
    )
    if not listed:
        return None
    return {**_replica_manifest_data(None, listed, None, None), "manifest_damaged": True}


def sweep_stale_staging(directory: str | os.PathLike[str]) -> list[str]:
    """Remove orphaned staging/retired siblings left by a crash mid-save.

    A process killed inside :func:`save_index` can leave a
    ``.<name>.saving-<pid>`` (and, mid-swap, a ``.<name>.retired-<pid>``)
    sibling directory behind forever.  They are dead weight: the swap
    protocol guarantees the *target* is always a complete index, so any
    sibling belonging to another (necessarily dead or restarted) save
    attempt is safe to delete.  Returns the removed paths so callers can
    surface a ``stale-staging-removed`` warning.
    """
    target = Path(directory)
    removed: list[str] = []
    parent = target.parent
    if not parent.is_dir():
        return removed
    for kind in ("saving", "retired"):
        for orphan in parent.glob(f".{target.name}.{kind}-*"):
            if not orphan.is_dir():
                continue
            shutil.rmtree(orphan, ignore_errors=True)
            if not orphan.exists():
                removed.append(str(orphan))
    return removed


def load_live_state(directory: str | os.PathLike[str]) -> dict | None:
    """The live-ingestion state stored in a saved index's manifest, or
    ``None`` when the index has none (v2, or v3 without the key)."""
    manifest = load_manifest(directory)
    if manifest is None:
        return None
    live = manifest.get("live")
    return dict(live) if isinstance(live, dict) else None


def applied_seq(directory: str | os.PathLike[str]) -> int:
    """The journal checkpoint recorded with a saved index: every journal
    frame with ``seq`` at or below this value is already folded into the
    base index.  ``0`` when the index carries no live state.

    Raises :class:`IndexCorruptError` when the recorded value is anything
    but a non-negative ``int``: a float, a bool or a string is damage, and
    reading it as a number could skip a frame that was never folded in.
    """
    live = load_live_state(directory)
    if live is None:
        return 0
    value = live.get("applied_seq", 0)
    if type(value) is not int or value < 0:
        raise IndexCorruptError(
            str(Path(directory)),
            f"live applied_seq {value!r} is not a non-negative int",
            part="manifest.json",
        )
    return value


def _swap_into_place(staging: Path, target: Path) -> None:
    """Promote a fully written ``staging`` directory to ``target``.

    A fresh target is a single atomic rename.  Replacing an existing index
    retires the old directory first; if promoting the new one then fails,
    the old index is restored before the error propagates.
    """
    if not target.exists():
        os.rename(staging, target)
        return
    retired = target.parent / f".{target.name}.retired-{os.getpid()}"
    if retired.exists():
        shutil.rmtree(retired)
    os.rename(target, retired)
    try:
        os.rename(staging, target)
    except OSError:
        os.rename(retired, target)
        raise
    shutil.rmtree(retired, ignore_errors=True)


def _index_files(engine: IndexEngine, schema_fingerprint: str | None) -> dict[str, bytes]:
    """The checksummed files of a saved index, by name, in memory: every
    copy of one save writes the same bytes."""
    config = engine.config
    config_data = {
        "version": _FORMAT_VERSION,
        "region_names": (
            sorted(config.region_names) if config.region_names is not None else None
        ),
        "scoped": [
            {"source": spec.source, "scope": spec.scope, "name": spec.name}
            for spec in config.scoped
        ],
        "word_index": config.word_index,
        "word_scope": config.word_scope,
        "lowercase_words": config.lowercase_words,
    }
    if schema_fingerprint is not None:
        config_data["schema_fingerprint"] = schema_fingerprint
    return {
        "corpus.txt": engine.text.encode("utf-8"),
        "spans.bin": _pack_spans(engine),
        "config.json": json.dumps(config_data, indent=2).encode("utf-8"),
    }


def _write_index_files(
    files: dict[str, bytes],
    path: Path,
    fingerprint: str,
    source_path: str | os.PathLike[str] | None,
    live: dict | None = None,
) -> None:
    """Write one copy of an index (its files, then the manifest that
    checksums them) into an existing directory.  Callers are responsible
    for atomicity."""
    for name, data in files.items():
        (path / name).write_bytes(data)
    manifest = {
        "format_version": _FORMAT_VERSION,
        "corpus_fingerprint": fingerprint,
        "checksums": {name: _crc32(files[name]) for name in _CHECKSUMMED},
        "source": source_record(source_path),
    }
    if live is not None:
        manifest["live"] = dict(live)
    (path / "manifest.json").write_text(json.dumps(manifest, indent=2), encoding="utf-8")


def _pack_spans(engine: IndexEngine) -> bytes:
    """``spans.bin``: a JSON header naming the region names and words, in
    sorted order, with their span counts; then one zlib-compressed array of
    little-endian ints holding each name's spans and then each word's
    postings, ``start, end`` pairs in header order."""
    names = engine.instance.names
    sets = [engine.instance.get(name) for name in names]
    words = engine.word_index.vocabulary if engine.word_index is not None else ()
    postings = [engine.word_index.postings[word] for word in words]
    flat = chain(
        chain.from_iterable(chain.from_iterable(region_set.pairs() for region_set in sets)),
        chain.from_iterable(postings),
    )
    values = array(_SPAN_TYPECODE, flat)
    if sys.byteorder == "big":
        values.byteswap()
    header = json.dumps(
        {
            "names": list(names),
            "name_counts": [len(region_set) for region_set in sets],
            "words": list(words),
            "word_counts": [len(spans) // 2 for spans in postings],
        },
        ensure_ascii=False,
    ).encode("utf-8")
    return b"".join(
        (_HEADER_LENGTH.pack(len(header)), header, zlib.compress(values.tobytes(), 1))
    )


def _unpack_spans(
    data: bytes, text_length: int
) -> tuple[dict[str, RegionSet], dict[str, "array[int]"]]:
    """Read ``spans.bin`` back: each name's region set and each word's
    postings.

    Raises ``ValueError`` (or :class:`RegionError`) when the header is
    malformed, the counts do not match the arrays, bytes trail the data,
    or a span is negative, inverted, past ``text_length``, or out of order.
    Every span check is a pass over a whole array.
    """
    (length,) = _HEADER_LENGTH.unpack_from(data)
    header = json.loads(data[_HEADER_LENGTH.size : _HEADER_LENGTH.size + length])
    if not isinstance(header, dict):
        raise ValueError("spans.bin header is not an object")
    names, name_counts = header.get("names"), header.get("name_counts")
    words, word_counts = header.get("words"), header.get("word_counts")
    for keys, counts in ((names, name_counts), (words, word_counts)):
        if not (
            isinstance(keys, list)
            and isinstance(counts, list)
            and len(keys) == len(counts)
            and set(map(type, keys)) <= {str}
            and set(map(type, counts)) <= {int}
            and min(counts, default=0) >= 0
            and all(map(lt, keys, islice(keys, 1, None)))
        ):
            raise ValueError("spans.bin header lists are malformed or unsorted")
    decompressor = zlib.decompressobj()
    raw = decompressor.decompress(data[_HEADER_LENGTH.size + length :])
    if not decompressor.eof or decompressor.unused_data:
        raise ValueError("spans.bin is truncated or has trailing bytes")
    values = array(_SPAN_TYPECODE)
    values.frombytes(raw)
    if sys.byteorder == "big":
        values.byteswap()
    if len(values) != 2 * (sum(name_counts) + sum(word_counts)):
        raise ValueError(
            f"spans.bin holds {len(values)} ints, not the 2 x "
            f"{sum(name_counts) + sum(word_counts)} its header counts"
        )
    starts, ends = values[0::2], values[1::2]
    if values and (
        min(starts) < 0 or not all(map(le, starts, ends)) or max(ends) > text_length
    ):
        raise ValueError(
            f"spans.bin holds a negative or inverted span, or one past the "
            f"text's end ({text_length})"
        )
    offsets = [2 * offset for offset in accumulate(chain(name_counts, word_counts), initial=0)]
    sets = {}
    for name, low, high in zip(names, offsets, offsets[1:]):
        spans = values[low:high]
        sets[name] = RegionSet.from_arrays(spans[0::2], spans[1::2])
    bounds = islice(zip(offsets, offsets[1:]), len(names), None)
    postings = {word: values[low:high] for word, (low, high) in zip(words, bounds)}
    return sets, postings


def verify_index(directory: str | os.PathLike[str]) -> dict:
    """Check a saved index's integrity without loading it.

    Returns the manifest.  Raises :class:`IndexNotFoundError` when the
    directory is not a saved index and :class:`IndexCorruptError` on a
    missing manifest, an unknown format version, a manifest that omits one
    of its format's checksums, any checksum mismatch or a missing
    checksummed file.
    """
    path = Path(directory)
    if not (path / "config.json").exists():
        raise IndexNotFoundError(str(path), "missing config.json")
    manifest = load_manifest(path)
    if manifest is None:
        # No manifest means no checksums to hold the other files to: that
        # is damage, never a licence to load them unverified.
        raise IndexCorruptError(
            str(path), "manifest.json is missing", part="manifest.json"
        )
    checksums = manifest.get("checksums")
    if not isinstance(checksums, dict):
        raise IndexCorruptError(
            str(path), "manifest has no checksums", part="manifest.json"
        )
    version = manifest.get("format_version")
    if version not in _SUPPORTED_VERSIONS:
        raise IndexCorruptError(
            str(path),
            f"unsupported saved-index version {version!r} "
            f"(supported: {_SUPPORTED_VERSIONS})",
            part="manifest.json",
        )
    for name in _JSON_CHECKSUMMED if version in _JSON_VERSIONS else _CHECKSUMMED:
        if name not in checksums:
            # Every save checksums each of its files; a manifest that omits
            # one would let that file load unverified.
            raise IndexCorruptError(
                str(path), f"manifest has no checksum for {name}", part="manifest.json"
            )
    for name, expected in checksums.items():
        try:
            actual = _crc32((path / name).read_bytes())
        except FileNotFoundError:
            raise IndexCorruptError(
                str(path), f"checksummed file {name} is missing", part=name
            ) from None
        if actual != expected:
            raise IndexCorruptError(
                str(path),
                f"checksum mismatch for {name} (expected {expected}, got {actual})",
                part=name,
            )
    return manifest


def stale_reason(
    directory: str | os.PathLike[str],
    source_text: str | None = None,
    source_path: str | os.PathLike[str] | None = None,
) -> str | None:
    """Why the saved index is stale against the current source, or ``None``
    when it is fresh (or staleness cannot be assessed).

    Decisive check: the corpus content hash recorded at build time vs. the
    hash of the current source text.  When only a path is given, the file
    is read; its stored mtime/size (if recorded) are reported in the
    reason for diagnostics.
    """
    path = Path(directory)
    if source_text is None and source_path is None:
        return None
    if source_text is None:
        try:
            source_text = Path(source_path).read_text(encoding="utf-8")
        except OSError as error:
            return f"source file {source_path!s} unreadable: {error}"
    current = corpus_fingerprint(source_text)
    manifest = load_manifest(path)
    saved = manifest.get("corpus_fingerprint") if manifest is not None else None
    if not isinstance(saved, str) or saved == current:
        return None  # fresh, or no recorded basis (load_index judges the damage)
    reason = (
        f"source content changed since the index was built "
        f"(saved {saved}, current {current})"
    )
    if isinstance(manifest.get("source"), dict):
        recorded = manifest["source"]
        if "mtime" in recorded:
            reason += f"; indexed source mtime {recorded['mtime']}"
    return reason


def _config_from(data: dict) -> IndexConfig:
    """The config a ``config.json`` records.  Keys it does not read are
    ignored: earlier releases saved a flag for an index structure that is
    gone, and those saves still load."""
    return IndexConfig(
        region_names=(
            frozenset(data["region_names"]) if data["region_names"] is not None else None
        ),
        scoped=tuple(
            ScopedRegionSpec(source=item["source"], scope=item["scope"], name=item["name"])
            for item in data["scoped"]
        ),
        word_index=data["word_index"],
        word_scope=data["word_scope"],
        lowercase_words=data["lowercase_words"],
    )


def load_index_config(directory: str | os.PathLike[str]) -> IndexConfig | None:
    """The :class:`IndexConfig` a saved index directory was built with,
    without loading it; ``None`` when its ``config.json`` is unreadable."""
    path = Path(directory) / "config.json"
    try:
        return _config_from(json.loads(path.read_text(encoding="utf-8")))
    except (OSError, ValueError, KeyError, TypeError, IndexConfigError):
        return None


def _region_set(spans: list) -> RegionSet:
    """A ``regions.json`` name's ``[[start, end], …]`` spans as a region set.

    Raises ``ValueError`` or ``TypeError`` when an entry is not two ints,
    and :class:`RegionError` when a span is negative or inverted.
    """
    pairs = [(start, end) for start, end in spans]
    if not all(type(start) is int and type(end) is int for start, end in pairs):
        raise TypeError("a saved span is not two ints")
    return RegionSet.from_pairs(pairs)


def _read_json_regions(path: Path) -> dict[str, RegionSet]:
    """The region sets of a version 2/3 directory's ``regions.json``."""
    try:
        regions_data = json.loads((path / "regions.json").read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise IndexCorruptError(
            str(path), "missing file: regions.json", part="regions.json"
        ) from None
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise IndexCorruptError(
            str(path), f"unparseable JSON: {error}", part="regions.json"
        ) from None
    if not isinstance(regions_data, dict):
        raise IndexCorruptError(
            str(path),
            f"regions.json holds a {type(regions_data).__name__}, not an object",
            part="regions.json",
        )
    try:
        return {name: _region_set(spans) for name, spans in regions_data.items()}
    except (TypeError, ValueError, RegionError) as error:
        raise IndexCorruptError(
            str(path), f"malformed saved-index structure: {error!r}", part="regions.json"
        ) from None


def load_index(directory: str | os.PathLike[str]) -> IndexEngine:
    """Load a persisted engine.

    A current save's region sets and word postings are read straight from
    ``spans.bin``: nothing is re-tokenized.  A version 2/3 directory's
    ``regions.json`` still loads, and its word index is rebuilt from the
    text.

    Raises :class:`IndexNotFoundError` when ``directory`` is not a saved
    index, and :class:`IndexCorruptError` when it is one but fails
    integrity verification (checksums, structure, format version).
    """
    path = Path(directory)
    manifest = verify_index(path)
    try:
        text = (path / "corpus.txt").read_text(encoding="utf-8")
        config_raw = (path / "config.json").read_text(encoding="utf-8")
    except FileNotFoundError as error:
        missing = Path(getattr(error, "filename", "") or "").name
        if missing == "config.json" or not (path / "config.json").exists():
            raise IndexNotFoundError(str(path), str(error)) from None
        raise IndexCorruptError(
            str(path), f"missing file: {error}", part=missing or None
        ) from None
    try:
        config_data = json.loads(config_raw)
    except json.JSONDecodeError as error:
        raise IndexCorruptError(
            str(path), f"unparseable JSON: {error}", part="config.json"
        ) from None
    if not isinstance(config_data, dict):
        raise IndexCorruptError(
            str(path),
            f"config.json holds a {type(config_data).__name__}, not an object",
            part="config.json",
        )
    version = config_data.get("version")
    if version != manifest["format_version"]:
        raise IndexCorruptError(
            str(path),
            f"config.json's version {version!r} is not the manifest's "
            f"{manifest['format_version']!r}",
            part="config.json",
        )
    try:
        config = _config_from(config_data)
    except (KeyError, TypeError, ValueError, IndexConfigError) as error:
        raise IndexCorruptError(
            str(path), f"malformed saved-index structure: {error!r}", part="config.json"
        ) from None
    postings = None
    if version in _JSON_VERSIONS:
        sets = _read_json_regions(path)
    else:
        try:
            data = (path / "spans.bin").read_bytes()
            sets, postings = _unpack_spans(data, len(text))
        except FileNotFoundError:
            raise IndexCorruptError(
                str(path), "missing file: spans.bin", part="spans.bin"
            ) from None
        except (ValueError, struct.error, zlib.error, RegionError) as error:
            raise IndexCorruptError(
                str(path), f"malformed spans.bin: {error}", part="spans.bin"
            ) from None
    instance = Instance(sets)
    word_index = None
    if config.word_index and postings is not None:
        try:
            word_index = WordIndex.from_postings(
                postings, lowercase=config.lowercase_words
            )
        except ValueError as error:
            raise IndexCorruptError(
                str(path), f"malformed spans.bin: {error}", part="spans.bin"
            ) from None
    elif config.word_index:
        scope = instance.get(config.word_scope) if config.word_scope else None
        word_index = WordIndex(text, lowercase=config.lowercase_words, scope=scope)
    return IndexEngine(
        text=text, instance=instance, word_index=word_index, config=config
    )
