"""Index persistence.

Building region indexes requires parsing the corpus — by far the most
expensive step.  Persisting the engine saves the corpus text and the region
instance; the word index and sistring array are rebuilt from the text at
load time (tokenisation is an order of magnitude cheaper than parsing).

Layout of a saved engine directory::

    corpus.txt     the indexed text
    regions.json   {"region name": [[start, end], ...], ...}
    config.json    the IndexConfig that built the engine
    manifest.json  format version, per-file CRC32 checksums, the corpus
                   content hash, and (when known) the source file's
                   path/mtime/size fingerprint

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
    replica-0/         a complete, self-verifying v2/v3 index
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
import zlib
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
from repro.index.suffix_array import SuffixArray
from repro.index.word_index import WordIndex

if TYPE_CHECKING:  # pragma: no cover
    from repro.schema.structuring import StructuringSchema

_FORMAT_VERSION = 2
#: Version written when the index carries live-ingestion state (an
#: ``applied_seq`` journal checkpoint).  Plain saves stay at version 2 so
#: existing indexes and their readers are untouched.
_LIVE_FORMAT_VERSION = 3
_SUPPORTED_VERSIONS = (2, 3)

#: The files covered by manifest checksums.
_CHECKSUMMED = ("corpus.txt", "regions.json", "config.json")

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
    """Persist an engine's text and region indexes to ``directory``.

    ``source_path`` (optional) records the original file's mtime/size next
    to the corpus content hash, enabling cheap staleness checks at load
    time.

    ``live`` (optional) attaches live-ingestion state to the manifest —
    today the journal checkpoint ``{"applied_seq": N}``.  Because it rides
    in the manifest, it is committed by the *same* rename that promotes the
    folded data: a compaction can never land rows without advancing the
    checkpoint, or vice versa.  Saves carrying ``live`` are stamped format
    version 3; plain saves stay at version 2.

    ``replicas=N`` (optional, N >= 2) writes the replicated layout instead:
    ``replica-{i}/`` sibling directories under ``directory``, each a
    complete v2/v3 index, plus a ``kind="replicated"`` manifest recording
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
        if replicas is None:
            _write_index_files(engine, staging, schema_fingerprint, source_path, live)
        else:
            for i in range(replicas):
                replica = staging / replica_dir_name(i)
                replica.mkdir()
                _write_index_files(engine, replica, schema_fingerprint, source_path, live)
            save_replica_manifest(
                staging,
                corpus_fingerprint(engine.text),
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
        "format_version": _FORMAT_VERSION if live is None else _LIVE_FORMAT_VERSION,
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
    base index.  ``0`` when the index carries no live state."""
    live = load_live_state(directory)
    if live is None:
        return 0
    value = live.get("applied_seq", 0)
    return int(value) if isinstance(value, (int, float)) else 0


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


def _write_index_files(
    engine: IndexEngine,
    path: Path,
    schema_fingerprint: str | None,
    source_path: str | os.PathLike[str] | None,
    live: dict | None = None,
) -> None:
    """Write the four index files (corpus, regions, config, manifest) into
    an existing directory.  Callers are responsible for atomicity."""
    format_version = _FORMAT_VERSION if live is None else _LIVE_FORMAT_VERSION
    (path / "corpus.txt").write_text(engine.text, encoding="utf-8")
    regions = {
        name: [[region.start, region.end] for region in region_set]
        for name, region_set in engine.instance.items()
    }
    (path / "regions.json").write_text(json.dumps(regions), encoding="utf-8")
    config = engine.config
    config_data = {
        "version": format_version,
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
        "suffix_array": config.suffix_array,
    }
    if schema_fingerprint is not None:
        config_data["schema_fingerprint"] = schema_fingerprint
    (path / "config.json").write_text(json.dumps(config_data, indent=2), encoding="utf-8")

    source = source_record(source_path)
    manifest = {
        "format_version": format_version,
        "corpus_fingerprint": corpus_fingerprint(engine.text),
        "checksums": {
            name: _crc32((path / name).read_bytes()) for name in _CHECKSUMMED
        },
        "source": source,
    }
    if live is not None:
        manifest["live"] = dict(live)
    (path / "manifest.json").write_text(json.dumps(manifest, indent=2), encoding="utf-8")


def verify_index(directory: str | os.PathLike[str]) -> dict:
    """Check a saved index's integrity without loading it.

    Returns the manifest.  Raises :class:`IndexNotFoundError` when the
    directory is not a saved index and :class:`IndexCorruptError` on a
    missing manifest, a manifest that omits a file's checksum, any checksum
    mismatch or a missing checksummed file.
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
    for name in _CHECKSUMMED:
        if name not in checksums:
            # save_index checksums every one of these; a manifest that omits
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
        suffix_array=data["suffix_array"],
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
    """A saved name's ``[[start, end], …]`` spans as a region set.

    Raises ``ValueError`` or ``TypeError`` when an entry is not two ints,
    and :class:`RegionError` when a span is negative or inverted.
    """
    pairs = [(start, end) for start, end in spans]
    if not all(type(start) is int and type(end) is int for start, end in pairs):
        raise TypeError("a saved span is not two ints")
    return RegionSet.from_pairs(pairs)


def load_index(directory: str | os.PathLike[str]) -> IndexEngine:
    """Load a persisted engine; rebuilds word/suffix indexes from the text.

    Raises :class:`IndexNotFoundError` when ``directory`` is not a saved
    index, and :class:`IndexCorruptError` when it is one but fails
    integrity verification (checksums, structure, format version).
    """
    path = Path(directory)
    verify_index(path)
    try:
        text = (path / "corpus.txt").read_text(encoding="utf-8")
        regions_raw = (path / "regions.json").read_text(encoding="utf-8")
        config_raw = (path / "config.json").read_text(encoding="utf-8")
    except FileNotFoundError as error:
        missing = Path(getattr(error, "filename", "") or "").name
        if missing == "config.json" or not (path / "config.json").exists():
            raise IndexNotFoundError(str(path), str(error)) from None
        raise IndexCorruptError(
            str(path), f"missing file: {error}", part=missing or None
        ) from None
    try:
        regions_data = json.loads(regions_raw)
        config_data = json.loads(config_raw)
    except json.JSONDecodeError as error:
        raise IndexCorruptError(str(path), f"unparseable JSON: {error}") from None
    for name, data in (("regions.json", regions_data), ("config.json", config_data)):
        if not isinstance(data, dict):
            raise IndexCorruptError(
                str(path),
                f"{name} holds a {type(data).__name__}, not an object",
                part=name,
            )
    version = config_data.get("version")
    if version not in _SUPPORTED_VERSIONS:
        raise IndexCorruptError(
            str(path),
            f"unsupported saved-index version {version!r} "
            f"(supported: {_SUPPORTED_VERSIONS})",
            part="config.json",
        )
    try:
        config = _config_from(config_data)
        instance = Instance(
            {name: _region_set(spans) for name, spans in regions_data.items()}
        )
    except (KeyError, TypeError, ValueError, RegionError, IndexConfigError) as error:
        raise IndexCorruptError(
            str(path), f"malformed saved-index structure: {error!r}"
        ) from None
    word_index = None
    if config.word_index:
        scope = instance.get(config.word_scope) if config.word_scope else None
        word_index = WordIndex(text, lowercase=config.lowercase_words, scope=scope)
    suffixes = SuffixArray(text) if config.suffix_array else None
    return IndexEngine(
        text=text,
        instance=instance,
        word_index=word_index,
        suffix_array=suffixes,
        config=config,
    )
