"""Saved-index layouts written and read back by tests, independently of
:mod:`repro.index.persist`.

- :func:`write_json_index` writes the version 2/3 layout (a
  ``regions.json`` and no postings) that older releases saved, so tests can
  check that such directories still load.
- :func:`read_spans` / :func:`write_spans` decode and re-encode a version 4
  ``spans.bin`` from its documented layout, and re-sign it in the
  manifest, so damage tests reach the load path's structural checks
  rather than stopping at the checksum.
- :func:`add_suffix_array_key` rewrites a version 4 ``config.json`` the
  way earlier releases saved it, with a ``suffix_array`` flag.
"""

from __future__ import annotations

import json
import struct
import sys
import zlib
from array import array
from pathlib import Path

from repro.index.engine import IndexEngine
from repro.index.persist import corpus_fingerprint


def _crc32(data: bytes) -> str:
    return f"crc32:{zlib.crc32(data) & 0xFFFFFFFF:08x}"


def write_json_index(engine: IndexEngine, directory: Path, live: dict | None = None) -> None:
    """Save ``engine`` as a version 2 directory (version 3 with ``live``)."""
    version = 2 if live is None else 3
    directory.mkdir(parents=True)
    (directory / "corpus.txt").write_text(engine.text, encoding="utf-8")
    regions = {
        name: [[region.start, region.end] for region in region_set]
        for name, region_set in engine.instance.items()
    }
    (directory / "regions.json").write_text(json.dumps(regions), encoding="utf-8")
    config = engine.config
    config_data = {
        "version": version,
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
        "suffix_array": False,
    }
    (directory / "config.json").write_text(json.dumps(config_data, indent=2), encoding="utf-8")
    manifest = {
        "format_version": version,
        "corpus_fingerprint": corpus_fingerprint(engine.text),
        "checksums": {
            name: _crc32((directory / name).read_bytes())
            for name in ("corpus.txt", "regions.json", "config.json")
        },
        "source": None,
    }
    if live is not None:
        manifest["live"] = dict(live)
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2), encoding="utf-8")


def read_spans(directory: Path) -> tuple[dict, list[int]]:
    """The header and the flat int values of ``directory/spans.bin``."""
    data = (directory / "spans.bin").read_bytes()
    (length,) = struct.unpack_from("<I", data)
    header = json.loads(data[4 : 4 + length])
    values = array("i", zlib.decompress(data[4 + length :]))
    if sys.byteorder == "big":
        values.byteswap()
    return header, values.tolist()


def pack_spans(header: dict, values: list[int]) -> bytes:
    """``spans.bin`` bytes for a header and flat int values."""
    packed = array("i", values)
    if sys.byteorder == "big":
        packed.byteswap()
    encoded = json.dumps(header).encode("utf-8")
    return struct.pack("<I", len(encoded)) + encoded + zlib.compress(packed.tobytes())


def resign(directory: Path, name: str, data: bytes) -> None:
    """Replace a checksummed file and record its new checksum."""
    (directory / name).write_bytes(data)
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["checksums"][name] = _crc32(data)
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


def write_spans(directory: Path, header: dict, values: list[int]) -> None:
    """Rewrite ``spans.bin`` from a header and values, re-signed."""
    resign(directory, "spans.bin", pack_spans(header, values))


def name_slice(header: dict, name: str) -> slice:
    """The slice of the flat values holding ``name``'s spans."""
    offset = 0
    for listed, count in zip(header["names"], header["name_counts"]):
        if listed == name:
            return slice(offset, offset + 2 * count)
        offset += 2 * count
    raise KeyError(name)


def add_suffix_array_key(directory: Path, flag: bool) -> None:
    """Give ``directory/config.json`` the ``suffix_array`` flag that
    earlier releases wrote after ``lowercase_words``, re-signed."""
    config = json.loads((directory / "config.json").read_text(encoding="utf-8"))
    rewritten = {}
    for key, value in config.items():
        rewritten[key] = value
        if key == "lowercase_words":
            rewritten["suffix_array"] = flag
    resign(directory, "config.json", json.dumps(rewritten, indent=2).encode("utf-8"))
