"""Crash-safety of `save_index`: a save killed mid-write must never leave
a torn index at the target path."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.core.engine import FileQueryEngine
from repro.index import persist
from repro.index.persist import load_index, save_index, verify_index


class _KilledMidSave(BaseException):
    """Stands in for SIGKILL: not an Exception, nothing downstream
    catches it."""


def _interrupt_after(monkeypatch, files_written: int):
    """Make `_write_index_files` die after writing ``files_written`` of the
    four index files — the moral equivalent of `kill -9` mid-save."""
    original = persist._write_index_files

    def wrapper(engine, path, *args, **kwargs):
        budget = {"left": files_written}

        def counting(real_write):
            def write(self, *write_args, **write_kwargs):
                if budget["left"] <= 0:
                    raise _KilledMidSave()
                budget["left"] -= 1
                return real_write(self, *write_args, **write_kwargs)

            return write

        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(Path, "write_text", counting(Path.write_text))
            inner.setattr(Path, "write_bytes", counting(Path.write_bytes))
            return original(engine, path, *args, **kwargs)

    monkeypatch.setattr(persist, "_write_index_files", wrapper)


@pytest.mark.parametrize("files_written", [0, 1, 2, 3])
def test_kill_mid_save_leaves_no_index_behind(
    tmp_path, corpus_schema, corpus_text, monkeypatch, files_written
) -> None:
    """A first-time save killed at any point leaves no target directory at
    all (and no stray staging directory), instead of a torn index."""
    engine = FileQueryEngine(corpus_schema, corpus_text)
    target = tmp_path / "idx"
    _interrupt_after(monkeypatch, files_written)
    with pytest.raises(_KilledMidSave):
        engine.save(str(target))
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []  # staging cleaned up too


@pytest.mark.parametrize("files_written", [0, 2, 3])
def test_kill_mid_resave_preserves_the_old_index(
    tmp_path, corpus_schema, corpus_text, query_text, healthy_rows,
    monkeypatch, files_written,
) -> None:
    """Re-saving over an existing index dies mid-write: the previous index
    must still verify and answer queries."""
    engine = FileQueryEngine(corpus_schema, corpus_text)
    target = tmp_path / "idx"
    engine.save(str(target))
    _interrupt_after(monkeypatch, files_written)
    with pytest.raises(_KilledMidSave):
        engine.save(str(target))
    monkeypatch.undo()
    assert verify_index(target) is not None
    reloaded = FileQueryEngine.from_saved(corpus_schema, str(target))
    assert reloaded.query(query_text).canonical_rows() == healthy_rows


def test_failed_promote_restores_the_old_index(
    tmp_path, corpus_schema, corpus_text, monkeypatch
) -> None:
    """If the final staging→target rename itself fails, the retired old
    index is put back before the error propagates."""
    engine = FileQueryEngine(corpus_schema, corpus_text)
    target = tmp_path / "idx"
    engine.save(str(target))

    real_rename = os.rename
    calls = {"n": 0}

    def failing_rename(src, dst):
        calls["n"] += 1
        if calls["n"] == 2:  # 1: retire old, 2: promote new
            raise OSError("injected rename failure")
        return real_rename(src, dst)

    monkeypatch.setattr(persist.os, "rename", failing_rename)
    with pytest.raises(OSError, match="injected rename failure"):
        engine.save(str(target))
    monkeypatch.undo()
    assert verify_index(target) is not None
    assert load_index(target).instance is not None


def test_successful_resave_replaces_and_cleans_up(
    tmp_path, corpus_schema, corpus_text
) -> None:
    engine = FileQueryEngine(corpus_schema, corpus_text)
    target = tmp_path / "idx"
    engine.save(str(target))
    engine.save(str(target))  # replace in place
    assert verify_index(target) is not None
    leftovers = [p.name for p in tmp_path.iterdir() if p.name != "idx"]
    assert leftovers == []
