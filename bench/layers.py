"""The layer boundaries the traced pass times, and how it hooks them.

``BOUNDARIES`` is the one table: ``(layer, module, qualname)`` of public,
documented callables.  ``install`` replaces each with a timing wrapper for
the length of a traced pass and ``uninstall`` puts the originals back.
Nothing in ``src/`` knows about this; a boundary that no longer resolves —
a later refactor renamed or removed it — is returned as unresolved and its
metrics are reported as ``null`` with a ``layer-unresolved`` note.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

from bench.trace import Recorder


def _parsed_bytes(args: tuple, kwargs: dict, result: Any) -> float:
    """Characters a ``parse(text, symbol, start, end)`` call was given."""
    text = args[1]
    start = kwargs.get("start", args[3] if len(args) > 3 else 0)
    end = kwargs.get("end", args[4] if len(args) > 4 else None)
    return (len(text) if end is None else end) - start


def _text_bytes(args: tuple, kwargs: dict, result: Any) -> float:
    """Characters of the text a ``build_engine(text, ...)`` call indexes."""
    return len(args[0])


@dataclass(frozen=True)
class Boundary:
    layer: str
    module: str
    qualname: str
    #: ``submit``-style callables hand their first argument to another
    #: thread: the work adopts the submitting span as its parent.  With
    #: ``wait`` the time from submit to start is recorded as its own span.
    carrier: bool = False
    wait: bool = False
    count: Callable[[tuple, dict, Any], float] | None = None


BOUNDARIES: tuple[Boundary, ...] = (
    Boundary("server", "repro.server.app", "QueryServerApp.handle"),
    Boundary("server", "repro.server.admission", "AdmissionController.admit"),
    Boundary("server", "repro.server.pool", "WorkerPool.submit", carrier=True, wait=True),
    Boundary("api", "repro.api", "query_response"),
    Boundary("api", "repro.api", "render_rows"),
    Boundary("api", "repro.api", "paginate"),
    Boundary("core", "repro.core.engine", "FileQueryEngine.__init__"),
    Boundary("core", "repro.core.engine", "FileQueryEngine.query"),
    Boundary("core", "repro.core.engine", "FileQueryEngine.execute_plan"),
    Boundary("core", "repro.core.partial", "PlanExecutor.execute"),
    Boundary("core", "repro.core.planner", "Planner.plan"),
    Boundary("core", "repro.core.translate", "Translator.translate_query"),
    Boundary("core", "repro.core.optimizer", "optimize"),
    Boundary("db", "repro.db.parser", "parse_query"),
    Boundary("db", "repro.db.evaluator", "NaiveEvaluator.evaluate"),
    Boundary("db", "repro.schema.structuring", "StructuringSchema.instantiate"),
    Boundary("schema", "repro.schema.structuring", "StructuringSchema.parse", count=_parsed_bytes),
    Boundary("index", "repro.index.engine", "IndexEngine.run"),
    Boundary("index", "repro.index.builder", "build_engine", count=_text_bytes),
    Boundary("index.persist", "repro.index.persist", "load_index"),
    Boundary("shard", "repro.shard.engine", "ShardedEngine.query"),
    Boundary("shard", "repro.shard.replica", "ReplicaSet.load"),
    Boundary("shard", "concurrent.futures", "ThreadPoolExecutor.submit", carrier=True),
    Boundary("live", "repro.live.engine", "LiveEngine.open"),
    Boundary("live", "repro.live.engine", "LiveEngine.query"),
    Boundary("live", "repro.live.engine", "LiveEngine.append_record"),
    Boundary("live", "repro.live.engine", "LiveEngine.compact"),
    Boundary("live", "repro.live.journal", "JournalWriter.append"),
    Boundary("live", "os", "fsync"),
)


def _timed(recorder: Recorder, boundary: Boundary, original: Callable) -> Callable:
    name, layer, count = boundary.qualname, boundary.layer, boundary.count

    def timed(*args: Any, **kwargs: Any) -> Any:
        span = recorder.open(name, layer)
        try:
            result = original(*args, **kwargs)
            if count is not None:
                span.count = count(args, kwargs, result)
            return result
        finally:
            recorder.close(span)

    return timed


def _carrying(recorder: Recorder, boundary: Boundary, original: Callable) -> Callable:
    """Wrap ``submit(self, fn, ...)``: time the call itself, and make ``fn``
    run — on whichever thread picks it up — as a child of the caller."""
    name, layer, wait = boundary.qualname, boundary.layer, boundary.wait

    def carrying(self: Any, work: Callable, *args: Any, **kwargs: Any) -> Any:
        stack = recorder.stack()
        parent = stack[-1] if stack else None
        op = recorder.op
        submitted = perf_counter()

        def carried(*work_args: Any, **work_kwargs: Any) -> Any:
            own = recorder.stack()
            if wait:
                recorder.add(name + ":wait", layer, parent, op, submitted, perf_counter())
            if parent is not None:
                own.append(parent)
            try:
                return work(*work_args, **work_kwargs)
            finally:
                if parent is not None:
                    own.pop()

        span = recorder.open(name, layer)
        try:
            return original(self, carried, *args, **kwargs)
        finally:
            recorder.close(span)

    return carrying


def _resolve(boundary: Boundary) -> tuple[Any, str, Any]:
    """``(owner, attribute, raw attribute value)`` or raise ``LookupError``."""
    try:
        owner: Any = importlib.import_module(boundary.module)
        *path, attribute = boundary.qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = owner.__dict__[attribute] if path else getattr(owner, attribute)
    except (ImportError, AttributeError, KeyError) as error:
        raise LookupError(f"{boundary.module}:{boundary.qualname}") from error
    return owner, attribute, raw


class Installed:
    """The wrappers currently in place, and the boundaries that could not
    be resolved."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []
        self.unresolved: list[str] = []

    def replace(self, owner: Any, attribute: str, value: Any) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, value = self._undo.pop()
            setattr(owner, attribute, value)


def install(recorder: Recorder, boundaries: tuple[Boundary, ...] = BOUNDARIES) -> Installed:
    """Put a timing wrapper on every boundary that resolves."""
    installed = Installed()
    for boundary in boundaries:
        try:
            owner, attribute, raw = _resolve(boundary)
        except LookupError as error:
            installed.unresolved.append(str(error))
            continue
        wrap = _carrying if boundary.carrier else _timed
        if isinstance(raw, classmethod):
            installed.replace(owner, attribute, classmethod(wrap(recorder, boundary, raw.__func__)))
        elif isinstance(owner, type):
            installed.replace(owner, attribute, wrap(recorder, boundary, raw))
        else:
            # A module-level function: callers hold it under their own
            # names (``from m import f``), so replace it wherever it lives.
            wrapped = wrap(recorder, boundary, raw)
            for module in list(sys.modules.values()):
                names = getattr(module, "__dict__", None)
                if names is None or not (module is owner or module.__name__.startswith("repro")):
                    continue
                for key, value in list(names.items()):
                    if value is raw:
                        installed.replace(module, key, wrapped)
    return installed
