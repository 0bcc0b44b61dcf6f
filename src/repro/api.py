"""The unified engine API: one way to ask, one request/response family.

Every engine — :class:`~repro.core.engine.FileQueryEngine`,
:class:`~repro.shard.ShardedEngine`, :class:`~repro.live.LiveEngine` —
satisfies the :class:`QueryBackend` protocol with one signature per
method: ``query(query, budget=None, *, trace=True)`` returns a
:class:`~repro.core.engine.QueryResult`, ``explain(query)`` text,
``analyze(query, budget=None)`` an :class:`~repro.obs.analyze.Analysis`
and ``stats()`` a :class:`StatsResponse`.  The wire side is **one
request/response dataclass family** plus the builders that turn an
engine's answer into it; :meth:`repro.server.app.QueryServerApp._execute`
is the one place a :class:`QueryRequest` becomes a call, and the CLI's
``--json`` output uses the same builders, so both emit identical shapes:

>>> from repro import FileQueryEngine, QueryRequest
>>> from repro.api import query_response
>>> from repro.workloads.bibtex import bibtex_schema, generate_bibtex
>>> engine = FileQueryEngine(bibtex_schema(), generate_bibtex(entries=20))
>>> request = QueryRequest("SELECT r.Key FROM Reference r", page_size=5)
>>> response = query_response(engine.query(request.query), request)
>>> response.total_rows
20

Pagination
----------
A :class:`QueryRequest` may carry ``page_size`` and an opaque ``cursor``
token.  The response's :attr:`QueryResponse.next_cursor` feeds the next
request; pages re-execute the query against the engine's thread-safe
plan/region/parse caches, so repeat pages are warm-cache cheap and the
cursor itself stays stateless (it encodes only a query digest and an
offset — safe to hand to untrusted clients, impossible to desynchronize
from server restarts).
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Protocol, TypeVar, runtime_checkable

from repro.db.query import Query
from repro.db.values import AtomicValue, ObjectValue, canonical
from repro.errors import PaginationError
from repro.resilience.budget import ResourceBudget

if TYPE_CHECKING:  # pragma: no cover - annotations only (avoids cycles)
    from repro.core.engine import QueryResult
    from repro.obs.analyze import Analysis


# -- rendering ----------------------------------------------------------------------


def render_value(value: Any) -> str:
    """One result value as a stable display string (the shape the CLI has
    always printed; now shared with the server so both emit identical
    rows).  An object's string is rendered once and kept in its
    ``display``, for the next page that serves the same cached object."""
    if isinstance(value, AtomicValue):
        return value.text
    if isinstance(value, ObjectValue):
        if value.display is None:
            scalars = {
                key: child.text
                for key, child in value.attributes.items()
                if isinstance(child, AtomicValue)
            }
            inner = ", ".join(
                f"{key}={text!r}" for key, text in sorted(scalars.items())
            )
            object.__setattr__(value, "display", f"{value.class_name}({inner})")
        return value.display
    return _display(canonical(value))


def _display(form: object) -> str:
    """``repr`` of a canonical form, but with every set's elements sorted
    by their own display strings, so that no string depends on the
    process's hash seed (a cursor may page across servers)."""
    if isinstance(form, frozenset):
        return f"frozenset({{{', '.join(sorted(map(_display, form)))}}})" if form else "frozenset()"
    if isinstance(form, tuple):
        inner = ", ".join(map(_display, form))
        return f"({inner},)" if len(form) == 1 else f"({inner})"
    return repr(form)


def render_rows(rows: list[tuple]) -> list[list[str]]:
    """Every row rendered to display strings (the wire format for rows)."""
    return [[render_value(value) for value in row] for row in rows]


# -- pagination cursors -------------------------------------------------------------

_Row = TypeVar("_Row")


def query_digest(query_text: str) -> str:
    """A short stable digest binding a cursor to its query text."""
    return hashlib.sha256(query_text.encode("utf-8")).hexdigest()[:16]


def encode_cursor(digest: str, offset: int, page_size: int) -> str:
    """An opaque, URL-safe continuation token."""
    payload = json.dumps({"q": digest, "o": offset, "n": page_size})
    return base64.urlsafe_b64encode(payload.encode("utf-8")).decode("ascii")


def decode_cursor(token: str) -> tuple[str, int, int]:
    """``(digest, offset, page_size)`` from a token; raises
    :class:`~repro.errors.PaginationError` on anything malformed."""
    try:
        payload = json.loads(base64.urlsafe_b64decode(token.encode("ascii")))
        digest, offset, page_size = payload["q"], payload["o"], payload["n"]
    except (binascii.Error, UnicodeError, ValueError, KeyError, TypeError) as error:
        raise PaginationError(f"malformed cursor token: {error}") from error
    if not isinstance(digest, str) or not isinstance(offset, int) or not isinstance(
        page_size, int
    ):
        raise PaginationError("malformed cursor token: wrong field types")
    if offset < 0 or page_size < 1:
        raise PaginationError(
            f"malformed cursor token: offset {offset}, page_size {page_size}"
        )
    return digest, offset, page_size


# -- requests -----------------------------------------------------------------------


@dataclass(frozen=True)
class QueryRequest:
    """One query as a unified-surface request.

    Attributes
    ----------
    query:
        The XSQL-subset query text (or an already-parsed
        :class:`~repro.db.query.Query`).
    budget:
        Optional per-request :class:`~repro.resilience.ResourceBudget`
        (the server mints these from its server-level budget).
    cursor:
        Opaque continuation token from a previous response's
        ``next_cursor``; must belong to the same query text.
    page_size:
        Rows per page.  ``None`` returns everything in one response.
    """

    query: Query | str
    budget: ResourceBudget | None = None
    cursor: str | None = None
    page_size: int | None = None

    def __post_init__(self) -> None:
        if self.page_size is not None and self.page_size < 1:
            raise PaginationError(
                f"page_size must be >= 1, got {self.page_size!r}"
            )

    @property
    def query_text(self) -> str:
        return self.query.render() if isinstance(self.query, Query) else self.query

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QueryRequest":
        """Build a request from a wire payload (the server's POST body).

        Accepted keys: ``query`` (required), ``cursor``, ``page_size``,
        and ``budget`` — a ``{"deadline_ms", "max_regions",
        "max_bytes_parsed"}`` object whose deadline is a non-negative
        number and whose caps are non-negative integers.  Anything else is
        rejected so typos fail loudly instead of silently doing nothing.
        """
        if not isinstance(data, Mapping):
            raise PaginationError(f"request body must be an object, got {type(data).__name__}")
        unknown = set(data) - {"query", "cursor", "page_size", "budget"}
        if unknown:
            raise PaginationError(f"unknown request field(s): {', '.join(sorted(unknown))}")
        query = data.get("query")
        if not isinstance(query, str) or not query.strip():
            raise PaginationError("request needs a non-empty string 'query'")
        cursor = data.get("cursor")
        if cursor is not None and not isinstance(cursor, str):
            raise PaginationError("'cursor' must be a string")
        page_size = data.get("page_size")
        if page_size is not None and (isinstance(page_size, bool) or not isinstance(page_size, int)):
            raise PaginationError("'page_size' must be an integer")
        budget = None
        raw_budget = data.get("budget")
        if raw_budget is not None:
            if not isinstance(raw_budget, Mapping):
                raise PaginationError("'budget' must be an object")
            bad = set(raw_budget) - {"deadline_ms", "max_regions", "max_bytes_parsed"}
            if bad:
                raise PaginationError(
                    f"unknown budget field(s): {', '.join(sorted(bad))}"
                )
            for name, value in raw_budget.items():
                number = name == "deadline_ms"
                # `not value >= 0` also refuses NaN.
                if value is not None and (
                    isinstance(value, bool)
                    or not isinstance(value, (int, float) if number else int)
                    or not value >= 0
                ):
                    raise PaginationError(
                        f"budget '{name}' must be a non-negative "
                        f"{'number' if number else 'integer'}, got {value!r}"
                    )
            deadline_ms = raw_budget.get("deadline_ms")
            budget = ResourceBudget(
                deadline_s=deadline_ms / 1e3 if deadline_ms is not None else None,
                max_regions=raw_budget.get("max_regions"),
                max_bytes_parsed=raw_budget.get("max_bytes_parsed"),
            )
        return cls(query=query, budget=budget, cursor=cursor, page_size=page_size)


# -- responses ----------------------------------------------------------------------


@dataclass
class QueryResponse:
    """One page of query results in wire form.

    ``rows`` are display-rendered strings (identical to the CLI's
    historical ``--json`` rows).  ``row_start``/``total_rows`` locate the
    page; ``next_cursor`` is the continuation token (``None`` on the last
    page).  ``stats`` is the stable
    :meth:`~repro.obs.stats.QueryStats.to_dict` shape and ``warnings``
    the structured ``{code, message, detail}`` incident list.
    """

    rows: list[list[str]]
    warnings: list[dict[str, Any]] = field(default_factory=list)
    stats: dict[str, Any] = field(default_factory=dict)
    row_start: int = 0
    total_rows: int = 0
    next_cursor: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "rows": self.rows,
            "warnings": self.warnings,
            "stats": self.stats,
            "row_start": self.row_start,
            "total_rows": self.total_rows,
            "next_cursor": self.next_cursor,
        }


@dataclass
class ExplainResponse:
    """A plan explanation (the ``explain`` text, line-split for JSON)."""

    text: str

    def to_dict(self) -> dict[str, Any]:
        return {"text": self.text, "lines": self.text.splitlines()}


@dataclass
class AnalyzeResponse:
    """An EXPLAIN ANALYZE report in wire form.

    ``analysis`` is exactly :meth:`~repro.obs.analyze.Analysis.to_dict`
    (the shape pinned by ``schemas/analyze.schema.json``); ``text`` is the
    human-readable rendering.  ``to_dict`` returns the pinned shape
    unchanged, so the CLI's ``analyze --json`` contract cannot drift.
    """

    analysis: dict[str, Any]
    text: str = ""

    @classmethod
    def from_analysis(cls, analysis: "Analysis") -> "AnalyzeResponse":
        return cls(analysis=analysis.to_dict(), text=analysis.render())

    def to_dict(self) -> dict[str, Any]:
        return dict(self.analysis)


@dataclass
class StatsResponse:
    """Backend statistics in wire form: index statistics, cache
    configuration and lifetime activity, and a ``backend`` descriptor
    saying what kind of engine answered."""

    index: dict[str, Any]
    cache_config: str
    cache: dict[str, Any]
    backend: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "cache_config": self.cache_config,
            "cache": self.cache,
            "backend": self.backend,
        }


# -- the backend protocol -----------------------------------------------------------


@runtime_checkable
class QueryBackend(Protocol):
    """What a query-serving backend must answer: one signature per method.

    :class:`~repro.core.engine.FileQueryEngine`,
    :class:`~repro.shard.ShardedEngine` and :class:`~repro.live.LiveEngine`
    satisfy this.  ``query`` is query text or a parsed
    :class:`~repro.db.query.Query`; ``explain`` and ``analyze`` also accept
    an executed :class:`~repro.core.engine.QueryResult`.  The server (and
    any other frontend) depends only on this protocol — a test double is a
    four-method class.
    """

    def query(
        self,
        query: "Query | str",
        budget: ResourceBudget | None = None,
        *,
        trace: bool = True,
    ) -> "QueryResult":
        """Execute one query under ``budget``; ``trace=False`` builds no
        span tree (``result.trace`` is ``None``)."""
        ...  # pragma: no cover - protocol

    def explain(self, query: "QueryResult | Query | str") -> str:
        """Describe the plan for a query without executing it."""
        ...  # pragma: no cover - protocol

    def analyze(
        self, query: "QueryResult | Query | str", budget: ResourceBudget | None = None
    ) -> "Analysis":
        """EXPLAIN ANALYZE: execute and report estimates next to actuals."""
        ...  # pragma: no cover - protocol

    def stats(self) -> "StatsResponse":
        """Index/cache statistics for this backend."""
        ...  # pragma: no cover - protocol


# -- response builders (shared by the CLI and the server) ---------------------------


def paginate(
    rows: list[_Row], request: QueryRequest
) -> tuple[list[_Row], int, str | None]:
    """Slice rows (evaluated or rendered) per the request's cursor/page_size.

    Returns ``(page, row_start, next_cursor)``.  A cursor must carry the
    digest of the *same* query text — a token replayed against a
    different query raises :class:`~repro.errors.PaginationError` instead
    of silently serving the wrong page.
    """
    digest = query_digest(request.query_text)
    offset = 0
    page_size = request.page_size
    if request.cursor is not None:
        token_digest, offset, token_page = decode_cursor(request.cursor)
        if token_digest != digest:
            raise PaginationError(
                "cursor does not belong to this query (issue a fresh "
                "request without a cursor)"
            )
        page_size = page_size if page_size is not None else token_page
    if page_size is None:
        return rows, 0, None
    page = rows[offset : offset + page_size]
    end = offset + len(page)
    next_cursor = encode_cursor(digest, end, page_size) if end < len(rows) else None
    return page, offset, next_cursor


def query_response(result: "QueryResult", request: QueryRequest) -> QueryResponse:
    """Package an executed :class:`~repro.core.engine.QueryResult` into
    one page.  Only the page's rows are rendered."""
    page, row_start, next_cursor = paginate(result.rows, request)
    return QueryResponse(
        rows=render_rows(page),
        warnings=[warning.to_dict() for warning in result.warnings],
        stats=result.stats.to_dict(),
        row_start=row_start,
        total_rows=len(result.rows),
        next_cursor=next_cursor,
    )


__all__ = [
    "QueryRequest",
    "QueryResponse",
    "ExplainResponse",
    "AnalyzeResponse",
    "StatsResponse",
    "QueryBackend",
    "render_value",
    "render_rows",
    "query_response",
    "paginate",
    "query_digest",
    "encode_cursor",
    "decode_cursor",
]
