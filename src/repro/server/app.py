"""The serving core, independent of any transport.

:class:`QueryServerApp` routes ``(method, path, body)`` to the backend
through admission control and the bounded worker pool, and renders every
outcome — success or failure — as one JSON envelope family::

    {"ok": true,  "kind": "query" | "explain" | "analyze" | "append" | "stats" | "health", ...}
    {"ok": false, "kind": "error", "status": 429,
     "error": {"type": "ServerOverloadedError", "code": "server-overloaded",
               "message": "...", "detail": {...}}}

Keeping the app free of sockets makes the whole serving contract testable
in-process (``tests/server/test_app.py``); :mod:`repro.server.http` is a
thin HTTP skin over :meth:`QueryServerApp.handle`.

Every handled request runs under a ``server:request``
:class:`~repro.obs.trace.Span` folded into :class:`ServerStats`
(per-endpoint counters plus a recent-request ring, all on ``GET /stats``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Any, Mapping

from repro.api import (
    AnalyzeResponse,
    ExplainResponse,
    QueryBackend,
    QueryRequest,
    query_response,
)
from repro.errors import (
    BudgetExceededError,
    DuplicateRequestError,
    JournalCorruptError,
    PaginationError,
    ParseError,
    QueryError,
    ReproError,
    ServerDrainingError,
    ServerOverloadedError,
    ShardFailedError,
    WriteQuorumError,
)
from repro.obs.trace import Span
from repro.resilience.budget import ResourceBudget, combine_budgets
from repro.server.admission import AdmissionController
from repro.server.pool import WorkerPool
from repro.server.stats import ServerStats

#: Endpoints that cost engine work and therefore pass admission control.
ENGINE_ENDPOINTS = {"/query", "/explain", "/analyze"}

#: Ingestion endpoint: also admission-controlled, but takes a record body
#: instead of a query request and requires a live (appendable) backend.
APPEND_ENDPOINT = "/append"


def plain_error(status: int, code: str, message: str) -> tuple[int, dict[str, Any]]:
    """An ``HTTPError`` envelope for a refusal that carries no detail (an
    unknown endpoint, a wrong method, a malformed body or header)."""
    return status, {
        "ok": False,
        "kind": "error",
        "status": status,
        "error": {"type": "HTTPError", "code": code, "message": message, "detail": {}},
    }


class _MethodNotAllowed(Exception):
    """Internal: wrong HTTP method for a known endpoint (→ 405)."""


@dataclass(frozen=True)
class ServerConfig:
    """Serving knobs.

    Attributes
    ----------
    host / port:
        Bind address (``port=0`` picks a free port — handy in tests).
    workers / queue_depth:
        Bounded worker pool: at most ``workers`` requests executing and
        ``queue_depth`` waiting; anything past that is rejected with a
        structured 429.
    budget:
        Server-level :class:`~repro.resilience.ResourceBudget`; per-request
        quotas are minted from it (regions/bytes split across workers,
        deadline per request).
    per_request_budget:
        Explicit per-request quota, overriding the minted split.
    default_page_size / max_page_size:
        Pagination defaults; a request asking for more than
        ``max_page_size`` rows per page is rejected.
    recent_spans:
        How many recent ``server:request`` spans ``GET /stats`` retains.
    drain_deadline_s:
        How long a graceful shutdown waits for in-flight requests to
        finish before detaching their (daemon) workers.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    workers: int = 4
    queue_depth: int = 16
    budget: ResourceBudget | None = None
    per_request_budget: ResourceBudget | None = None
    default_page_size: int | None = None
    max_page_size: int = 10_000
    recent_spans: int = 32
    drain_deadline_s: float = 5.0

    def __post_init__(self) -> None:
        if self.drain_deadline_s < 0:
            raise ValueError(
                f"drain_deadline_s must be non-negative, got {self.drain_deadline_s!r}"
            )
        if self.max_page_size < 1:
            raise ValueError(
                f"max_page_size must be >= 1, got {self.max_page_size!r}"
            )
        if (
            self.default_page_size is not None
            and not 1 <= self.default_page_size <= self.max_page_size
        ):
            raise ValueError(
                f"default_page_size must be in [1, {self.max_page_size}], "
                f"got {self.default_page_size!r}"
            )


#: Stable machine-matchable error codes for the wire (exception type →
#: kebab-case code); anything unmapped falls back to "internal-error".
ERROR_CODES = {
    "ServerOverloadedError": "server-overloaded",
    "ServerDrainingError": "server-draining",
    "BudgetExceededError": "budget-exceeded",
    "PaginationError": "bad-request",
    "QuerySyntaxError": "query-syntax",
    "TranslationError": "query-translation",
    "PlanningError": "query-planning",
    "QueryError": "query-error",
    "ShardFailedError": "shard-failed",
    "ParseError": "bad-record",
    "JournalCorruptError": "journal-corrupt",
    "DuplicateRequestError": "duplicate-request",
    "WriteQuorumError": "write-quorum",
}


class QueryServerApp:
    """Route requests to a :class:`~repro.api.QueryBackend` and envelope
    the answers.  One instance serves many concurrent callers: the
    backend's caches are thread-safe and session-shared, so every request
    warms the next one."""

    def __init__(
        self,
        backend: QueryBackend,
        config: ServerConfig | None = None,
        scrubber: Any | None = None,
    ) -> None:
        self.backend = backend
        self.config = config if config is not None else ServerConfig()
        #: Optional server-owned :class:`~repro.shard.ScrubDaemon`: started
        #: by the caller (``repro serve --scrub-interval-s``), stopped on
        #: :meth:`close`, surfaced on ``GET /stats``.
        self.scrubber = scrubber
        self.admission = AdmissionController(
            workers=self.config.workers,
            queue_depth=self.config.queue_depth,
            server_budget=self.config.budget,
            per_request_budget=self.config.per_request_budget,
        )
        self.pool = WorkerPool(
            workers=self.config.workers, queue_depth=self.config.queue_depth
        )
        self.stats = ServerStats(recent=self.config.recent_spans)
        self.started_at = perf_counter()
        self._closed = threading.Event()
        self._draining = threading.Event()

    # -- lifecycle ---------------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def start_draining(self) -> None:
        """Stop admitting new engine work: from here on, ``/query`` /
        ``/explain`` / ``/analyze`` answer a structured 503 with
        ``Retry-After`` while already-admitted requests keep running."""
        self._draining.set()

    def drain(self, deadline_s: float | None = None) -> bool:
        """Graceful shutdown: stop admitting, let executing requests
        finish within the drain deadline, fail queued-but-unstarted ones
        with typed 503s.  Returns ``True`` when everything in flight
        completed in time.  Idempotent."""
        deadline = (
            self.config.drain_deadline_s if deadline_s is None else deadline_s
        )
        self._draining.set()
        drained = self.pool.drain(deadline)
        self._closed.set()
        return drained

    def close(self) -> None:
        """Stop the worker pool and the background scrubber (idempotent;
        graceful — same as :meth:`drain` with the configured deadline)."""
        if self.scrubber is not None:
            self.scrubber.stop()
        if not self._closed.is_set():
            self.drain()

    @property
    def uptime_s(self) -> float:
        return perf_counter() - self.started_at

    # -- dispatch ----------------------------------------------------------------

    def handle(
        self, method: str, path: str, body: Mapping[str, Any] | None = None
    ) -> tuple[int, dict[str, Any]]:
        """One request → ``(http_status, envelope_dict)``.  Never raises:
        every failure becomes a structured error envelope."""
        span = Span("server:request", started_at=perf_counter())
        try:
            status, payload = self._route(method, path, body)
        except Exception as error:  # noqa: BLE001 — the envelope boundary
            status, payload = self._error_envelope(error)
        span.ended_at = perf_counter()
        span.annotate(endpoint=path, method=method, status=status)
        self.stats.record(span, status)
        return status, payload

    def _route(
        self, method: str, path: str, body: Mapping[str, Any] | None
    ) -> tuple[int, dict[str, Any]]:
        path = path.rstrip("/") or "/"
        if path == "/healthz":
            self._require(method, "GET", path)
            return 200, self._health_envelope()
        if path == "/stats":
            self._require(method, "GET", path)
            return 200, self._stats_envelope()
        if path in ENGINE_ENDPOINTS:
            self._require(method, "POST", path)
            return 200, self._engine_envelope(path, body)
        if path == APPEND_ENDPOINT:
            self._require(method, "POST", path)
            return self._append_envelope(body)
        return plain_error(404, "not-found", f"no such endpoint: {path}")

    def _require(self, method: str, expected: str, path: str) -> None:
        if method != expected:
            raise _MethodNotAllowed(f"{path} requires {expected}, got {method}")

    # -- endpoint bodies ---------------------------------------------------------

    def _health_envelope(self) -> dict[str, Any]:
        import repro

        health = getattr(self.backend, "replica_health", None)
        replicas = health() if callable(health) else None
        return {
            "ok": True,
            "kind": "health",
            "status": "draining" if self.draining else "ok",
            "uptime_s": self.uptime_s,
            "backend": type(self.backend).__name__,
            "version": repro.__version__,
            "replicas": replicas,
        }

    def _stats_envelope(self) -> dict[str, Any]:
        server: dict[str, Any] = {
            **self.stats.to_dict(),
            "admission": self.admission.snapshot(),
            "uptime_s": self.uptime_s,
        }
        if self.scrubber is not None:
            server["scrub"] = self.scrubber.snapshot()
        return {
            "ok": True,
            "kind": "stats",
            "server": server,
            "engine": self.backend.stats().to_dict(),
        }

    def _build_request(self, body: Mapping[str, Any] | None) -> QueryRequest:
        if body is None:
            raise PaginationError("request needs a JSON object body")
        request = QueryRequest.from_dict(body)
        page_size = request.page_size
        if page_size is None and request.cursor is None:
            page_size = self.config.default_page_size
        if page_size is not None and page_size > self.config.max_page_size:
            raise PaginationError(
                f"page_size {page_size} exceeds maximum "
                f"{self.config.max_page_size}"
            )
        if page_size != request.page_size:
            request = replace(request, page_size=page_size)
        return request

    def _engine_envelope(
        self, endpoint: str, body: Mapping[str, Any] | None
    ) -> dict[str, Any]:
        request = self._build_request(body)
        if self.draining:
            raise ServerDrainingError(
                "shutting down; not admitting new requests",
                retry_after_s=self._retry_after_s(),
            )
        ticket = self.admission.admit()
        # The effective budget is combined — and its absolute end-to-end
        # deadline minted — HERE, at admission, before the request ever
        # touches the worker queue: time spent waiting for a worker
        # consumes the deadline, it does not re-arm it.
        budget = combine_budgets(request.budget, ticket.budget)
        if budget is not None:
            budget = budget.started()
        guarded = replace(request, budget=budget)
        try:
            future = self.pool.submit(lambda: self._execute(endpoint, guarded))
        except ServerOverloadedError:
            ticket.release()
            raise
        try:
            return future.result()
        finally:
            ticket.release()

    def _append_envelope(
        self, body: Mapping[str, Any] | None
    ) -> tuple[int, dict[str, Any]]:
        """``POST /append``: durably ingest one record through a live
        backend.  Admission-controlled like the engine endpoints — an
        overloaded or draining server rejects appends the same way — but
        the body is ``{"record": "..."}`` rather than a query request."""
        if not callable(getattr(self.backend, "append", None)):
            return plain_error(
                400,
                "append-unsupported",
                f"backend {type(self.backend).__name__} does not support "
                "live appends; serve a live engine to enable /append",
            )
        if body is None or not isinstance(body.get("record"), str):
            return plain_error(
                400, "bad-request", 'append needs a JSON body {"record": "..."}'
            )
        record = body["record"]
        request_id = body.get("request_id")
        if request_id is not None and (
            not isinstance(request_id, str) or not request_id
        ):
            return plain_error(
                400, "bad-request", "request_id must be a non-empty string"
            )
        if self.draining:
            raise ServerDrainingError(
                "shutting down; not admitting new requests",
                retry_after_s=self._retry_after_s(),
            )
        ticket = self.admission.admit()
        try:
            future = self.pool.submit(
                lambda: self._execute_append(record, request_id)
            )
        except ServerOverloadedError:
            ticket.release()
            raise
        try:
            return 200, future.result()
        finally:
            ticket.release()

    def _execute_append(
        self, record: str, request_id: str | None = None
    ) -> dict[str, Any]:
        append_record = getattr(self.backend, "append_record", None)
        if callable(append_record):
            ack = append_record(record, request_id=request_id)
            seq, deduped = ack["seq"], bool(ack.get("deduped"))
        else:
            seq, deduped = self.backend.append(record), False
        envelope: dict[str, Any] = {
            "ok": True,
            "kind": "append",
            "seq": seq,
            "deduped": deduped,
        }
        if request_id is not None:
            envelope["request_id"] = request_id
        status = getattr(self.backend, "status", None)
        if callable(status):
            snapshot = status()
            envelope["shard"] = snapshot.get("tail")
            envelope["pending"] = snapshot.get("pending_records")
        return envelope

    def _execute(self, endpoint: str, request: QueryRequest) -> dict[str, Any]:
        """The one place a :class:`~repro.api.QueryRequest` becomes a
        backend call: the query text under the request's budget, the
        answer packaged by the shared response builders."""
        backend = self.backend
        if endpoint == "/query":
            # Rows, not span trees: /analyze is where a trace is asked for.
            response = query_response(
                backend.query(request.query, budget=request.budget, trace=False),
                request,
            )
            return {"ok": True, "kind": "query", **response.to_dict()}
        if endpoint == "/explain":
            response = ExplainResponse(text=backend.explain(request.query))
            return {"ok": True, "kind": "explain", **response.to_dict()}
        # /analyze: instrumented re-execution; the quota still applies to
        # the primary execution via the request budget.
        response = AnalyzeResponse.from_analysis(
            backend.analyze(request.query, budget=request.budget)
        )
        return {"ok": True, "kind": "analyze", "analysis": response.to_dict()}

    # -- errors ------------------------------------------------------------------

    def _retry_after_s(self) -> float:
        """The back-off hint for a rejected client, from the recent
        queue-drain rate and the load currently ahead of it."""
        pending = self.admission.snapshot()["in_flight"]
        return self.stats.retry_after_s(pending, workers=self.config.workers)

    def _error_envelope(self, error: Exception) -> tuple[int, dict[str, Any]]:
        if isinstance(error, _MethodNotAllowed):
            return plain_error(405, "method-not-allowed", str(error))
        name = type(error).__name__
        detail: dict[str, Any] = {}
        if isinstance(error, ServerOverloadedError):
            status = 429
            retry_after = self._retry_after_s()
            detail = {
                "admission": {**error.snapshot, "retry_after_s": retry_after},
                "retry_after_s": retry_after,
            }
        elif isinstance(error, ServerDrainingError):
            status = 503
            retry_after = (
                error.retry_after_s
                if error.retry_after_s is not None
                else self._retry_after_s()
            )
            detail = {"retry_after_s": retry_after}
        elif isinstance(error, BudgetExceededError):
            status = 429
            detail = {
                "resource": error.resource,
                "limit": error.limit,
                "spent": error.spent,
                "partial": dict(error.partial),
            }
        elif isinstance(error, ShardFailedError):
            status = 503
            detail = {"shard": error.shard, "attempts": error.attempts}
        elif isinstance(error, WriteQuorumError):
            # The append may still be durable on the journals that acked;
            # retry with the same request_id to find out safely.
            status = 503
            detail = {
                "shard": error.shard,
                "acked": error.acked,
                "quorum": error.quorum,
                "replicas": error.replicas,
            }
        elif isinstance(error, DuplicateRequestError):
            status = 409
            detail = {"request_id": error.request_id, "seq": error.seq}
        elif isinstance(error, QueryError):
            # Includes PaginationError: the client's request is at fault.
            status = 400
        elif isinstance(error, ParseError):
            # A record rejected at /append: the client's payload is at fault.
            status = 400
            detail = {"position": error.position, "symbol": error.symbol}
        elif isinstance(error, JournalCorruptError):
            status = 500
            detail = {"path": error.path, "reason": error.reason, "offset": error.offset}
        elif isinstance(error, ReproError):
            status = 500
        else:
            status = 500
        return status, {
            "ok": False,
            "kind": "error",
            "status": status,
            "error": {
                "type": name,
                "code": ERROR_CODES.get(name, "internal-error"),
                "message": str(error),
                "detail": detail,
            },
        }
