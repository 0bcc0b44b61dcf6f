"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch one base class.  Sub-hierarchies mirror the major
subsystems (algebra, indexing, schemas, database, query compilation).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class RegionError(ReproError):
    """Invalid region or region-set construction (e.g. end before start)."""


class AlgebraError(ReproError):
    """Invalid region-algebra expression or evaluation failure."""


class UnknownRegionNameError(AlgebraError):
    """A region expression refers to a region name that is not indexed."""

    def __init__(self, name: str, available: tuple[str, ...] = ()) -> None:
        self.name = name
        self.available = available
        detail = f"unknown region name {name!r}"
        if available:
            detail += f" (indexed: {', '.join(sorted(available))})"
        super().__init__(detail)


class RigError(ReproError):
    """Invalid region inclusion graph or RIG-related analysis failure."""


class GrammarError(ReproError):
    """Ill-formed grammar or structuring schema."""


class ParseError(ReproError):
    """A file (or file region) does not match the structuring grammar."""

    def __init__(self, message: str, position: int = 0, symbol: str | None = None) -> None:
        self.position = position
        self.symbol = symbol
        #: The bare message, without the position/symbol prefix — kept so
        #: wrappers and memos can re-surface the error without re-prefixing.
        self.detail = message
        prefix = f"parse error at offset {position}"
        if symbol is not None:
            prefix += f" (while parsing <{symbol}>)"
        super().__init__(f"{prefix}: {message}")


class CandidateParseError(ParseError):
    """A candidate region failed to re-parse under a strict (non-skipping)
    degradation policy.

    Wraps the underlying :class:`ParseError` without stringifying it:
    ``position`` and ``symbol`` are preserved from the original error, and
    ``region`` records the candidate ``(start, end)`` span that failed.
    """

    def __init__(
        self,
        message: str,
        position: int = 0,
        symbol: str | None = None,
        region: tuple[int, int] | None = None,
    ) -> None:
        self.region = region
        super().__init__(message, position=position, symbol=symbol)

    @classmethod
    def wrap(cls, error: "ParseError", region: tuple[int, int]) -> "CandidateParseError":
        """Lift a raw :class:`ParseError` raised while re-parsing one
        candidate region, keeping its ``position``/``symbol`` attributes."""
        detail = getattr(error, "detail", None) or str(error)
        return cls(
            f"candidate region {region} rejected: {detail}",
            position=error.position,
            symbol=error.symbol,
            region=region,
        )


class QueryError(ReproError):
    """Ill-formed query (syntax or semantic error)."""


class QuerySyntaxError(QueryError):
    """The query text could not be parsed."""

    def __init__(self, message: str, position: int = 0) -> None:
        self.position = position
        super().__init__(f"query syntax error at offset {position}: {message}")


class TranslationError(QueryError):
    """A query path does not match any path in the region inclusion graph."""


class PaginationError(QueryError):
    """A malformed unified-API request: bad cursor token, a cursor replayed
    against a different query, or invalid request/budget fields (see
    :mod:`repro.api`)."""


class PlanningError(QueryError):
    """The planner cannot produce an executable plan for a query."""


class DatabaseError(ReproError):
    """Errors in the object database substrate."""


class RegionIndexError(ReproError):
    """Errors in the indexing engine."""


class IndexConfigError(RegionIndexError):
    """Invalid index configuration (unknown non-terminal, bad scope, ...)."""


class IndexNotFoundError(RegionIndexError):
    """No saved index exists at the attempted path."""

    def __init__(self, path: str, detail: str = "") -> None:
        self.path = str(path)
        message = f"no saved index at {self.path!r}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


class IndexCorruptError(RegionIndexError):
    """A saved index failed integrity verification (checksum mismatch,
    truncated/unparseable file, unsupported format version, ...)."""

    def __init__(self, path: str, reason: str, part: str | None = None) -> None:
        self.path = str(path)
        self.reason = reason
        self.part = part
        where = f"{self.path!r}" if part is None else f"{self.path!r} ({part})"
        super().__init__(f"saved index at {where} is corrupt: {reason}")


class JournalCorruptError(RegionIndexError):
    """A write-ahead journal failed integrity verification.

    Torn *tails* (a frame that simply runs past end-of-file, the signature
    of a crash mid-append) are **not** corruption — replay truncates them
    silently, because appends only ever extend the journal.  This error is
    reserved for damage that truncation cannot explain: a fully present
    frame whose CRC32 does not match its payload, a frame header too short
    to be a frame, or sequence numbers that go backwards — in-place bit
    rot or foreign writes, where dropping data would be silent loss.

    Attributes
    ----------
    path:
        The journal file that failed verification.
    reason:
        What was wrong.
    offset:
        Byte offset of the offending frame within the journal.
    """

    def __init__(self, path: str, reason: str, offset: int | None = None) -> None:
        self.path = str(path)
        self.reason = reason
        self.offset = offset
        where = self.path if offset is None else f"{self.path} at byte {offset}"
        super().__init__(f"journal {where!r} is corrupt: {reason}")


class IndexStaleError(RegionIndexError):
    """A saved index no longer matches its source file (the file changed
    after the index was built)."""

    def __init__(
        self,
        path: str,
        reason: str,
        saved_fingerprint: str | None = None,
        current_fingerprint: str | None = None,
    ) -> None:
        self.path = str(path)
        self.reason = reason
        self.saved_fingerprint = saved_fingerprint
        self.current_fingerprint = current_fingerprint
        super().__init__(f"saved index at {self.path!r} is stale: {reason}")


class ShardError(ReproError):
    """Errors in sharded-corpus execution (see :mod:`repro.shard`)."""


class ShardFailedError(ShardError):
    """A shard could not be queried and the execution ran in fail-fast
    (strict) mode — or *no* shard produced rows, leaving nothing to answer
    with.

    Attributes
    ----------
    shard:
        The failing shard's name.
    attempts:
        How many attempts (1 + retries) were made before giving up.
        ``0`` when the shard was never attempted (circuit breaker open).
    reason:
        Human-readable account of the final failure.
    cause:
        The underlying exception, when one exists (also chained as
        ``__cause__`` where the raise site allows).
    """

    def __init__(
        self,
        shard: str,
        reason: str,
        attempts: int = 1,
        cause: BaseException | None = None,
    ) -> None:
        self.shard = shard
        self.reason = reason
        self.attempts = attempts
        self.cause = cause
        if attempts == 0:
            message = f"shard {shard!r} skipped: {reason}"
        else:
            message = f"shard {shard!r} failed after {attempts} attempt(s): {reason}"
        super().__init__(message)


class WriteQuorumError(ShardError):
    """A live append could not reach its configured write quorum: fewer
    than ``quorum`` replica journals acknowledged the frame.

    Replica journals that *did* acknowledge keep the frame — recovery
    promotes any frame durable on at least one journal — so the record may
    reappear after a restart even though the append raised.  Idempotent
    retries (a client ``request_id``) make that safe.

    Attributes
    ----------
    shard:
        The tail shard the append targeted.
    acked / quorum / replicas:
        How many journals acknowledged, how many were required, and how
        many exist.
    cause:
        The last per-journal failure, when one exists.
    """

    def __init__(
        self,
        shard: str,
        acked: int,
        quorum: int,
        replicas: int,
        cause: BaseException | None = None,
    ) -> None:
        self.shard = shard
        self.acked = acked
        self.quorum = quorum
        self.replicas = replicas
        self.cause = cause
        super().__init__(
            f"append to shard {shard!r} reached {acked}/{replicas} replica "
            f"journal(s); write quorum is {quorum}"
        )


class DuplicateRequestError(ReproError):
    """An idempotent append reused a ``request_id`` with a *different*
    record than the one originally acknowledged under that id.  Replaying
    the same request is welcome (it dedupes); rebinding the id to new
    content is always a client bug, answered with a conflict rather than a
    silent second append.
    """

    def __init__(self, request_id: str, seq: int) -> None:
        self.request_id = request_id
        self.seq = seq
        super().__init__(
            f"request id {request_id!r} was already acknowledged as seq {seq} "
            "with a different record"
        )


class ServerError(ReproError):
    """Errors in the query-serving layer (see :mod:`repro.server`)."""


class ServerOverloadedError(ServerError):
    """The server declined to admit a request: the worker pool and its
    queue are full, or the server-level budget has no quota left to mint.

    Carries a ``snapshot`` of the admission state (in-flight requests,
    queue depth, per-request quota, lifetime tallies) so the structured
    429-style error tells the client *why* — and the caller can back off
    intelligently.
    """

    def __init__(self, reason: str, snapshot: dict | None = None) -> None:
        self.reason = reason
        self.snapshot = snapshot if snapshot is not None else {}
        super().__init__(f"server overloaded: {reason}")


class ServerDrainingError(ServerError):
    """The server is shutting down gracefully: it no longer admits new
    engine work, while requests already executing run to completion under
    the drain deadline.  Queued-but-unstarted requests receive this error
    too — they never ran, so retrying elsewhere (or after
    ``retry_after_s``) is always safe.
    """

    def __init__(self, reason: str, retry_after_s: float | None = None) -> None:
        self.reason = reason
        self.retry_after_s = retry_after_s
        super().__init__(f"server draining: {reason}")


class BudgetExceededError(ReproError):
    """Query execution exceeded its :class:`~repro.resilience.ResourceBudget`.

    Attributes
    ----------
    resource:
        Which limit tripped: ``"wall_clock"``, ``"regions"``, or ``"bytes"``.
    limit / spent:
        The configured limit and the amount consumed when the guard fired.
    partial:
        A dict snapshot of the work done so far (regions materialized,
        bytes parsed, elapsed seconds) — the partial execution statistics.
    trace:
        The partial pipeline :class:`~repro.obs.trace.Trace` up to the
        abort, when tracing was enabled (``None`` otherwise).
    """

    def __init__(
        self,
        resource: str,
        limit: float,
        spent: float,
        partial: dict | None = None,
    ) -> None:
        self.resource = resource
        self.limit = limit
        self.spent = spent
        self.partial = partial if partial is not None else {}
        self.trace = None
        unit = {"wall_clock": "s", "regions": " regions", "bytes": " bytes"}.get(
            resource, ""
        )
        super().__init__(
            f"query budget exceeded: {resource} limit {limit}{unit} "
            f"(spent {spent}{unit})"
        )

