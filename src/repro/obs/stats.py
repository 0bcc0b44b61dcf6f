"""The one per-answer statistics type.

Before this module the engine exposed three overlapping stats objects —
``ExecutionStats`` (per-query costs), ``OperationCounters`` (algebra work),
``CacheStats`` (engine-lifetime cache tallies) — each with its own shape.
:class:`QueryStats` consolidates the per-query view behind one object with
a documented, stable :meth:`QueryStats.to_dict` used by the CLI's
``--json`` output, the server's envelopes and the benchmark harness.

Every answer carries one: a single corpus's, or one merged over several
sources by :class:`~repro.shard.ShardedEngine` — whose execution is the sum
over the healthy sources and which also holds one :class:`ShardExecution`
record per source.

Every attribute of the wrapped :class:`~repro.core.partial.ExecutionStats`
remains reachable directly (``result.stats.strategy``,
``result.stats.bytes_parsed``, ...), so existing callers keep working.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.obs.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports obs)
    from repro.core.engine import QueryResult
    from repro.core.partial import ExecutionStats
    from repro.resilience.warnings import QueryWarning

#: Source outcome statuses (stable strings, matched by tests and CI).
OK = "ok"
FAILED = "failed"
SKIPPED = "skipped"


@dataclass
class ShardExecution:
    """What happened on one source of a merged query: filled in by the
    scatter, read by the gather, the trace and :meth:`to_dict`."""

    shard: str
    status: str  # ok | failed | skipped
    result: "QueryResult | None" = None
    error: BaseException | None = None
    attempts: int = 0
    retries: int = 0
    started_at: float = 0.0
    ended_at: float = 0.0
    breaker: dict[str, Any] = field(default_factory=dict)
    #: Source-level incidents (hedged, retried, failed, skipped, timed
    #: out), then the source's own warnings tagged with its name.
    warnings: "list[QueryWarning]" = field(default_factory=list)
    hedged: bool = False
    #: Which attempt answered a hedged source: ``"primary"`` or ``"hedge"``.
    winner: str | None = None

    @property
    def duration_s(self) -> float:
        return max(0.0, self.ended_at - self.started_at)

    @property
    def rows(self) -> int:
        return len(self.result.rows) if self.result is not None else 0

    @property
    def strategy(self) -> str | None:
        return self.result.stats.strategy if self.result is not None else None

    def to_dict(self) -> dict[str, Any]:
        return {
            "shard": self.shard,
            "status": self.status,
            "attempts": self.attempts,
            "retries": self.retries,
            "duration_s": self.duration_s,
            "rows": self.rows,
            "strategy": self.strategy,
            "breaker": dict(self.breaker),
            "error": str(self.error) if self.error is not None else None,
            "warnings": [warning.to_dict() for warning in self.warnings],
        }


class QueryStats:
    """One answer's costs: execution stats + algebra counters + per-query
    cache activity + the pipeline trace, plus the per-source records of a
    merged answer.

    Attributes
    ----------
    execution:
        The underlying :class:`ExecutionStats` (also reachable by attribute
        delegation: ``stats.strategy`` ≡ ``stats.execution.strategy``).  A
        merged answer's is the sum over its healthy sources, with strategy
        ``"sharded"``, ``rows`` the merged count actually served and the
        gather's warning stream.
    trace:
        The hierarchical pipeline :class:`Trace`, or ``None`` when the
        engine ran with tracing disabled.
    shards:
        One :class:`ShardExecution` per source of a merged answer, in
        source order (empty for a single corpus's answer).
    """

    __slots__ = ("execution", "trace", "shards", "_duration_s")

    def __init__(
        self,
        execution: "ExecutionStats",
        trace: Trace | None = None,
        shards: list[ShardExecution] | None = None,
        duration_s: float | None = None,
    ) -> None:
        self.execution = execution
        self.trace = trace
        self.shards = shards if shards is not None else []
        self._duration_s = duration_s

    def __getattr__(self, name: str) -> Any:
        # Only called when normal lookup fails: delegate to the execution
        # stats so the facade is a drop-in for the old `.stats` object.
        return getattr(self.execution, name)

    @property
    def algebra(self):
        """The algebra operation counters (one of the three legacy views)."""
        return self.execution.algebra

    @property
    def cache(self) -> dict[str, int]:
        """Per-query cache activity (hits/misses attributed to this query)."""
        execution = self.execution
        return {
            "expression_hits": execution.cache_expression_hits,
            "expression_misses": execution.cache_expression_misses,
            "parse_hits": execution.cache_parse_hits,
            "parse_misses": execution.cache_parse_misses,
            "bytes_parse_avoided": execution.bytes_parse_avoided,
        }

    @property
    def duration_seconds(self) -> float:
        """End-to-end wall time: the gather's for a merged answer, else the
        trace's (0.0 when untraced)."""
        if self._duration_s is not None:
            return self._duration_s
        return self.trace.duration if self.trace is not None else 0.0

    def _count(self, status: str) -> int:
        return sum(1 for record in self.shards if record.status == status)

    @property
    def healthy_shards(self) -> int:
        return self._count(OK)

    @property
    def failed_shards(self) -> int:
        return self._count(FAILED)

    @property
    def skipped_shards(self) -> int:
        return self._count(SKIPPED)

    @property
    def retries(self) -> int:
        return sum(record.retries for record in self.shards)

    def to_dict(self) -> dict[str, Any]:
        """The stable JSON shape.  Documented keys (additions are allowed;
        removing or renaming one changes the wire shape, so
        the JSON schemas under ``schemas/`` change with it):

        - ``strategy``, ``rows``, ``candidate_regions``, ``result_regions``
        - ``bytes_parsed``, ``values_built``, ``objects_filtered_out``,
          ``join_bytes_compared``
        - ``algebra``: the flat operation-counter snapshot
          (``op:<symbol>`` keys plus ``comparisons``, ``regions_out``,
          ``bytes_scanned``)
        - ``cache``: per-query hit/miss/bytes-avoided dict
        - ``warnings``: structured non-fatal incidents, each a
          ``{code, message, detail}`` dict (degradations, skipped
          malformed regions)
        - ``duration_s``: end-to-end seconds (0.0 for an untraced single
          corpus's answer)
        - ``trace``: the span tree (``None`` when untraced)
        - ``shards``: the per-source records, on merged answers only
        """
        execution = self.execution
        data = {
            "strategy": execution.strategy,
            "rows": execution.rows,
            "candidate_regions": execution.candidate_regions,
            "result_regions": execution.result_regions,
            "bytes_parsed": execution.bytes_parsed,
            "values_built": execution.values_built,
            "objects_filtered_out": execution.objects_filtered_out,
            "join_bytes_compared": execution.join_bytes_compared,
            "algebra": execution.algebra.snapshot(),
            "cache": self.cache,
            "warnings": [warning.to_dict() for warning in execution.warnings],
            "duration_s": self.duration_seconds,
            "trace": self.trace.to_dict() if self.trace is not None else None,
        }
        if self.shards:
            data["shards"] = [record.to_dict() for record in self.shards]
        return data

    def summary(self) -> str:
        """The human-readable multi-line summary: execution stats, the wall
        time when measured, and a merged answer's per-source table."""
        lines = [self.execution.summary()]
        if self.trace is not None or self.shards:
            lines.append(f"wall time:         {self.duration_seconds * 1e3:.3f} ms")
        if self.shards:
            lines.append(
                f"shards:            {self.healthy_shards}/{len(self.shards)} healthy"
            )
        for record in self.shards:
            detail = (
                f"{record.rows} rows, {record.strategy}"
                if record.status == OK
                else (record.error or record.status)
            )
            retried = f", {record.retries} retr." if record.retries else ""
            lines.append(
                f"  {record.shard:<20} {record.status:<8} "
                f"{record.duration_s * 1e3:8.2f} ms  "
                f"breaker={record.breaker.get('state', '?')}{retried}  {detail}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryStats({self.execution.strategy!r}, rows={self.execution.rows})"
