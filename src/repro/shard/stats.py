"""Statistics for sharded query execution.

:class:`ShardedStats` plays the role :class:`~repro.obs.stats.QueryStats`
plays for a single engine: one facade with a stable ``to_dict()``.  Its
shape is a superset of the single-engine one — every documented
``QueryStats.to_dict()`` key is present with corpus-wide aggregates
(sums over the shards that produced rows; ``rows`` is the merged count
actually served), plus a ``"shards"`` list with
one record per shard: status, attempts/retries, wall-time, rows,
strategy, and the circuit-breaker state observed at the end of the
query.  The CLI's ``--json`` output and EXPLAIN ANALYZE both embed it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.resilience.warnings import QueryWarning

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import QueryResult
    from repro.obs.trace import Trace

#: Shard outcome statuses (stable strings, matched by tests and CI).
OK = "ok"
FAILED = "failed"
SKIPPED = "skipped"


@dataclass
class ShardExecution:
    """What happened on one shard during one sharded query."""

    shard: str
    status: str  # ok | failed | skipped
    attempts: int = 1
    retries: int = 0
    duration_s: float = 0.0
    rows: int = 0
    strategy: str | None = None
    breaker: dict[str, Any] = field(default_factory=dict)
    error: str | None = None
    warnings: list[QueryWarning] = field(default_factory=list)

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
            "error": self.error,
            "warnings": [warning.to_dict() for warning in self.warnings],
        }


class ShardedStats:
    """Aggregated statistics for one scatter-gather query.

    Attributes
    ----------
    shards:
        One :class:`ShardExecution` per shard, in shard order.
    warnings:
        The merged warning stream: shard-level incidents
        (``shard-failed`` / ``shard-retried`` /
        ``shard-skipped-open-breaker`` / ``partial-result``) interleaved
        with each healthy shard's own warnings, every ``detail`` tagged
        with its shard name.
    trace:
        The scatter-gather :class:`~repro.obs.trace.Trace` (one
        ``shard:<name>`` span per shard, each healthy shard's own pipeline
        trace grafted beneath), or ``None`` when tracing is off.
    rows:
        The rows served: the union of the shards' rows, not their sum.
    """

    __slots__ = ("shards", "warnings", "trace", "duration_s", "rows", "_results")

    def __init__(
        self,
        shards: list[ShardExecution],
        warnings: list[QueryWarning],
        duration_s: float,
        rows: int,
        trace: "Trace | None" = None,
        results: "list[QueryResult] | None" = None,
    ) -> None:
        self.shards = shards
        self.warnings = warnings
        self.trace = trace
        self.duration_s = duration_s
        self.rows = rows
        self._results = results if results is not None else []

    # -- aggregate views -------------------------------------------------------

    @property
    def strategy(self) -> str:
        return "sharded"

    def _sum(self, attribute: str) -> int:
        return sum(
            getattr(result.stats, attribute) for result in self._results
        )

    @property
    def healthy_shards(self) -> int:
        return sum(1 for record in self.shards if record.status == OK)

    @property
    def failed_shards(self) -> int:
        return sum(1 for record in self.shards if record.status == FAILED)

    @property
    def skipped_shards(self) -> int:
        return sum(1 for record in self.shards if record.status == SKIPPED)

    @property
    def retries(self) -> int:
        return sum(record.retries for record in self.shards)

    def _merged_algebra(self) -> dict[str, int]:
        merged: dict[str, int] = {}
        for result in self._results:
            for key, value in result.stats.algebra.snapshot().items():
                merged[key] = merged.get(key, 0) + value
        return merged

    def _merged_replans(self) -> list[dict[str, Any]]:
        """Per-shard adaptive-replan records, each tagged with its shard."""
        merged: list[dict[str, Any]] = []
        for record, result in zip(
            (record for record in self.shards if record.status == OK),
            self._results,
        ):
            for replan in result.stats.replans:
                merged.append({**dict(replan), "shard": record.shard})
        return merged

    def _merged_cache(self) -> dict[str, int]:
        merged = {
            "expression_hits": 0,
            "expression_misses": 0,
            "parse_hits": 0,
            "parse_misses": 0,
            "bytes_parse_avoided": 0,
        }
        for result in self._results:
            for key, value in result.stats.cache.items():
                merged[key] = merged.get(key, 0) + value
        return merged

    # -- export ---------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The stable JSON shape: every documented
        :meth:`~repro.obs.stats.QueryStats.to_dict` key (aggregated over
        healthy shards) plus ``shards`` (per-shard records)."""
        return {
            "strategy": self.strategy,
            "rows": self.rows,
            "candidate_regions": self._sum("candidate_regions"),
            "result_regions": self._sum("result_regions"),
            "bytes_parsed": self._sum("bytes_parsed"),
            "values_built": self._sum("values_built"),
            "objects_filtered_out": self._sum("objects_filtered_out"),
            "join_bytes_compared": self._sum("join_bytes_compared"),
            "algebra": self._merged_algebra(),
            "cache": self._merged_cache(),
            "warnings": [warning.to_dict() for warning in self.warnings],
            "replans": self._merged_replans(),
            "duration_s": self.duration_s,
            "trace": self.trace.to_dict() if self.trace is not None else None,
            "shards": [record.to_dict() for record in self.shards],
        }

    def summary(self) -> str:
        """Human-readable per-shard table plus corpus totals."""
        lines = [
            f"strategy:          sharded ({self.healthy_shards}/"
            f"{len(self.shards)} shards healthy)",
            f"results:           {self.rows} rows",
            f"bytes parsed:      {self._sum('bytes_parsed')}",
        ]
        if self.warnings:
            lines.append(f"warnings:          {len(self.warnings)}")
        lines.append(f"wall time:         {self.duration_s * 1e3:.3f} ms")
        lines.append("shards:")
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
        return (
            f"ShardedStats({self.healthy_shards}/{len(self.shards)} healthy, "
            f"rows={self.rows})"
        )
