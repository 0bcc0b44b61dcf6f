"""Structured query warnings.

Degradation decisions (falling back to full-scan, rebuilding a corrupt
index, skipping a malformed region) must be *visible* without failing the
query: each one becomes a :class:`QueryWarning` carried on
``QueryResult.warnings`` (and under ``"warnings"`` in the stable
``QueryStats.to_dict()`` JSON shape).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: Warning codes (stable strings — the CLI and tests match on them).
INDEX_MISSING = "index-missing"
INDEX_CORRUPT = "index-corrupt"
INDEX_STALE = "index-stale"
INDEX_REBUILT = "index-rebuilt"
DEGRADED_FULL_SCAN = "degraded-full-scan"
BUDGET_DEGRADED = "budget-degraded"
MALFORMED_REGION = "malformed-region"
SHARD_FAILED = "shard-failed"
SHARD_RETRIED = "shard-retried"
SHARD_SKIPPED_OPEN_BREAKER = "shard-skipped-open-breaker"
SHARD_HEDGED = "shard-hedged"
SHARD_TIMEOUT = "shard-timeout"
PARTIAL_RESULT = "partial-result"
DELTA_REPLAYED = "delta-replayed"
SHARD_SPLIT = "shard-split"
STALE_STAGING_REMOVED = "stale-staging-removed"
REPLICA_FAILOVER = "replica-failover"
REPLICA_QUARANTINED = "replica-quarantined"
REPLICA_REPAIRED = "replica-repaired"
QUORUM_DEGRADED = "quorum-degraded"


@dataclass(frozen=True)
class QueryWarning:
    """One non-fatal incident surfaced by a query.

    ``code`` is a stable machine-matchable identifier (see the module
    constants); ``message`` is the human-readable account; ``detail``
    carries structured context (region offsets, parse positions, paths).
    """

    code: str
    message: str
    detail: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"code": self.code, "message": self.message, "detail": dict(self.detail)}

    def tagged(self, shard: str) -> "QueryWarning":
        """This warning with the shard it came from named in ``detail``."""
        return QueryWarning(self.code, self.message, {**self.detail, "shard": shard})

    def __str__(self) -> str:
        return f"[{self.code}] {self.message}"


def malformed_region_warning(error, region) -> QueryWarning:
    """The structured warning for one candidate region that failed to
    re-parse under ``skip_malformed`` — position/symbol preserved."""
    return QueryWarning(
        code=MALFORMED_REGION,
        message=(
            f"skipped malformed region ({region.start}, {region.end}): {error}"
        ),
        detail={
            "start": region.start,
            "end": region.end,
            "position": getattr(error, "position", 0),
            "symbol": getattr(error, "symbol", None),
        },
    )
