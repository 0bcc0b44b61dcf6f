"""Fault-tolerant query execution.

The paper's premise is that queries on files must survive contact with
messy reality: indexes go corrupt or stale on disk, single regions go
malformed, and evaluation cost is hard to bound statically.  This package
is the fault-tolerance layer threaded through the engine:

- :mod:`repro.resilience.budget` — guarded evaluation:
  :class:`ResourceBudget` / :class:`BudgetMeter` enforce wall-clock
  deadlines and caps on regions materialized / bytes parsed inside the
  evaluator and executor loops, raising
  :class:`~repro.errors.BudgetExceededError` with partial progress;
- :mod:`repro.resilience.policy` — :class:`DegradationPolicy` decides,
  per failure class (corrupt / stale / missing index, blown budget,
  malformed region), between typed errors and graceful fallback to the
  cached full-scan pipeline or an index rebuild;
- :mod:`repro.resilience.retry` — :class:`RetryPolicy` /
  :func:`call_with_retry`: capped, deterministically jittered exponential
  backoff for transient I/O failures (used per shard by
  :class:`~repro.shard.ShardedEngine`);
- :mod:`repro.resilience.breaker` — :class:`CircuitBreaker` /
  :class:`BreakerConfig`: the closed → open → half-open state machine
  that stops hammering a shard that keeps failing;
- :mod:`repro.resilience.warnings` — :class:`QueryWarning`, the
  structured record of every degradation decision, surfaced on
  ``QueryResult.warnings`` and as ``degraded`` spans in the trace;
- :mod:`repro.resilience.faults` — deterministic fault injection
  (index corruption, truncation, mid-parse failures, slow operators,
  transient shard I/O faults, slow shards) so every degradation path is
  exercised in CI.

See ``docs/robustness.md`` for the full semantics.
"""

from repro.resilience.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerConfig,
    CircuitBreaker,
)
from repro.resilience.budget import BudgetMeter, ResourceBudget, combine_budgets
from repro.resilience.faults import (
    FlakySchema,
    HungShard,
    SlowInstance,
    SlowShard,
    TransientIOFault,
    WorkerStall,
    corrupt_index_file,
    truncate_file,
)
from repro.resilience.policy import DegradationPolicy
from repro.resilience.retry import RetryPolicy, call_with_retry
from repro.resilience.warnings import (
    BUDGET_DEGRADED,
    DEGRADED_FULL_SCAN,
    DELTA_REPLAYED,
    INDEX_CORRUPT,
    INDEX_MISSING,
    INDEX_REBUILT,
    INDEX_STALE,
    MALFORMED_REGION,
    PARTIAL_RESULT,
    SHARD_FAILED,
    SHARD_RETRIED,
    SHARD_SKIPPED_OPEN_BREAKER,
    SHARD_SPLIT,
    SHARD_TIMEOUT,
    STALE_STAGING_REMOVED,
    QueryWarning,
    malformed_region_warning,
)

__all__ = [
    "ResourceBudget",
    "BudgetMeter",
    "combine_budgets",
    "DegradationPolicy",
    "RetryPolicy",
    "call_with_retry",
    "BreakerConfig",
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "QueryWarning",
    "malformed_region_warning",
    "FlakySchema",
    "HungShard",
    "SlowInstance",
    "SlowShard",
    "TransientIOFault",
    "WorkerStall",
    "corrupt_index_file",
    "truncate_file",
    # warning codes
    "INDEX_MISSING",
    "INDEX_CORRUPT",
    "INDEX_STALE",
    "INDEX_REBUILT",
    "DEGRADED_FULL_SCAN",
    "BUDGET_DEGRADED",
    "MALFORMED_REGION",
    "SHARD_FAILED",
    "SHARD_RETRIED",
    "SHARD_SKIPPED_OPEN_BREAKER",
    "SHARD_TIMEOUT",
    "PARTIAL_RESULT",
    "DELTA_REPLAYED",
    "SHARD_SPLIT",
    "STALE_STAGING_REMOVED",
]
