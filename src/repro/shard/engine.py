"""Scatter-gather query execution over a sharded corpus.

One :class:`ShardedEngine` maps a single structuring schema over N corpus
files, each backed by its own :class:`~repro.core.engine.FileQueryEngine`
and persisted index.  A query is planned **once** (translation and
optimization depend only on the schema and index configuration, which all
shards share) and the plan is executed per shard on the engine's one
long-lived thread pool: ``max_parallel`` workers shared by every query,
started on first use and kept, so a warm query starts no thread.  Each
shard evaluates independently under the existing budget/degradation
machinery, with three extra layers of isolation:

- transient I/O failures are retried with capped jittered exponential
  backoff (:mod:`repro.resilience.retry`);
- a shard that keeps failing trips its own circuit breaker
  (:mod:`repro.resilience.breaker`) and is skipped — cheaply — until the
  cooldown elapses;
- an attempt abandoned at the deadline keeps its worker until it
  returns.  While one does, the shard's next attempts fail at once
  instead of taking another worker, and each such failure counts on the
  breaker; so a shard whose attempts never return holds only the workers
  of the queries that reached it before its first abandonment.  An
  attempt whose turn on the pool comes after the deadline is not run
  and not held against its shard;
- a failed or skipped shard never takes the query down (unless
  ``fail_fast`` asks for exactly that): the merged result carries rows
  from the healthy shards plus structured ``shard-failed`` /
  ``shard-retried`` / ``shard-skipped-open-breaker`` / ``partial-result``
  warnings.

``fail_fast`` mode flips partial-result semantics into a typed
:class:`~repro.errors.ShardFailedError` for the first unhealthy shard.
A query that no shard can answer raises even in tolerant mode — an empty
"partial" result backed by zero shards would be indistinguishable from a
true empty answer.

The gather is the **one merge point** in the system: the only place rows
from more than one corpus meet (a live engine's delta segments are just
more scatter sources, see :mod:`repro.live`).  Answers are sets, so the
merge is a set union — each row's first occurrence in source (document)
order, the rule a single engine applies to its own rows.  A join does not
decompose that way (each source would join only its own records), so a
multi-variable query over more than one source is refused with a
:class:`~repro.errors.PlanningError` rather than answered short.
"""

from __future__ import annotations

import os
import random
import threading
import time
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Sequence

from repro.cache import CacheConfig
from repro.core.engine import EngineBase, FileQueryEngine, QueryResult
from repro.core.partial import ExecutionStats
from repro.core.planner import Plan
from repro.db.parser import parse_query
from repro.db.query import Query
from repro.db.values import canonical_row, first_distinct
from repro.errors import PlanningError, QueryError, ShardFailedError
from repro.index.config import IndexConfig
from repro.index.persist import corpus_fingerprint, schema_fingerprint, source_record
from repro.obs.stats import FAILED, OK, SKIPPED, QueryStats, ShardExecution
from repro.obs.trace import Span, Trace
from repro.resilience.breaker import HALF_OPEN, BreakerConfig, CircuitBreaker
from repro.resilience.budget import ResourceBudget
from repro.resilience.fault import fault_point
from repro.resilience.policy import DegradationPolicy
from repro.resilience.retry import RetryPolicy, call_with_retry
from repro.resilience.warnings import (
    PARTIAL_RESULT,
    SHARD_FAILED,
    SHARD_RETRIED,
    SHARD_SKIPPED_OPEN_BREAKER,
    SHARD_TIMEOUT,
    QueryWarning,
)
from repro.schema.structuring import StructuringSchema
from repro.shard.manifest import (
    SHARDS_SUBDIR,
    ShardEntry,
    ShardManifest,
    load_shard_manifest,
    save_shard_manifest,
    shard_slug,
)
from repro.shard.replica import ReplicaSet
from repro.shard.split import split_corpus

#: Default ceiling on concurrently evaluating shards, engine-wide.
DEFAULT_MAX_PARALLEL = 8

#: How long past an absolute request deadline the scatter waits for
#: per-shard budget meters to fire on their own before abandoning the
#: stragglers outright: ``fraction * deadline_s`` clamped to the bounds.
#: Keeps the worst case comfortably under 2x the deadline while giving a
#: healthy-but-late shard time to report its own BudgetExceededError.
GATHER_GRACE_FRACTION = 0.25
GATHER_GRACE_MIN_S = 0.02
GATHER_GRACE_MAX_S = 1.0


@dataclass
class _Shard:
    """One shard's mutable state: identity, lazily built engine, breaker,
    and — for a saved shard — its set of copies, opened on first use."""

    name: str
    text: str | None = None
    directory: Path | None = None
    source_path: Path | None = None
    engine: FileQueryEngine | None = None
    breaker: CircuitBreaker = field(default_factory=CircuitBreaker)
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: Held across an engine build, so that concurrent queries on a
    #: cold shard build its engine once between them.
    build_lock: threading.Lock = field(default_factory=threading.Lock)
    replica_set: ReplicaSet | None = None
    replica_events: list = field(default_factory=list)
    #: Abandoned attempts that still hold a pool worker.
    stuck: int = 0
    stuck_lock: threading.Lock = field(default_factory=threading.Lock)

    def abandon(self, claim: _Claim) -> bool:
        """Settle a running attempt as abandoned, unless it settled
        first; an abandoned attempt is stuck until it returns."""
        with self.stuck_lock:
            if not claim.settled.acquire(blocking=False):
                return False
            self.stuck += 1
            return True

    def settle(self, claim: _Claim) -> bool:
        """Settle a returning attempt as finished, unless it was
        abandoned first — then it is no longer stuck."""
        with self.stuck_lock:
            if claim.settled.acquire(blocking=False):
                return True
            self.stuck -= 1
            return False


class _Claim:
    """One query's attempt on one source.  ``settled`` is taken once:
    by the attempt to record its outcome, or by the scatter to abandon
    it, so while the attempt runs a held ``settled`` means abandoned.
    ``started_at`` is when a worker picked the attempt up."""

    __slots__ = ("settled", "started_at")

    def __init__(self) -> None:
        self.settled = threading.Lock()
        self.started_at: float | None = None


class ShardedEngine(EngineBase):
    """Query a corpus of many files through one schema, one shard each.

    Construction is via the classmethods: :meth:`from_texts` /
    :meth:`from_paths` build shard engines eagerly (the expensive
    per-shard parse happens once, up front); :meth:`from_saved` reads a
    shard manifest and loads each shard lazily, *inside* its scatter task,
    so a damaged shard directory surfaces as that shard's isolated
    failure — never as a load-time crash of the whole corpus.
    """

    def __init__(
        self,
        schema: StructuringSchema,
        shards: Sequence[_Shard],
        *,
        config: IndexConfig | None = None,
        cache_config: CacheConfig | None = None,
        tracing: bool = True,
        policy: DegradationPolicy | None = None,
        budget: ResourceBudget | None = None,
        retry: RetryPolicy | None = None,
        breaker_config: BreakerConfig | None = None,
        max_parallel: int | None = None,
        fail_fast: bool = False,
        retry_sleep: Callable[[float], Any] = time.sleep,
    ) -> None:
        if not shards:
            raise ValueError("a sharded engine needs at least one shard")
        names = [shard.name for shard in shards]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate shard names: {sorted(names)}")
        self.schema = schema
        self.config = config if config is not None else IndexConfig.full()
        self.cache_config = cache_config
        self.tracing = tracing
        self.policy = policy if policy is not None else DegradationPolicy()
        self.budget = budget
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker_config = (
            breaker_config if breaker_config is not None else BreakerConfig()
        )
        self.max_parallel = (
            max_parallel if max_parallel is not None else DEFAULT_MAX_PARALLEL
        )
        if self.max_parallel < 1:
            raise ValueError(f"max_parallel must be >= 1, got {self.max_parallel!r}")
        self.fail_fast = fail_fast
        self._retry_sleep = retry_sleep
        self._shards = self._adopt(shards)
        #: The scatter's workers, shared by every query on this engine.
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_parallel, thread_name_prefix="repro-shard"
        )
        #: Engine-level incidents prepended to every merged result.
        self._load_warnings: list[QueryWarning] = []

    def _adopt(self, shards: Sequence[_Shard]) -> list[_Shard]:
        """Give every shard its own breaker under this engine's config."""
        for shard in shards:
            shard.breaker = CircuitBreaker(self.breaker_config, name=shard.name)
        return list(shards)

    # -- construction ----------------------------------------------------------

    @classmethod
    def _eager(
        cls, schema: StructuringSchema, shards: list[_Shard], options: dict[str, Any]
    ) -> "ShardedEngine":
        """Build every shard engine up front (the expensive per-shard parse
        happens once, here)."""
        engine = cls(schema, shards, **options)
        for shard in engine._shards:
            engine._ensure_engine(shard)
        return engine

    @classmethod
    def from_texts(
        cls,
        schema: StructuringSchema,
        texts: Sequence[str],
        names: Sequence[str] | None = None,
        **options: Any,
    ) -> "ShardedEngine":
        """One shard per text, built eagerly (names default to ``shard0``,
        ``shard1``, ...)."""
        if names is None:
            names = [f"shard{number}" for number in range(len(texts))]
        if len(names) != len(texts):
            raise ValueError("names and texts must have equal length")
        shards = [
            _Shard(name=name, text=text) for name, text in zip(names, texts)
        ]
        return cls._eager(schema, shards, options)

    @classmethod
    def from_paths(
        cls,
        schema: StructuringSchema,
        paths: Sequence[str | os.PathLike[str]],
        **options: Any,
    ) -> "ShardedEngine":
        """One shard per file, built eagerly; each shard remembers its
        source path for staleness checks after :meth:`save`."""
        shards = []
        for path in paths:
            path = Path(path)
            shards.append(
                _Shard(
                    name=str(path),
                    text=path.read_text(encoding="utf-8"),
                    source_path=path,
                )
            )
        return cls._eager(schema, shards, options)

    @classmethod
    def split(
        cls,
        schema: StructuringSchema,
        text: str,
        shards: int,
        **options: Any,
    ) -> "ShardedEngine":
        """Shard a single corpus text into ``shards`` byte-balanced chunks
        at top-level record boundaries (see :mod:`repro.shard.split`)."""
        return cls.from_texts(schema, split_corpus(schema, text, shards), **options)

    @classmethod
    def from_saved(
        cls,
        schema: StructuringSchema,
        directory: str | os.PathLike[str],
        **options: Any,
    ) -> "ShardedEngine":
        """Open a saved sharded index (see :meth:`save`).

        Only the root manifest is read here.  Shard indexes load lazily
        inside their scatter tasks under the retry/breaker machinery, so a
        corrupt or missing shard costs exactly one shard, not the corpus.
        """
        root = Path(directory)
        return cls(schema, cls._saved_shards(root, load_shard_manifest(root)), **options)

    @staticmethod
    def _saved_shards(root: Path, manifest: ShardManifest) -> list[_Shard]:
        """One lazily loaded shard per manifest entry, in manifest order."""
        shards = []
        for entry in manifest.shards:
            source_path: Path | None = None
            if entry.source and entry.source.get("path"):
                candidate = Path(entry.source["path"])
                # Only wire the staleness check to sources that still exist;
                # a vanished source file must not fail an intact shard.
                if candidate.exists():
                    source_path = candidate
            shards.append(
                _Shard(
                    name=entry.name,
                    directory=root / entry.directory,
                    source_path=source_path,
                )
            )
        return shards

    def save(
        self, directory: str | os.PathLike[str], replicas: int | None = None
    ) -> None:
        """Persist every shard (each a crash-safe v2 single-index save)
        plus the root shard manifest with per-shard fingerprints.

        ``replicas=N`` saves each shard in the replicated layout — N
        complete sibling copies under ``replica-{i}/`` per shard directory
        (see :mod:`repro.shard.replica`).

        The root manifest is written last: it is the commit point, and it
        only ever lists shards whose directories are already complete.
        """
        root = Path(directory)
        (root / SHARDS_SUBDIR).mkdir(parents=True, exist_ok=True)
        entries = []
        for number, shard in enumerate(self._shards):
            engine = self._ensure_engine(shard)
            relative = f"{SHARDS_SUBDIR}/{shard_slug(shard.name, number)}"
            engine.save(
                str(root / relative),
                source_path=shard.source_path,
                replicas=replicas,
            )
            entries.append(
                ShardEntry(
                    name=shard.name,
                    directory=relative,
                    corpus_fingerprint=corpus_fingerprint(engine.text),
                    source=source_record(shard.source_path),
                )
            )
        save_shard_manifest(
            root,
            ShardManifest(
                shards=tuple(entries),
                schema_fingerprint=schema_fingerprint(self.schema),
            ),
        )

    def close(self) -> None:
        """Shut the scatter pool down: idle workers exit now, one still
        running an attempt when the attempt returns.  Queries fail after
        this."""
        self._pool.shutdown(wait=False, cancel_futures=True)

    # -- shard plumbing --------------------------------------------------------

    @property
    def shard_names(self) -> list[str]:
        return [shard.name for shard in self._shards]

    def breaker_snapshot(self, shard_name: str) -> dict[str, Any]:
        """The named shard's circuit-breaker state (for harnesses/tests)."""
        return self._shard_by_name(shard_name).breaker.snapshot()

    def _shard_by_name(self, name: str) -> _Shard:
        for shard in self._shards:
            if shard.name == name:
                return shard
        raise KeyError(f"no shard named {name!r}")

    def _replica_set(self, shard: _Shard) -> ReplicaSet:
        """A saved shard's copies, opened once (lock-protected)."""
        with shard.lock:
            if shard.replica_set is None:
                shard.replica_set = ReplicaSet.open(
                    shard.directory,
                    breaker_config=self.breaker_config,
                    shard_name=shard.name,
                )
            return shard.replica_set

    def _ensure_engine(self, shard: _Shard) -> FileQueryEngine:
        """Build or load the shard's engine (idempotent).

        Builds run one at a time under the shard's build lock: a query
        that finds another mid-build waits and reuses its engine, so
        concurrent queries on a cold shard — a live delta segment an
        append just formed — pay for one build, not one each.  Failures
        leave ``shard.engine`` unset so the next attempt — this query's
        retry, or the next query — starts clean.
        """
        with shard.lock:
            if shard.engine is not None:
                return shard.engine
        with shard.build_lock:
            with shard.lock:
                if shard.engine is not None:
                    return shard.engine
            engine = self._load_shard_engine(shard)
            with shard.lock:
                if shard.engine is None:
                    shard.engine = engine
                return shard.engine

    def _load_shard_engine(self, shard: _Shard) -> FileQueryEngine:
        options = dict(
            cache_config=self.cache_config,
            tracing=self.tracing,
            budget=self.budget,
        )
        if shard.directory is None:
            return FileQueryEngine(
                self.schema, shard.text or "", self.config, policy=self.policy, **options
            )

        load = self._replica_set(shard).load_under(
            self.policy,
            lambda path, policy: FileQueryEngine._load_copy(
                self.schema, path, policy, source_path=shard.source_path, **options
            ),
        )
        with shard.lock:
            shard.replica_events = list(load.events)
        return load.value

    def _shared_plan(
        self, holder: dict, engine: FileQueryEngine, query: Query | str
    ) -> Plan:
        """Plan once, under a lock; every other shard reuses the plan."""
        with holder["lock"]:
            if "plan" not in holder:
                holder["plan"] = engine.planner.plan(query)
            return holder["plan"]

    # -- querying --------------------------------------------------------------

    def query(
        self,
        query: Query | str,
        budget: ResourceBudget | None = None,
        *,
        trace: bool = True,
    ) -> QueryResult:
        """Scatter the query over all sources, gather their set union.

        Row order is deterministic: each distinct row appears once, where
        it first appears in source order, regardless of completion order.
        A multi-variable query over more than one source raises
        :class:`~repro.errors.PlanningError` before anything is scattered.
        ``budget`` (or the engine-wide
        default) is stamped with an absolute end-to-end deadline here —
        once, at admission — and every shard receives the *remaining*
        time at its dispatch, so the deadline never restarts at a layer
        boundary.  A shard that produces nothing by the deadline (plus a
        small grace for its own meter to fire) is abandoned with a
        ``shard-timeout`` warning instead of hanging the request.  With
        the engine's ``fail_fast`` any unhealthy shard raises
        :class:`~repro.errors.ShardFailedError` instead of degrading to a
        partial result.  ``trace=False`` (see
        :meth:`FileQueryEngine.query <repro.core.engine.FileQueryEngine.query>`)
        reaches every source's execution, and the gather then builds no
        ``shard-query`` tree; ``stats.shards`` is kept either way.
        """
        holder: dict[str, Any] = {"lock": threading.Lock()}
        started = perf_counter()
        planning = next((e for e in self._engines() if not e.degraded), None)
        if planning is not None:
            # Query text goes to the planner the way FileQueryEngine.query
            # sends it, always on the first healthy loaded shard, so a
            # repeated text hits that planner's plan cache.  Only a cold
            # engine (nothing loaded yet) plans inside its scatter tasks.
            holder["plan"] = planning.planner.plan(query)
        sources = self._sources()
        if len(sources) > 1:
            parsed = holder["plan"].query if "plan" in holder else query
            parsed = parse_query(parsed) if isinstance(parsed, str) else parsed
            if len(parsed.sources) > 1:
                raise PlanningError(
                    f"a join over {len(parsed.sources)} range variables cannot "
                    f"be answered across {len(sources)} sources: each source "
                    "would join only its own records"
                )

        effective = budget if budget is not None else self.budget
        if effective is not None:
            effective = effective.started()  # mint the deadline once, here
        outcomes = self._scatter(sources, query, effective, holder, trace)
        return self._gather(sources, outcomes, holder, started, trace)

    def _sources(self) -> list[_Shard]:
        """This query's snapshot of what to scatter to, in document order."""
        return list(self._shards)

    def _scatter(
        self,
        sources: list[_Shard],
        query: Query | str,
        budget: ResourceBudget | None,
        holder: dict[str, Any],
        trace: bool,
    ) -> list[ShardExecution]:
        """Submit one attempt per source to the engine's pool and wait for
        them once: until all finish, one raises a query-wide error, or the
        absolute deadline (plus grace) passes.  Then this query's attempts
        that have not started are cancelled, and whatever has produced
        nothing is abandoned.

        Each attempt carries a :class:`_Claim` that settles it: the attempt
        takes it before it records its outcome on the breaker, the scatter
        takes it to abandon the attempt.  Whoever comes first decides; an
        attempt that finished as the wait ended is taken as finished."""
        dispatched_at = perf_counter()
        claims = [_Claim() for _ in sources]
        futures = [
            self._pool.submit(
                self._run_shard, shard, query, budget, holder, claim, trace
            )
            for shard, claim in zip(sources, claims)
        ]
        timeout: float | None = None
        if budget is not None and budget.deadline_at is not None:
            grace = min(
                GATHER_GRACE_MAX_S,
                max(
                    GATHER_GRACE_MIN_S,
                    (budget.deadline_s or 0.0) * GATHER_GRACE_FRACTION,
                ),
            )
            timeout = max(0.0, budget.deadline_at + grace - perf_counter())
        done, pending = futures_wait(futures, timeout=timeout, return_when=FIRST_EXCEPTION)
        for future in pending:
            future.cancel()
        for future in futures:
            error = future.exception() if future in done else None
            if error is not None:
                # Query-wide defects (bad syntax, untranslatable path) are
                # the caller's problem, not a shard fault: _run_shard
                # isolates everything else.
                raise error
        outcomes = []
        for shard, claim, future in zip(sources, claims, futures):
            if future in done:
                outcomes.append(future.result())
            elif future.cancelled():
                outcomes.append(self._abandon(shard, budget, dispatched_at, False))
            elif shard.abandon(claim):
                ran = perf_counter() - (claim.started_at or perf_counter())
                charged = shard.breaker.state == HALF_OPEN or (
                    budget is not None and ran >= (budget.deadline_s or 0.0)
                )
                outcomes.append(self._abandon(shard, budget, dispatched_at, charged))
            else:
                outcomes.append(future.result())  # settled as the wait ended
        return outcomes

    def _abandon(
        self,
        shard: _Shard,
        budget: ResourceBudget | None,
        dispatched_at: float,
        charged: bool,
    ) -> ShardExecution:
        """Give up on a shard that produced nothing by the deadline.

        An attempt the pool never started was cancelled and held no
        worker.  One that started keeps its worker until it returns: the
        shard counts it as stuck, and until it returns the shard's next
        attempts fail at once (see :meth:`_attempt`).  It is ``charged``
        as one failure on the shard's breaker when it ran for the request's
        whole deadline, but not when it waited for a worker behind other
        attempts: that is no evidence against its shard.  Under a half-open
        breaker it is always charged, since it may hold the one probe slot
        and its late outcome will never be recorded.  The late outcome
        of an abandoned attempt is discarded and touches neither the
        breaker nor any stats.  The ``shard:abandoned:{shard}`` fault point
        lets an injected hang wake and fail fast."""
        fault_point(f"shard:abandoned:{shard.name}")
        if charged:
            shard.breaker.record_failure()
        return self._timed_out(
            shard, budget, dispatched_at, "abandoned: no result within", attempts=1
        )

    @staticmethod
    def _timed_out(
        shard: _Shard,
        budget: ResourceBudget | None,
        started: float,
        why: str,
        attempts: int,
    ) -> ShardExecution:
        """A ``shard-timeout`` failure: the shard has no answer for this
        request because its deadline ran out."""
        described = budget.describe() if budget is not None else "deadline"
        message = f"shard {shard.name!r} {why} the request deadline"
        return ShardExecution(
            shard=shard.name,
            status=FAILED,
            error=TimeoutError(message),
            attempts=attempts,
            started_at=started,
            ended_at=perf_counter(),
            warnings=[
                QueryWarning(
                    SHARD_TIMEOUT,
                    f"{message} ({described})",
                    detail={"shard": shard.name, "budget": described},
                )
            ],
            breaker=shard.breaker.snapshot(),
        )

    def _run_shard(
        self,
        shard: _Shard,
        query: Query | str,
        budget: ResourceBudget | None,
        holder: dict[str, Any],
        claim: _Claim,
        trace: bool,
    ) -> ShardExecution | None:
        """One attempt on one source, settled: its outcome, recorded on the
        shard's breaker when the shard was tried at all, or ``None`` when
        the scatter abandoned the attempt first (see :meth:`_scatter`)."""
        claim.started_at = perf_counter()
        try:
            outcome = self._attempt(
                shard, query, budget, holder, claim.settled, trace
            )
        finally:
            mine = shard.settle(claim)
        if not mine:
            return None
        if outcome.attempts:  # not skipped, not started past the deadline
            if outcome.status == OK:
                shard.breaker.record_success()
            else:
                shard.breaker.record_failure()
            outcome.breaker = shard.breaker.snapshot()
        return outcome

    def _attempt(
        self,
        shard: _Shard,
        query: Query | str,
        budget: ResourceBudget | None,
        holder: dict[str, Any],
        abandoned: threading.Lock,
        trace: bool,
    ) -> ShardExecution:
        """The source's outcome under retry, or a skip when its breaker
        refuses the call; :meth:`_run_shard` records it on the breaker.

        An attempt that a worker picks up only after the request's deadline
        has passed (it waited behind other attempts) is a ``shard-timeout``
        failure of no attempt: it asks the breaker nothing, so it neither
        takes a half-open probe slot nor is recorded against the shard.

        While an earlier abandoned attempt on the shard still holds a
        worker, the attempt fails at once rather than run beside it.  Once
        the scatter abandons this attempt (it holds ``abandoned``), the
        retry ladder ends at the next failure: nothing waits for it."""
        started = perf_counter()
        if budget is not None:
            if budget.remaining_s(started) == 0.0:
                return self._timed_out(
                    shard, budget, started, "not started: its turn came after",
                    attempts=0,
                )
            # A shard dispatched late gets only the request's remaining
            # time — visibly: its own stats report the clamped window, not
            # the original full deadline.
            budget = budget.at_dispatch(started)
        if not shard.breaker.allow():
            snapshot = shard.breaker.snapshot()
            warning = QueryWarning(
                SHARD_SKIPPED_OPEN_BREAKER,
                f"shard {shard.name!r} skipped: circuit breaker "
                f"{snapshot['state']} after {snapshot['trips']} trip(s)",
                detail={"shard": shard.name, **snapshot},
            )
            return ShardExecution(
                shard=shard.name,
                status=SKIPPED,
                attempts=0,
                started_at=started,
                ended_at=perf_counter(),
                warnings=[warning],
                breaker=snapshot,
            )
        if shard.stuck:
            stuck = f"{shard.stuck} abandoned attempt(s) still hold a worker"
            return self._failed(shard, TimeoutError(stuck), [], started)

        retry_log: list[dict[str, Any]] = []

        def on_retry(attempt: int, error: BaseException, delay: float) -> None:
            if abandoned.locked():
                raise error
            retry_log.append(
                {"attempt": attempt, "error": str(error), "backoff_s": delay}
            )

        def attempt_once() -> QueryResult:
            fault_point(f"shard:attempt:{shard.name}")
            engine = self._ensure_engine(shard)
            if engine.degraded:
                # A degraded engine has no indexed names; the shared
                # (index-strategy) plan does not apply — plan locally.
                return engine.query(query, budget=budget, trace=trace)
            plan = self._shared_plan(holder, engine, query)
            return engine.execute_plan(plan, budget=budget, trace=trace)

        try:
            result, attempts = call_with_retry(
                attempt_once,
                self.retry,
                sleep=self._retry_sleep,
                rng=random.Random(shard.name),
                on_retry=on_retry,
            )
        except QueryError:
            raise  # query-wide, raised by the scatter
        except Exception as error:  # noqa: BLE001 — isolation boundary
            return self._failed(shard, error, retry_log, started)
        warnings = []
        if retry_log:
            warnings.append(
                QueryWarning(
                    SHARD_RETRIED,
                    f"shard {shard.name!r} succeeded after "
                    f"{len(retry_log)} retr{'y' if len(retry_log) == 1 else 'ies'}",
                    detail={
                        "shard": shard.name,
                        "retries": [dict(event) for event in retry_log],
                    },
                )
            )
        return ShardExecution(
            shard=shard.name,
            status=OK,
            result=result,
            attempts=len(retry_log) + 1,
            retries=len(retry_log),
            started_at=started,
            ended_at=perf_counter(),
            warnings=warnings + [inner.tagged(shard.name) for inner in result.warnings],
        )

    def _failed(
        self,
        shard: _Shard,
        error: Exception,
        retry_log: list[dict[str, Any]],
        started: float,
    ) -> ShardExecution:
        """A failed attempt's outcome, after ``len(retry_log) + 1`` tries."""
        attempts = len(retry_log) + 1
        warning = QueryWarning(
            SHARD_FAILED,
            f"shard {shard.name!r} failed after {attempts} attempt(s): {error}",
            detail={
                "shard": shard.name,
                "attempts": attempts,
                "error": type(error).__name__,
                "retries": [dict(event) for event in retry_log],
            },
        )
        return ShardExecution(
            shard=shard.name,
            status=FAILED,
            error=error,
            attempts=attempts,
            retries=len(retry_log),
            started_at=started,
            ended_at=perf_counter(),
            warnings=[warning],
        )

    def _gather(
        self,
        sources: list[_Shard],
        outcomes: list[ShardExecution],
        holder: dict[str, Any],
        started: float,
        trace: bool,
    ) -> QueryResult:
        if self.fail_fast:
            for outcome in outcomes:
                if outcome.status == FAILED:
                    raise ShardFailedError(
                        outcome.shard,
                        str(outcome.error),
                        attempts=outcome.attempts,
                        cause=outcome.error,
                    ) from outcome.error
                if outcome.status == SKIPPED:
                    raise ShardFailedError(
                        outcome.shard,
                        "circuit breaker open",
                        attempts=0,
                    )

        results = [o.result for o in outcomes if o.result is not None]
        unhealthy = [o for o in outcomes if o.status != OK]
        if not results:
            first = unhealthy[0]
            raise ShardFailedError(
                first.shard,
                f"no shard produced a result "
                f"({sum(1 for o in unhealthy if o.status == FAILED)} failed, "
                f"{sum(1 for o in unhealthy if o.status == SKIPPED)} skipped); "
                f"first failure: {first.error or 'circuit breaker open'}",
                attempts=first.attempts,
                cause=first.error,
            ) from first.error
        # The merged execution: the sum over the healthy sources and the
        # sources' warnings in source order.
        execution = ExecutionStats(strategy="sharded", warnings=list(self._load_warnings))
        for outcome in outcomes:
            execution.warnings.extend(outcome.warnings)
            if outcome.result is not None:
                execution.merge(outcome.result.stats.execution)
        if unhealthy:
            execution.warnings.append(
                QueryWarning(
                    PARTIAL_RESULT,
                    f"partial result: rows from {len(results)} of "
                    f"{len(outcomes)} shards "
                    f"({sum(1 for o in unhealthy if o.status == FAILED)} failed, "
                    f"{sum(1 for o in unhealthy if o.status == SKIPPED)} skipped)",
                    detail={
                        "healthy": [o.shard for o in outcomes if o.status == OK],
                        "failed": [o.shard for o in outcomes if o.status == FAILED],
                        "skipped": [o.shard for o in outcomes if o.status == SKIPPED],
                    },
                )
            )

        # The one merge point.  Answers are sets: each row's first
        # occurrence in source (= document) order under canonical equality
        # — NaiveEvaluator.evaluate's rule within one corpus, applied by the
        # same helper to the digests each source's evaluator computed.
        # Nothing to merge unless two sources answered.
        answered = [result for result in results if result.rows]
        if len(answered) > 1:
            rows, row_hashes = first_distinct(
                chain.from_iterable(
                    zip(result.row_hashes, result.rows, strict=True) for result in answered
                ),
                canonical_row,
            )
        else:
            rows = list(answered[0].rows) if answered else []
            row_hashes = answered[0].row_hashes if answered else []
        execution.rows = len(rows)
        tree = (
            self._build_trace(sources, outcomes, started)
            if self.tracing and trace
            else None
        )
        stats = QueryStats(
            execution, trace=tree, shards=outcomes, duration_s=perf_counter() - started
        )
        return QueryResult(
            rows=rows,
            plan=holder.get("plan"),
            stats=stats,
            trace=tree,
            row_hashes=row_hashes,
        )

    def _build_trace(
        self, sources: list[_Shard], outcomes: list[ShardExecution], started: float
    ) -> Trace:
        """One ``shard:<name>`` span per source under a ``shard-query``
        root, each healthy source's own pipeline trace grafted beneath.
        Replicated shards additionally get one ``replica:{shard}:{i}``
        child span per replica load attempt."""
        root = Span("shard-query", started_at=started)
        for shard, outcome in zip(sources, outcomes):
            span = Span(
                f"shard:{outcome.shard}",
                started_at=outcome.started_at,
                ended_at=outcome.ended_at,
                metrics={
                    "status": outcome.status,
                    "attempts": outcome.attempts,
                    "retries": outcome.retries,
                    "breaker": outcome.breaker.get("state", "closed"),
                },
            )
            for event in shard.replica_events:
                child = Span(
                    f"replica:{outcome.shard}:{event.index}",
                    started_at=event.started_at,
                    ended_at=event.ended_at,
                    metrics={"replica": event.replica, "ok": event.ok},
                )
                if event.error is not None:
                    child.annotate(error=event.error)
                if event.reason is not None:
                    child.annotate(reason=event.reason)
                span.children.append(child)
            if outcome.result is not None:
                span.annotate(rows=outcome.rows, strategy=outcome.strategy)
                if outcome.result.trace is not None:
                    span.children.append(outcome.result.trace.root)
            root.children.append(span)
        root.ended_at = perf_counter()
        root.annotate(
            shards=len(outcomes),
            healthy=sum(1 for o in outcomes if o.status == OK),
        )
        return Trace(root)

    # -- introspection ---------------------------------------------------------

    def _engines(self, load: bool = False) -> list[FileQueryEngine]:
        loaded = [shard.engine for shard in self._shards if shard.engine is not None]
        if loaded or not load:
            return loaded
        last_error: Exception | None = None
        for shard in self._shards:
            try:
                return [self._ensure_engine(shard)]
            except Exception as error:  # noqa: BLE001 — try the next shard
                last_error = error
        raise ShardFailedError(
            self._shards[0].name,
            f"no shard engine could be loaded: {last_error}",
            cause=last_error,
        ) from last_error

    def _roster(self) -> list[str]:
        lines = [
            f"shards:    {len(self._shards)} "
            f"(plan reused per shard; retry: {self.retry.describe()}; "
            f"breaker: {self.breaker_config.describe()})"
        ]
        for shard in self._shards:
            state = shard.breaker.snapshot()["state"]
            loaded = "loaded" if shard.engine is not None else "lazy"
            lines.append(f"  {shard.name}  [{loaded}, breaker {state}]")
        return lines

    def _index_summary(self) -> dict[str, Any]:
        """The shard roster rather than one index's internals (lazy shards
        contribute nothing until first touched)."""
        per_shard = {
            shard.name: shard.engine.statistics().to_dict()
            for shard in self._shards
            if shard.engine is not None
        }
        return {
            "shards": len(self._shards),
            "loaded_shards": len(per_shard),
            "per_shard": per_shard,
        }

    def _backend(self) -> dict[str, Any]:
        replica_sets = (
            self._replica_set(shard)
            for shard in self._shards
            if shard.directory is not None
        )
        return {
            "type": "sharded",
            "shard_names": self.shard_names,
            "breakers": {
                shard.name: shard.breaker.snapshot()["state"]
                for shard in self._shards
            },
            "replica_health": [
                replica_set.health()
                for replica_set in replica_sets
                if replica_set.replicated
            ],
        }
