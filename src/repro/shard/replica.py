"""Replica sets: routing reads across N persisted copies of one shard.

A shard saved with ``replicas=N`` (see :func:`repro.index.persist.save_index`)
keeps N complete sibling indexes under ``replica-{i}/`` directories, with a
``kind="replicated"`` shard-level manifest recording the replica map and the
corpus fingerprint every replica must match.  :class:`ReplicaSet` is the read
path over that layout:

- each replica gets its **own circuit breaker**, so one damaged copy is
  skipped cheaply after it trips while its siblings keep serving;
- a replica is routed to only when its own manifest's corpus fingerprint
  matches the shard manifest's expectation — a replica that *diverged*
  (crash mid-compaction fan-out) is just as unservable as a corrupt one,
  even though it verifies against itself;
- load failures that are **replica-local** — typed corrupt/stale/missing
  errors and transient I/O — fail over to the next replica and surface as
  ``replica-failover`` warnings; anything else (schema mismatch, query
  defects) propagates, because another copy of the same bytes cannot fix it;
- only when *every* replica fails the strict pass does the set fall back to
  the engine's configured :class:`~repro.resilience.DegradationPolicy` —
  degradation remains the last resort, after replication is exhausted
  (:meth:`ReplicaSet.load_under` is the one place that rule lives).

Replica health states (see ``docs/robustness.md``): **healthy** (serving),
**suspect** (failed a load or fingerprint check; breaker counting),
**quarantined** (set aside under ``quarantine-*/`` by the scrubber),
**repaired** (rebuilt from a verified peer or from source — back to healthy).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, TypeVar

from repro.errors import (
    IndexCorruptError,
    IndexNotFoundError,
    IndexStaleError,
)
from repro.index.persist import load_manifest, load_replica_manifest
from repro.resilience.breaker import BreakerConfig, CircuitBreaker
from repro.resilience.policy import RAISE, DegradationPolicy
from repro.resilience.warnings import REPLICA_FAILOVER, QueryWarning

T = TypeVar("T")

#: Failure classes replica failover absorbs: damage or unavailability local
#: to one copy.  Everything else propagates — a second copy of the same
#: bytes cannot fix a schema mismatch or a malformed query.
FAILOVER_ERRORS = (IndexCorruptError, IndexStaleError, IndexNotFoundError, OSError)

HEALTHY = "healthy"
SUSPECT = "suspect"
QUARANTINED = "quarantined"


@dataclass
class ReplicaLoadEvent:
    """One attempted replica load (feeds ``replica:{shard}:{i}`` trace spans)."""

    replica: str
    index: int
    ok: bool
    started_at: float
    ended_at: float
    error: str | None = None
    reason: str | None = None


@dataclass
class _Replica:
    index: int
    name: str
    directory: Path
    breaker: CircuitBreaker
    status: str = HEALTHY
    last_error: str | None = None


@dataclass
class ReplicaLoad:
    """What :meth:`ReplicaSet.load` produced: the loaded value, which
    replica served it, whether the degradation-policy fallback was needed,
    and the failover warnings/events accumulated along the way."""

    value: Any
    replica_index: int
    fallback: bool
    warnings: list[QueryWarning] = field(default_factory=list)
    events: list[ReplicaLoadEvent] = field(default_factory=list)


class ReplicaSet:
    """Breaker-aware read routing over one replicated shard directory."""

    def __init__(
        self,
        directory: str | Path,
        breaker_config: BreakerConfig | None = None,
        shard_name: str | None = None,
    ) -> None:
        self.directory = Path(directory)
        manifest = load_replica_manifest(self.directory)
        if manifest is None:
            raise ValueError(f"{self.directory} is not a replicated index")
        self.shard_name = shard_name if shard_name is not None else self.directory.name
        self.expected_fingerprint: str | None = manifest.get("corpus_fingerprint")
        self.manifest_damaged = bool(manifest.get("manifest_damaged", False))
        config = breaker_config if breaker_config is not None else BreakerConfig()
        self._replicas = [
            _Replica(
                index=i,
                name=entry["directory"],
                directory=self.directory / entry["directory"],
                breaker=CircuitBreaker(
                    config, name=f"{self.shard_name}:{entry['directory']}"
                ),
            )
            for i, entry in enumerate(manifest["replicas"])
        ]
        self._lock = threading.Lock()

    @classmethod
    def open(
        cls,
        directory: str | Path,
        breaker_config: BreakerConfig | None = None,
        shard_name: str | None = None,
    ) -> "ReplicaSet | None":
        """A replica set over ``directory``, or ``None`` when the directory
        does not use the replicated layout (plain single-index shard)."""
        try:
            if load_replica_manifest(directory) is None:
                return None
        except IndexCorruptError:
            return None
        return cls(directory, breaker_config=breaker_config, shard_name=shard_name)

    def __len__(self) -> int:
        return len(self._replicas)

    @property
    def replica_names(self) -> list[str]:
        return [replica.name for replica in self._replicas]

    def replica_directory(self, index: int) -> Path:
        return self._replicas[index].directory

    # -- routing ---------------------------------------------------------------

    def _rotation(self, offset: int) -> list[_Replica]:
        """Replicas in preference order, rotated by ``offset`` so a hedge
        attempt starts from a *different* copy than the primary it races."""
        n = len(self._replicas)
        shift = offset % n if n else 0
        return self._replicas[shift:] + self._replicas[:shift]

    def _fingerprint_ok(self, replica: _Replica) -> bool:
        """Whether the replica's own manifest matches the shard manifest's
        recorded fingerprint (``True`` when there is no expectation to
        check — a damaged shard manifest must not disqualify every copy)."""
        if self.expected_fingerprint is None:
            return True
        try:
            manifest = load_manifest(replica.directory)
        except IndexCorruptError:
            return False
        if manifest is None:
            return False  # replicas are always v2+: a missing manifest is damage
        return manifest.get("corpus_fingerprint") == self.expected_fingerprint

    def load(
        self,
        loader: Callable[[str], T],
        fallback: Callable[[str], T] | None = None,
        offset: int = 0,
    ) -> ReplicaLoad:
        """Route a load to the first healthy replica.

        ``loader`` is attempted against each candidate replica directory in
        rotated preference order; a candidate is skipped up front when its
        breaker is open or its fingerprint diverges from the shard
        manifest.  Typed corrupt/stale/missing errors and transient I/O
        fail over to the next replica (``replica-failover`` warning per
        skip).  When every replica fails the strict pass, ``fallback``
        (typically the same load under the engine's real degradation
        policy) is attempted per replica before the last error propagates.
        """
        warnings: list[QueryWarning] = []
        events: list[ReplicaLoadEvent] = []
        last_error: BaseException | None = None
        order = self._rotation(offset)
        for replica in order:
            if not replica.breaker.allow():
                snapshot = replica.breaker.snapshot()
                self._note_skip(
                    replica, "breaker-open", warnings, events,
                    extra={"breaker": snapshot["state"], "trips": snapshot["trips"]},
                )
                continue
            if not self._fingerprint_ok(replica):
                # Divergence is not a load fault: the copy is internally
                # consistent but does not match the committed state.  The
                # breaker is left alone — the scrubber repairs divergence,
                # and routing resumes the moment the fingerprint matches.
                with self._lock:
                    replica.status = SUSPECT
                    replica.last_error = "fingerprint-mismatch"
                self._note_skip(replica, "fingerprint-mismatch", warnings, events)
                continue
            started = perf_counter()
            try:
                value = loader(str(replica.directory))
            except FAILOVER_ERRORS as error:
                replica.breaker.record_failure()
                with self._lock:
                    replica.status = SUSPECT
                    replica.last_error = f"{type(error).__name__}: {error}"
                last_error = error
                events.append(
                    ReplicaLoadEvent(
                        replica=replica.name,
                        index=replica.index,
                        ok=False,
                        started_at=started,
                        ended_at=perf_counter(),
                        error=type(error).__name__,
                    )
                )
                warnings.append(self._failover_warning(replica, error))
                continue
            replica.breaker.record_success()
            with self._lock:
                replica.status = HEALTHY
                replica.last_error = None
            events.append(
                ReplicaLoadEvent(
                    replica=replica.name,
                    index=replica.index,
                    ok=True,
                    started_at=started,
                    ended_at=perf_counter(),
                )
            )
            return ReplicaLoad(
                value=value,
                replica_index=replica.index,
                fallback=False,
                warnings=warnings,
                events=events,
            )
        if fallback is not None:
            for replica in order:
                started = perf_counter()
                try:
                    value = fallback(str(replica.directory))
                except FAILOVER_ERRORS as error:
                    last_error = error
                    events.append(
                        ReplicaLoadEvent(
                            replica=replica.name,
                            index=replica.index,
                            ok=False,
                            started_at=started,
                            ended_at=perf_counter(),
                            error=type(error).__name__,
                            reason="fallback",
                        )
                    )
                    continue
                events.append(
                    ReplicaLoadEvent(
                        replica=replica.name,
                        index=replica.index,
                        ok=True,
                        started_at=started,
                        ended_at=perf_counter(),
                        reason="fallback",
                    )
                )
                return ReplicaLoad(
                    value=value,
                    replica_index=replica.index,
                    fallback=True,
                    warnings=warnings,
                    events=events,
                )
        if last_error is None:
            last_error = IndexNotFoundError(
                str(self.directory), "no replica could be routed to"
            )
        raise last_error

    def load_under(
        self,
        policy: DegradationPolicy,
        open_at: Callable[[str, DegradationPolicy], T],
        offset: int = 0,
    ) -> ReplicaLoad:
        """Load one engine from this set under ``policy``: a strict load per
        replica first — a damaged copy must fail over to its sibling, not
        degrade to a full scan — and the caller's real policy only as the
        last resort, once every replica has refused a clean load.
        ``open_at(path, policy)`` opens the index at one replica directory."""
        strict = replace(policy, on_corrupt=RAISE, on_stale=RAISE, on_missing=RAISE)
        return self.load(
            lambda path: open_at(path, strict),
            fallback=lambda path: open_at(path, policy),
            offset=offset,
        )

    def _note_skip(
        self,
        replica: _Replica,
        reason: str,
        warnings: list[QueryWarning],
        events: list[ReplicaLoadEvent],
        extra: dict | None = None,
    ) -> None:
        now = perf_counter()
        events.append(
            ReplicaLoadEvent(
                replica=replica.name,
                index=replica.index,
                ok=False,
                started_at=now,
                ended_at=now,
                reason=reason,
            )
        )
        warnings.append(
            QueryWarning(
                REPLICA_FAILOVER,
                f"replica {replica.name!r} of shard {self.shard_name!r} "
                f"skipped ({reason}); failing over",
                detail={
                    "shard": self.shard_name,
                    "replica": replica.name,
                    "replica_index": replica.index,
                    "reason": reason,
                    **(extra or {}),
                },
            )
        )

    def _failover_warning(
        self, replica: _Replica, error: BaseException
    ) -> QueryWarning:
        return QueryWarning(
            REPLICA_FAILOVER,
            f"replica {replica.name!r} of shard {self.shard_name!r} failed "
            f"({type(error).__name__}: {error}); failing over",
            detail={
                "shard": self.shard_name,
                "replica": replica.name,
                "replica_index": replica.index,
                "reason": type(error).__name__,
            },
        )

    # -- health ----------------------------------------------------------------

    def record_repaired(self, index: int) -> None:
        """Reset one replica's routing state after an external repair (the
        scrubber rebuilt it): breaker re-closed, status back to healthy."""
        replica = self._replicas[index]
        replica.breaker = CircuitBreaker(
            replica.breaker.config, name=f"{self.shard_name}:{replica.name}"
        )
        with self._lock:
            replica.status = HEALTHY
            replica.last_error = None

    def health(self) -> dict[str, Any]:
        """Per-replica health for ``stats()`` and ``GET /healthz``."""
        detail = []
        healthy = 0
        with self._lock:
            statuses = [(r.status, r.last_error) for r in self._replicas]
        for replica, (status, last_error) in zip(self._replicas, statuses):
            if not replica.directory.is_dir():
                status = QUARANTINED  # set aside (or lost); not routable
            snapshot = replica.breaker.snapshot()
            if status == HEALTHY and snapshot["state"] != "open":
                healthy += 1
            detail.append(
                {
                    "replica": replica.name,
                    "status": status,
                    "breaker": snapshot["state"],
                    "last_error": last_error,
                }
            )
        return {
            "shard": self.shard_name,
            "replicas": len(self._replicas),
            "healthy": healthy,
            "detail": detail,
        }
