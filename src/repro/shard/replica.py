"""Replica sets: every saved index directory is a set of copies.

A shard saved with ``replicas=N`` (see :func:`repro.index.persist.save_index`)
keeps N complete sibling indexes under ``replica-{i}/`` directories, with a
``kind="replicated"`` shard-level manifest recording the replica map and the
corpus fingerprint every replica must match.  A plain saved directory is a
set of one copy: the directory itself.  :class:`ReplicaSet` is the only code
that knows which directories hold the copies; everything that depends on it
goes through the set — loading one copy (:meth:`ReplicaSet.load_under`), the
committed base text and the fold commit of a compaction, the journal path of
each copy, the saved :class:`~repro.index.config.IndexConfig`, scrub's
per-copy verification, and finishing an interrupted commit
(:meth:`ReplicaSet.reconcile`).

Reads over a replicated set:

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
  degradation remains the last resort, after replication is exhausted.

A one-copy plain set behaves exactly as a plain directory: it loads
directly under the caller's policy (no strict pass, breaker, failover
warning or ``replica:`` span), is absent from ``replica_health``, journals
to ``wal/<slug>.wal``, and its damage is reported, never healed.

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
from typing import TYPE_CHECKING, Any, Callable, TypeVar

from repro.errors import (
    IndexCorruptError,
    IndexNotFoundError,
    IndexStaleError,
)
from repro.index.config import IndexConfig
from repro.index.persist import (
    corpus_fingerprint,
    load_index_config,
    load_manifest,
    load_replica_manifest,
    save_replica_manifest,
    verify_index,
)
from repro.resilience.breaker import BreakerConfig, CircuitBreaker
from repro.resilience.fault import fault_point
from repro.resilience.policy import RAISE, DegradationPolicy
from repro.resilience.warnings import REPLICA_FAILOVER, QueryWarning

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import FileQueryEngine

T = TypeVar("T")

#: Failure classes replica failover absorbs: damage or unavailability local
#: to one copy.  Everything else propagates — a second copy of the same
#: bytes cannot fix a schema mismatch or a malformed query.
FAILOVER_ERRORS = (IndexCorruptError, IndexStaleError, IndexNotFoundError, OSError)

HEALTHY = "healthy"
SUSPECT = "suspect"
QUARANTINED = "quarantined"

#: What verification can find wrong with one copy (scrub finding kinds).
CORRUPT = "corrupt"
DIVERGED = "diverged"
MISSING = "missing"


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
    #: The ``replica-{i}`` directory name; ``None`` for a plain directory.
    name: str | None
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


def _event(
    replica: _Replica, ok: bool, started_at: float, **detail: str
) -> ReplicaLoadEvent:
    """One load attempt on ``replica`` that began at ``started_at`` and ends now."""
    return ReplicaLoadEvent(
        replica.name, replica.index, ok, started_at, perf_counter(), **detail
    )


def _own_manifest(directory: Path) -> dict | None:
    """A copy's own manifest, or ``None`` when it is missing or unreadable."""
    try:
        return load_manifest(directory)
    except IndexCorruptError:
        return None


def _problem(directory: Path, expected: str | None) -> tuple[str, str] | None:
    """Why one copy is damaged, or ``None`` when it verifies: its files
    match their CRC32s, its corpus hashes to the fingerprint its own
    manifest records, and that fingerprint is ``expected`` (when given)."""
    if not directory.is_dir():
        return MISSING, f"replica directory {directory.name!r} does not exist"
    try:
        recorded = verify_index(directory).get("corpus_fingerprint")
        actual = corpus_fingerprint(
            (directory / "corpus.txt").read_text(encoding="utf-8")
        )
    except (IndexNotFoundError, IndexCorruptError, OSError) as error:
        return CORRUPT, str(error)
    if recorded != actual:
        return CORRUPT, (
            f"corpus bytes hash to {actual} but the replica manifest "
            f"records {recorded}"
        )
    if expected is not None and actual != expected:
        return DIVERGED, (
            f"replica carries {actual} but the shard manifest committed "
            f"{expected}"
        )
    return None


class ReplicaSet:
    """The copies of one saved index directory, and breaker-aware read
    routing over them."""

    def __init__(
        self,
        directory: str | Path,
        breaker_config: BreakerConfig | None = None,
        shard_name: str | None = None,
    ) -> None:
        self.directory = Path(directory)
        manifest = load_replica_manifest(self.directory)
        #: Whether the directory uses the replicated layout (``False``: a
        #: plain directory, one copy that is the directory itself).
        self.replicated = manifest is not None
        manifest = manifest or {"replicas": [{"directory": None}]}
        self.shard_name = shard_name if shard_name is not None else self.directory.name
        self.expected_fingerprint: str | None = manifest.get("corpus_fingerprint")
        self.manifest_damaged = bool(manifest.get("manifest_damaged", False))
        self._source: dict | None = manifest.get("source")
        config = breaker_config if breaker_config is not None else BreakerConfig()
        self._replicas = [
            _Replica(
                index=i,
                name=name,
                directory=self.directory / name if name else self.directory,
                breaker=CircuitBreaker(config, name=f"{self.shard_name}:{name}"),
            )
            for i, name in enumerate(entry["directory"] for entry in manifest["replicas"])
        ]
        self._lock = threading.Lock()

    @classmethod
    def open(
        cls,
        directory: str | Path,
        breaker_config: BreakerConfig | None = None,
        shard_name: str | None = None,
    ) -> "ReplicaSet":
        """The set of copies of the saved index at ``directory``; a plain
        directory is a set of one."""
        return cls(directory, breaker_config=breaker_config, shard_name=shard_name)

    def __len__(self) -> int:
        return len(self._replicas)

    @property
    def copies(self) -> list[Path]:
        """Every copy's directory, in manifest order."""
        return [replica.directory for replica in self._replicas]

    # -- what the copies hold ----------------------------------------------------

    def base_text(self) -> str:
        """The committed corpus: the first copy whose text matches the
        recorded fingerprint (any readable copy when none matches or no
        expectation is recorded — the scrubber, not compaction,
        adjudicates damage)."""
        fallback: str | None = None
        for copy in self.copies:
            try:
                text = (copy / "corpus.txt").read_text(encoding="utf-8")
            except OSError:
                continue
            expected = self.expected_fingerprint
            if expected is None or corpus_fingerprint(text) == expected:
                return text
            if fallback is None:
                fallback = text
        if fallback is not None:
            return fallback
        raise IndexCorruptError(str(self.directory), "no replica holds a readable corpus")

    def index_config(self) -> IndexConfig | None:
        """The :class:`IndexConfig` the first readable copy was built with."""
        configs = (load_index_config(copy) for copy in self.copies)
        return next((config for config in configs if config is not None), None)

    def journal_paths(self, wal_dir: Path) -> list[Path]:
        """One write-ahead journal per copy: ``<slug>.wal`` for a plain
        directory, ``<slug>.<replica>.wal`` for each replica."""
        slug = self.directory.name
        return [
            wal_dir / (f"{slug}.{r.name}.wal" if r.name else f"{slug}.wal")
            for r in self._replicas
        ]

    def problems(self, expected: str | None) -> dict[Path, tuple[str, str]]:
        """Scrub's verification: ``(kind, detail)`` for every damaged copy
        (see :func:`_problem`), keyed by the copy's directory."""
        found = {copy: _problem(copy, expected) for copy in self.copies}
        return {copy: problem for copy, problem in found.items() if problem}

    # -- commits -----------------------------------------------------------------

    def fold(
        self,
        engine: "FileQueryEngine",
        live: dict,
    ) -> None:
        """Commit ``engine`` (a compaction's folded index) to every copy.
        A plain directory is one crash-safe swap; a replicated set saves
        each copy (fault point ``compact:replica-saved:{name}`` after
        each), then rewrites the set manifest — the commit point.  A crash in between leaves every
        folded copy ahead of the manifest, which :meth:`reconcile` finishes."""
        if not self.replicated:
            engine.save(str(self.directory), live=live)
            return
        for replica in self._replicas:
            engine.save(str(replica.directory), live=live)
            fault_point(f"compact:replica-saved:{replica.name}")
        self._commit(corpus_fingerprint(engine.text), live)

    def reconcile(self) -> str | None:
        """Finish an interrupted commit — the one place that rule lives.

        When the copies that pass verification agree on one corpus
        fingerprint and the set manifest does not record it (or is
        damaged), those copies *are* the committed state: each was written
        and renamed into place before the manifest rewrite began.  The set
        manifest is rewritten to that fingerprint, with the highest
        ``applied_seq`` among them.  Copies are verified only when one
        disagrees with the manifest, so a healthy set costs one manifest
        read per copy.  Returns the fingerprint written, or ``None``."""
        if not self.replicated:
            return None
        owns = [_own_manifest(copy) for copy in self.copies]
        if not self.manifest_damaged and all(
            own is not None and own.get("corpus_fingerprint") == self.expected_fingerprint
            for own in owns
        ):
            return None
        verified = [
            own
            for copy, own in zip(self.copies, owns)
            if own is not None and _problem(copy, None) is None
        ]
        agreed = {own["corpus_fingerprint"] for own in verified}
        if len(agreed) != 1:
            return None  # nothing verifies, or the copies disagree
        fingerprint = agreed.pop()
        if fingerprint == self.expected_fingerprint and not self.manifest_damaged:
            return None
        lives = [own["live"] for own in verified if isinstance(own.get("live"), dict)]
        live = max(lives, key=lambda state: state.get("applied_seq", 0), default=None)
        self._commit(fingerprint, live)
        return fingerprint

    def _commit(self, fingerprint: str, live: dict | None) -> None:
        save_replica_manifest(
            self.directory,
            fingerprint,
            [replica.name for replica in self._replicas],
            source=self._source,
            live=live,
        )
        self.expected_fingerprint = fingerprint
        self.manifest_damaged = False

    # -- routing ---------------------------------------------------------------

    def _fingerprint_ok(self, replica: _Replica) -> bool:
        """Whether the replica's own manifest matches the shard manifest's
        recorded fingerprint (``True`` when there is no expectation to
        check — a damaged shard manifest must not disqualify every copy).
        Replicas are always v2+: a missing manifest is damage."""
        if self.expected_fingerprint is None:
            return True
        own = _own_manifest(replica.directory)
        return own is not None and own.get("corpus_fingerprint") == self.expected_fingerprint

    def load(
        self,
        loader: Callable[[str], T],
        fallback: Callable[[str], T] | None = None,
    ) -> ReplicaLoad:
        """Route a load to the first healthy replica.

        ``loader`` is attempted against each candidate replica directory in
        preference order, replica 0 first; a candidate is skipped up front
        when its breaker is open or its fingerprint diverges from the shard
        manifest.  Typed corrupt/stale/missing errors and transient I/O
        fail over to the next replica (``replica-failover`` warning per
        skip).  When every replica fails the strict pass, ``fallback``
        (typically the same load under the engine's real degradation
        policy) is attempted per replica before the last error propagates.
        """
        warnings: list[QueryWarning] = []
        events: list[ReplicaLoadEvent] = []
        last_error: BaseException | None = None
        for replica in self._replicas:
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
                events.append(_event(replica, False, started, error=type(error).__name__))
                warnings.append(self._failover_warning(replica, error))
                continue
            replica.breaker.record_success()
            with self._lock:
                replica.status = HEALTHY
                replica.last_error = None
            events.append(_event(replica, True, started))
            return ReplicaLoad(value, replica.index, False, warnings, events)
        if fallback is not None:
            for replica in self._replicas:
                started = perf_counter()
                try:
                    value = fallback(str(replica.directory))
                except FAILOVER_ERRORS as error:
                    last_error = error
                    events.append(
                        _event(
                            replica, False, started,
                            error=type(error).__name__, reason="fallback",
                        )
                    )
                    continue
                events.append(_event(replica, True, started, reason="fallback"))
                return ReplicaLoad(value, replica.index, True, warnings, events)
        if last_error is None:
            last_error = IndexNotFoundError(
                str(self.directory), "no replica could be routed to"
            )
        raise last_error

    def load_under(
        self,
        policy: DegradationPolicy,
        open_at: "Callable[[str, DegradationPolicy], FileQueryEngine]",
    ) -> ReplicaLoad:
        """Load one engine from this set under ``policy`` — the only way a
        saved index is opened.  ``open_at(path, policy)`` opens the index
        at one copy directory.  A plain directory is opened directly under
        ``policy``.  A replicated set loads strictly per replica first — a
        damaged copy must fail over to its sibling, not degrade to a full
        scan — and under the caller's real policy only as the last resort,
        once every replica has refused a clean load; the engine then
        carries the caller's policy and the failover warnings, and the
        returned load keeps the events for ``replica:`` trace spans."""
        if not self.replicated:
            return ReplicaLoad(
                value=open_at(str(self.directory), policy), replica_index=0, fallback=False
            )
        strict = replace(policy, on_corrupt=RAISE, on_stale=RAISE, on_missing=RAISE)
        load = self.load(
            lambda path: open_at(path, strict),
            fallback=lambda path: open_at(path, policy),
        )
        load.value.policy = policy
        # Failover decisions surface on every result the engine serves,
        # exactly like load-time degradation warnings.
        load.value._load_warnings.extend(load.warnings)
        return load

    def _note_skip(
        self,
        replica: _Replica,
        reason: str,
        warnings: list[QueryWarning],
        events: list[ReplicaLoadEvent],
        extra: dict | None = None,
    ) -> None:
        events.append(_event(replica, False, perf_counter(), reason=reason))
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
