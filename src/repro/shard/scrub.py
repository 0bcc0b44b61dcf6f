"""Background scrub and anti-entropy repair for replicated shard indexes.

:func:`scrub_index` walks a sharded index root and verifies every replica
of every shard against two independent expectations:

1. **self-integrity** — the replica's own manifest CRC32s must match its
   files (:func:`repro.index.persist.verify_index`), and its corpus bytes
   must hash to the fingerprint its own manifest records;
2. **agreement** — the replica's corpus fingerprint must match the shard
   manifest's recorded fingerprint.  A copy that is internally consistent
   but *diverged* (a crash between compaction fan-out and the shard
   manifest rewrite) is damage too: it would answer from uncommitted state.

With ``repair=True`` each damaged replica is healed by the anti-entropy
protocol, every step reusing the crash-safe persistence primitives:

- **quarantine** — the damaged directory is renamed to
  ``quarantine-{ts}-{replica}/`` inside the shard directory.  Quarantined
  copies are *never deleted* by the scrubber: they are forensic evidence,
  and renaming is the only destructive-looking step in the protocol, so a
  crash can at worst leave an extra quarantine directory behind.
- **copy from a verified peer** — a healthy sibling replica is copied into
  a ``.{replica}.saving-{pid}`` staging sibling and renamed into the empty
  slot (the same staging-sibling + rename pattern as every index save);
- **rebuild from source** — when *no* healthy peer survives but the shard
  records a source file whose current content still matches the expected
  fingerprint, the replica is rebuilt by re-indexing that source;
- otherwise the replica is reported **unrepairable** (the quarantined copy
  still exists for manual recovery).

Each step ends at a :func:`~repro.resilience.fault_point`:
``scrub:quarantined`` (damaged replica renamed aside),
``scrub:peer-copied`` (staging copy complete, not yet promoted) and
``scrub:repaired`` (replacement renamed into place).

A shard manifest damaged or left behind by a crash is itself repairable:
when every verifying replica agrees on one fingerprint, the manifest is
rewritten to match them (the replicas *are* the committed state — each was
fsynced and renamed into place before the manifest rewrite began).  That
rule, and the per-copy verification, belong to the shard's
:class:`~repro.shard.replica.ReplicaSet` (:meth:`~ReplicaSet.reconcile`,
:meth:`~ReplicaSet.problems`); the scrub asks for it before repairing
copies (an interrupted commit) and again after (a damaged manifest over
copies the repair made agree).  A plain shard directory is a set of one
copy with no peer: its damage is reported, never healed.

:class:`ScrubDaemon` runs the same scrub on a jittered interval from a
daemon thread — the server-owned self-healing loop behind
``repro serve --scrub-interval-s``.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.index.persist import (
    QUARANTINE_PREFIX,
    corpus_fingerprint,
    sweep_stale_staging,
)
from repro.resilience.fault import fault_point
from repro.resilience.warnings import (
    REPLICA_QUARANTINED,
    REPLICA_REPAIRED,
    QueryWarning,
)
from repro.shard.manifest import ShardEntry, load_shard_manifest
from repro.shard.replica import (  # noqa: F401 — the per-copy finding kinds
    CORRUPT,
    DIVERGED,
    MISSING,
    ReplicaSet,
)

MANIFEST_DAMAGED = "manifest-damaged"

QUARANTINE_ACTION = "quarantined"
COPIED_FROM_PEER = "copied-from-peer"
REBUILT_FROM_SOURCE = "rebuilt-from-source"
MANIFEST_REWRITTEN = "manifest-rewritten"
UNREPAIRABLE = "unrepairable"


@dataclass
class ScrubFinding:
    """One damaged replica (or shard manifest) the scrub detected."""

    shard: str
    replica: str | None
    kind: str
    detail: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "shard": self.shard,
            "replica": self.replica,
            "kind": self.kind,
            "detail": self.detail,
        }


@dataclass
class ScrubRepair:
    """One repair action the scrub took (or could not take)."""

    shard: str
    replica: str | None
    action: str
    detail: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "shard": self.shard,
            "replica": self.replica,
            "action": self.action,
            "detail": self.detail,
        }


@dataclass
class ScrubReport:
    """What one scrub pass found and did."""

    shards_checked: int = 0
    replicas_checked: int = 0
    findings: list[ScrubFinding] = field(default_factory=list)
    repairs: list[ScrubRepair] = field(default_factory=list)
    warnings: list[QueryWarning] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def unrepaired(self) -> list[ScrubRepair]:
        return [repair for repair in self.repairs if repair.action == UNREPAIRABLE]

    def to_dict(self) -> dict[str, Any]:
        return {
            "shards_checked": self.shards_checked,
            "replicas_checked": self.replicas_checked,
            "clean": self.clean,
            "findings": [finding.to_dict() for finding in self.findings],
            "repairs": [repair.to_dict() for repair in self.repairs],
            "warnings": [warning.to_dict() for warning in self.warnings],
        }


def _quarantine_name(shard_dir: Path, replica_name: str, clock: Callable[[], float]) -> Path:
    stamp = int(clock())
    candidate = shard_dir / f"{QUARANTINE_PREFIX}{stamp}-{replica_name}"
    bump = 0
    while candidate.exists():
        bump += 1
        candidate = shard_dir / f"{QUARANTINE_PREFIX}{stamp}-{bump}-{replica_name}"
    return candidate


def scrub_index(
    schema,
    directory: str | os.PathLike[str],
    repair: bool = False,
    clock: Callable[[], float] = time.time,
) -> ScrubReport:
    """Verify (and with ``repair=True``, heal) every replica of every shard
    under a sharded index root.  See the module docstring for the
    verification rules and the anti-entropy repair protocol."""
    root = Path(directory)
    report = ScrubReport()
    for entry in load_shard_manifest(root).shards:
        copies = ReplicaSet.open(root / entry.directory, shard_name=entry.name)
        report.shards_checked += 1
        report.replicas_checked += len(copies)
        expected = copies.expected_fingerprint or entry.corpus_fingerprint
        problems = copies.problems(expected)
        for copy, (kind, detail) in problems.items():
            report.findings.append(
                ScrubFinding(
                    shard=entry.name,
                    replica=copy.name if copies.replicated else None,
                    kind=kind,
                    detail=detail,
                )
            )
        if copies.manifest_damaged:
            report.findings.append(
                ScrubFinding(
                    shard=entry.name,
                    replica=None,
                    kind=MANIFEST_DAMAGED,
                    detail="shard manifest missing or unreadable",
                )
            )
        if not repair or not copies.replicated:
            continue  # a plain directory has no peer: reported, not healed
        # Finish an interrupted commit before judging copies against it:
        # copies that agree on a newer state are not damage.
        if _reconcile(copies, report):
            expected = copies.expected_fingerprint
            problems = copies.problems(expected)
        healthy = [copy for copy in copies.copies if copy not in problems]
        for copy, (kind, _detail) in problems.items():
            _repair_replica(
                schema, entry, copy, kind, healthy, expected, report, clock
            )
        if copies.manifest_damaged:
            _reconcile(copies, report)  # the repaired copies may agree now
    return report


def _reconcile(copies: ReplicaSet, report: ScrubReport) -> bool:
    """Ask the set to finish an interrupted commit; record a rewrite."""
    agreed = copies.reconcile()
    if agreed is not None:
        report.repairs.append(
            ScrubRepair(
                shard=copies.shard_name,
                replica=None,
                action=MANIFEST_REWRITTEN,
                detail=f"rewritten to {agreed}, agreed by every verified replica",
            )
        )
    return agreed is not None


def _repair_replica(
    schema,
    entry: ShardEntry,
    replica_dir: Path,
    kind: str,
    healthy: list[Path],
    expected: str | None,
    report: ScrubReport,
    clock: Callable[[], float],
) -> None:
    """Quarantine one damaged replica and rebuild it from the best source.

    The repair path is chosen *before* anything is renamed: a replica with
    no healthy peer and no matching source is left exactly where it is
    (reported :data:`UNREPAIRABLE`) — the scrub never reduces what
    survives on disk.
    """
    shard_dir, name = replica_dir.parent, replica_dir.name
    source = entry.source or {}
    source_path = source.get("path")
    source_text: str | None = None
    if not healthy and source_path and Path(source_path).exists():
        try:
            text = Path(source_path).read_text(encoding="utf-8")
        except OSError:
            source_text = None
        else:
            if expected is None or corpus_fingerprint(text) == expected:
                source_text = text
    if not healthy and source_text is None:
        detail = "no healthy peer and no source file to rebuild from"
        if source_path and Path(source_path).exists():
            detail = (
                "no healthy peer, and the source file no longer matches the "
                "committed fingerprint (rebuilding would change answers)"
            )
        report.repairs.append(
            ScrubRepair(
                shard=entry.name, replica=name, action=UNREPAIRABLE, detail=detail
            )
        )
        return
    if replica_dir.exists():
        quarantine = _quarantine_name(shard_dir, name, clock)
        os.rename(replica_dir, quarantine)
        report.repairs.append(
            ScrubRepair(
                shard=entry.name,
                replica=name,
                action=QUARANTINE_ACTION,
                detail=f"moved to {quarantine.name} ({kind})",
            )
        )
        report.warnings.append(
            QueryWarning(
                REPLICA_QUARANTINED,
                f"replica {name!r} of shard {entry.name!r} quarantined "
                f"({kind}) to {quarantine.name!r}",
                detail={
                    "shard": entry.name,
                    "replica": name,
                    "kind": kind,
                    "quarantine": quarantine.name,
                },
            )
        )
        fault_point("scrub:quarantined")
    # Clear any staging orphan a previously crashed repair left behind.
    sweep_stale_staging(replica_dir)
    if healthy:
        peer = healthy[0]
        staging = shard_dir / f".{name}.saving-{os.getpid()}"
        if staging.exists():
            shutil.rmtree(staging)
        shutil.copytree(peer, staging)
        fault_point("scrub:peer-copied")
        os.rename(staging, replica_dir)
        fault_point("scrub:repaired")
        _record_repaired(
            report, entry.name, name, COPIED_FROM_PEER,
            f"copied from verified peer {peer.name!r}",
        )
        return
    from repro.core.engine import FileQueryEngine

    FileQueryEngine(schema, source_text).save(str(replica_dir), source_path=source_path)
    fault_point("scrub:repaired")
    _record_repaired(
        report, entry.name, name, REBUILT_FROM_SOURCE,
        f"re-indexed {source_path!r}",
    )


def _record_repaired(
    report: ScrubReport, shard: str, replica: str, action: str, detail: str
) -> None:
    report.repairs.append(
        ScrubRepair(shard=shard, replica=replica, action=action, detail=detail)
    )
    report.warnings.append(
        QueryWarning(
            REPLICA_REPAIRED,
            f"replica {replica!r} of shard {shard!r} repaired ({detail})",
            detail={"shard": shard, "replica": replica, "action": action},
        )
    )


class ScrubDaemon:
    """A server-owned scrub loop: run ``runner`` every ``interval_s``
    seconds with +/- ``jitter_fraction`` random jitter (so a fleet of
    servers over shared storage does not scrub in lockstep), from a daemon
    thread.  Exceptions are recorded, never raised — a scrub failure must
    not take the server down."""

    def __init__(
        self,
        runner: Callable[[], ScrubReport],
        interval_s: float,
        jitter_fraction: float = 0.1,
        rng: random.Random | None = None,
    ) -> None:
        if not 0 < interval_s < math.inf:
            raise ValueError(
                f"interval_s must be finite and positive, got {interval_s!r}"
            )
        if not 0 <= jitter_fraction < 1:
            raise ValueError(
                f"jitter_fraction must be in [0, 1), got {jitter_fraction!r}"
            )
        self.runner = runner
        self.interval_s = interval_s
        self.jitter_fraction = jitter_fraction
        self._rng = rng if rng is not None else random.Random()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._runs = 0
        self._last_report: ScrubReport | None = None
        self._last_error: str | None = None

    def _delay(self) -> float:
        spread = self.interval_s * self.jitter_fraction
        return max(0.0, self.interval_s + self._rng.uniform(-spread, spread))

    def _loop(self) -> None:
        while not self._stop.wait(self._delay()):
            self.run_once()

    def run_once(self) -> ScrubReport | None:
        """One scrub pass, immediately (also what the loop calls)."""
        try:
            report = self.runner()
        except Exception as error:  # noqa: BLE001 — isolation boundary
            with self._lock:
                self._runs += 1
                self._last_error = f"{type(error).__name__}: {error}"
            return None
        with self._lock:
            self._runs += 1
            self._last_report = report
            self._last_error = None
        return report

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._loop, name="repro-scrub", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float | None = 5.0) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)
        self._thread = None

    def snapshot(self) -> dict[str, Any]:
        """A JSON-ready view for ``/stats``."""
        with self._lock:
            last = self._last_report
            return {
                "interval_s": self.interval_s,
                "runs": self._runs,
                "last_error": self._last_error,
                "last_clean": last.clean if last is not None else None,
                "last_findings": len(last.findings) if last is not None else None,
                "last_repairs": len(last.repairs) if last is not None else None,
            }
