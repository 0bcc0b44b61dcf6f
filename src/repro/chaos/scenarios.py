"""Named, seed-driven chaos scenarios.

Each scenario injects one fault family through a **named injection
point** — the same hooks production code exposes
(:mod:`repro.resilience.faults` injectors on the sharded engine and the
server worker pool, on-disk damage to saved indexes, malformed bodies at
the HTTP boundary) — then judges the faulted run with the
:mod:`~repro.chaos.oracle` against a healthy twin.

Determinism: every variable choice (victim shard, delay, corruption
mode, malformed payload) comes from the ``random.Random`` the harness
seeds per ``(scenario, backend, seed)``.  Same seed, same fault, same
verdict — a CI failure replays exactly with ``--seed N``.

The registry maps scenario name → :class:`Scenario`; the injection
points they exercise:

==============  =============================================  ==================
scenario        injection point                                backends
==============  =============================================  ==================
hang            shard fault injector (``HungShard``) /         solo, sharded
                zero-width deadline (solo)
slow            shard fault injector (``SlowShard``)           sharded
transient-io    shard fault injector (``TransientIOFault``)    sharded
corrupt         on-disk index damage (``corrupt_index_file``)  solo, sharded
stale           source rewritten after indexing                solo, sharded
worker-stall    server pool injector (``WorkerStall``)         solo, sharded
overload        admission capacity exhaustion                  solo, sharded
drain           graceful-shutdown race                         solo, sharded
malformed-body  HTTP boundary (raw socket bodies)              solo, sharded
kill-mid-append torn write-ahead-journal frame on disk         sharded
torn-journal-   byte-level journal truncation / bit rot        sharded
tail
crash-mid-      ``LiveEngine`` crash hook between compaction   sharded
compaction      commit points
crash-mid-      ``LiveEngine`` crash hook between split        sharded
split           commit points
corrupt-one-    on-disk damage to one replica per shard,       sharded
replica         then scrub ``--repair``
corrupt-all-    on-disk damage to all but one replica,         sharded
but-one         anti-entropy re-seed from the survivor
kill-mid-       scrub crash hook between quarantine,           sharded
repair          peer-copy, and swap commit points
kill-mid-       ``LiveEngine`` append crash hook between       sharded
quorum-append   per-replica journal fsyncs
==============  =============================================  ==================

The four live-ingestion scenarios share one invariant, judged against a
from-scratch rebuild of the *logical* corpus (base text + acked
appends): after a crash at any named point, reopening recovers every
acked append and drops every unacked one — and once fully compacted, the
shard corpus files concatenate byte-for-byte to the logical corpus, so
double-applied or half-lost records cannot hide behind row projection.
"""

from __future__ import annotations

import json
import random
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, TYPE_CHECKING

from repro.chaos.oracle import Verdict
from repro.core.engine import FileQueryEngine
from repro.errors import (
    BudgetExceededError,
    IndexCorruptError,
    IndexNotFoundError,
    IndexStaleError,
)
from repro.resilience import (
    DegradationPolicy,
    HungShard,
    ResourceBudget,
    RetryPolicy,
    SlowShard,
    TransientIOFault,
    WorkerStall,
    corrupt_index_file,
)
from repro.shard import ShardedEngine, split_corpus

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.chaos.harness import Fixtures

#: Warning codes a degraded single-engine load may legitimately surface.
SOLO_DEGRADE_CODES = {
    "index-corrupt",
    "index-missing",
    "index-stale",
    "index-rebuilt",
    "degraded-full-scan",
}

N_SHARDS = 8


@dataclass(frozen=True)
class Scenario:
    """One registered chaos scenario."""

    name: str
    description: str
    injection: str
    backends: tuple[str, ...]
    run: Callable[["Fixtures", random.Random, str, Path], Verdict]


# -- engine-level scenarios ----------------------------------------------------


def _run_hang(fx: "Fixtures", rng: random.Random, backend: str, workdir: Path) -> Verdict:
    verdict = Verdict()
    if backend == "solo":
        # The solo engine has no I/O injector; a zero-width deadline is
        # the equivalent stuck-operator probe — the wall-clock guard must
        # convert "no progress" into a typed error, instantly.  The
        # non-zero choice is 1 µs, which no execution fits in: at 1 ms, a
        # fast enough engine answers the fixture query before the
        # deadline and rightly raises nothing.
        deadline = rng.choice([0.0, 0.000001])
        engine = fx.solo_engine()
        started = perf_counter()
        error: BaseException | None = None
        try:
            engine.query(fx.query, budget=ResourceBudget(deadline_s=deadline))
        except Exception as caught:  # noqa: BLE001 — oracle judges the type
            error = caught
        verdict.typed_error(error, (BudgetExceededError,))
        verdict.bounded(perf_counter() - started, 1.0)
        return verdict

    victim = f"shard{rng.randrange(N_SHARDS)}"
    deadline = 0.25
    fault = HungShard(hang_s=30.0, shard=victim)
    engine = fx.sharded_engine(fault_injector=fault)
    started = perf_counter()
    result = engine.query(fx.query, budget=ResourceBudget(deadline_s=deadline))
    elapsed = perf_counter() - started
    codes = [w.code for w in result.warnings]
    # The acceptance bound: a hung shard returns a partial result in
    # under 2x the request deadline — never a hang.
    verdict.bounded(elapsed, 2 * deadline)
    verdict.rows_identical_or_flagged(result.canonical_rows(), fx.reference, codes)
    verdict.codes_include(codes, {"shard-timeout", "partial-result"})
    verdict.codes_within(codes, {"shard-timeout", "partial-result"})
    verdict.add(
        "hang-released",
        fault.released.is_set(),
        "abandonment released the hung attempt"
        if fault.released.is_set()
        else "hung attempt was never released",
    )
    return verdict


def _run_slow(fx: "Fixtures", rng: random.Random, backend: str, workdir: Path) -> Verdict:
    verdict = Verdict()
    victim = f"shard{rng.randrange(N_SHARDS)}"
    delay = rng.uniform(0.08, 0.15)
    engine = fx.sharded_engine(fault_injector=SlowShard(delay_s=delay, shard=victim))
    started = perf_counter()
    result = engine.query(fx.query)
    verdict.bounded(perf_counter() - started, 10.0)
    codes = [w.code for w in result.warnings]
    verdict.rows_identical_or_flagged(result.canonical_rows(), fx.reference, codes)
    verdict.codes_within(codes, set())
    return verdict


def _run_transient(
    fx: "Fixtures", rng: random.Random, backend: str, workdir: Path
) -> Verdict:
    verdict = Verdict()
    victim = f"shard{rng.randrange(N_SHARDS)}"
    k = rng.choice([1, 2])
    fault = TransientIOFault(k=k, shard=victim)
    engine = fx.sharded_engine(
        fault_injector=fault,
        retry=RetryPolicy(max_attempts=3),
        retry_sleep=lambda seconds: None,
    )
    started = perf_counter()
    result = engine.query(fx.query)
    verdict.bounded(perf_counter() - started, 10.0)
    codes = [w.code for w in result.warnings]
    verdict.rows_identical_or_flagged(result.canonical_rows(), fx.reference, codes)
    verdict.codes_include(codes, {"shard-retried"})
    verdict.codes_within(codes, {"shard-retried"})
    verdict.add(
        "injector-consumed",
        fault.failures == k,
        f"injector failed {fault.failures}/{k} time(s)",
    )
    return verdict


def _run_corrupt(
    fx: "Fixtures", rng: random.Random, backend: str, workdir: Path
) -> Verdict:
    verdict = Verdict()
    if backend == "solo":
        directory = workdir / "solo-idx"
        fx.solo_engine().save(str(directory))
        part = rng.choice(["regions", "corpus", "config", "manifest"])
        mode = rng.choice(["garbage", "truncate", "delete"])
        corrupt_index_file(directory, part=part, mode=mode)
        started = perf_counter()
        try:
            engine = FileQueryEngine.from_saved(fx.schema, str(directory))
        except (IndexCorruptError, IndexNotFoundError) as caught:
            # Unrecoverable damage (untrustworthy corpus bytes, missing
            # config) is a typed refusal at load time — never a wrong
            # answer, never an untyped crash.
            verdict.typed_error(caught, (IndexCorruptError, IndexNotFoundError))
            verdict.bounded(perf_counter() - started, 10.0)
            return verdict
        result = engine.query(fx.query)
        verdict.bounded(perf_counter() - started, 10.0)
        codes = [w.code for w in result.warnings]
        # Degradation must preserve the answer: a damaged index is never
        # an excuse for wrong rows.
        verdict.rows_identical_or_flagged(result.canonical_rows(), fx.reference, codes)
        verdict.codes_within(codes, SOLO_DEGRADE_CODES)
        return verdict

    directory = workdir / "sharded-idx"
    fx.sharded_engine().save(directory)
    victim = rng.randrange(N_SHARDS)
    part = rng.choice(["corpus", "regions"])
    victim_dir = sorted((directory / "shards").iterdir())[victim]
    if part == "corpus":
        # Unrecoverable: no trustworthy text to full-scan — the shard
        # must fail in isolation and the loss must be flagged.
        (victim_dir / "corpus.txt").write_text("garbage", encoding="utf-8")
    else:
        corrupt_index_file(victim_dir, part="regions", mode="garbage")
    engine = ShardedEngine.from_saved(fx.schema, directory)
    started = perf_counter()
    result = engine.query(fx.query)
    verdict.bounded(perf_counter() - started, 10.0)
    codes = [w.code for w in result.warnings]
    verdict.rows_identical_or_flagged(result.canonical_rows(), fx.reference, codes)
    verdict.codes_within(
        codes, SOLO_DEGRADE_CODES | {"shard-failed", "partial-result"}
    )
    return verdict


def _run_stale(
    fx: "Fixtures", rng: random.Random, backend: str, workdir: Path
) -> Verdict:
    from repro.workloads.bibtex import generate_bibtex

    verdict = Verdict()
    rewrite = generate_bibtex(entries=3, seed=rng.randrange(1_000_000))
    if backend == "solo":
        source = workdir / "refs.bib"
        source.write_text(fx.text, encoding="utf-8")
        directory = workdir / "solo-idx"
        fx.solo_engine().save(str(directory), source_path=source)
        source.write_text(rewrite, encoding="utf-8")
        started = perf_counter()
        error: BaseException | None = None
        try:
            FileQueryEngine.from_saved(
                fx.schema,
                str(directory),
                policy=DegradationPolicy.strict(),
                source_path=source,
            ).query(fx.query)
        except Exception as caught:  # noqa: BLE001 — oracle judges the type
            error = caught
        verdict.typed_error(error, (IndexStaleError,))
        verdict.bounded(perf_counter() - started, 10.0)
        return verdict

    parts = split_corpus(fx.schema, fx.text, N_SHARDS)
    sources = []
    for number, part in enumerate(parts):
        path = workdir / f"part{number}.bib"
        path.write_text(part, encoding="utf-8")
        sources.append(path)
    directory = workdir / "sharded-idx"
    ShardedEngine.from_paths(fx.schema, sources).save(directory)
    sources[rng.randrange(N_SHARDS)].write_text(rewrite, encoding="utf-8")
    engine = ShardedEngine.from_saved(fx.schema, directory)
    started = perf_counter()
    result = engine.query(fx.query)
    verdict.bounded(perf_counter() - started, 10.0)
    codes = [w.code for w in result.warnings]
    # The stale shard re-answers (degraded) from its *current* source, so
    # rows may legitimately differ from the pre-rewrite twin; the
    # invariant is visibility, not identity: staleness must be flagged
    # and every shard must still answer.
    verdict.codes_include(codes, {"index-stale"})
    verdict.add(
        "all-shards-answer",
        result.stats.healthy_shards == N_SHARDS,
        f"{result.stats.healthy_shards}/{N_SHARDS} shard(s) answered",
    )
    return verdict


# -- server-level scenarios ----------------------------------------------------


def _wire_rows(payload: dict[str, Any]) -> set[tuple]:
    return {tuple(row) for row in payload.get("rows", [])}


def _run_worker_stall(
    fx: "Fixtures", rng: random.Random, backend: str, workdir: Path
) -> Verdict:
    from repro.server import QueryServerApp, ServerConfig

    verdict = Verdict()
    healthy_app = QueryServerApp(fx.backend(backend))
    status, payload = healthy_app.handle("POST", "/query", {"query": fx.query})
    healthy_rows = _wire_rows(payload)
    healthy_app.close()

    stall = rng.uniform(0.3, 0.4)
    app = QueryServerApp(
        fx.backend(backend),
        ServerConfig(workers=2, budget=ResourceBudget(deadline_s=0.15)),
    )
    app.pool.fault_injector = WorkerStall(stall_s=stall, k=1)
    started = perf_counter()
    status, payload = app.handle("POST", "/query", {"query": fx.query})
    elapsed = perf_counter() - started
    # The stall consumed the admission-minted deadline: the request must
    # fail *typed* (budget-exceeded, or shard-failed when every shard's
    # window expired) — never succeed as if the clock restarted.
    verdict.envelope_error(
        status, payload, {429, 503}, {"budget-exceeded", "shard-failed"}
    )
    verdict.bounded(elapsed, stall + 2.0)
    status, payload = app.handle("POST", "/query", {"query": fx.query})
    verdict.add(
        "recovers",
        status == 200 and _wire_rows(payload) == healthy_rows,
        f"post-stall request: status {status}, rows "
        + ("identical" if _wire_rows(payload) == healthy_rows else "DIFFER"),
    )
    app.close()
    return verdict


def _run_overload(
    fx: "Fixtures", rng: random.Random, backend: str, workdir: Path
) -> Verdict:
    from repro.server import QueryServerApp, ServerConfig

    verdict = Verdict()
    app = QueryServerApp(fx.backend(backend), ServerConfig(workers=1, queue_depth=0))
    status, payload = app.handle("POST", "/query", {"query": fx.query})
    healthy_rows = _wire_rows(payload)
    verdict.add("warmup", status == 200, f"warm-up request: status {status}")

    app.pool.fault_injector = WorkerStall(stall_s=0.4, k=1)
    occupied: list[tuple[int, dict[str, Any]]] = []
    holder = threading.Thread(
        target=lambda: occupied.append(
            app.handle("POST", "/query", {"query": fx.query})
        )
    )
    holder.start()
    time.sleep(0.15)  # the holder is mid-stall: capacity is exhausted
    status, payload = app.handle("POST", "/query", {"query": fx.query})
    holder.join()
    verdict.envelope_error(status, payload, {429}, {"server-overloaded"})
    retry_after = payload.get("error", {}).get("detail", {}).get("retry_after_s")
    admission_hint = (
        payload.get("error", {})
        .get("detail", {})
        .get("admission", {})
        .get("retry_after_s")
    )
    verdict.add(
        "retry-after",
        retry_after is not None and admission_hint is not None,
        f"429 carries retry_after_s={retry_after} "
        f"(admission snapshot: {admission_hint})",
    )
    held_status, held_payload = occupied[0]
    verdict.add(
        "in-flight-survives",
        held_status == 200 and _wire_rows(held_payload) == healthy_rows,
        f"the stalled-but-admitted request finished: status {held_status}",
    )
    status, payload = app.handle("POST", "/query", {"query": fx.query})
    verdict.add(
        "recovers",
        status == 200 and _wire_rows(payload) == healthy_rows,
        f"post-burst request: status {status}",
    )
    app.close()
    return verdict


def _run_drain(
    fx: "Fixtures", rng: random.Random, backend: str, workdir: Path
) -> Verdict:
    from repro.server import QueryServerApp, ServerConfig

    verdict = Verdict()
    app = QueryServerApp(
        fx.backend(backend), ServerConfig(workers=1, drain_deadline_s=5.0)
    )
    status, payload = app.handle("POST", "/query", {"query": fx.query})
    healthy_rows = _wire_rows(payload)
    app.pool.fault_injector = WorkerStall(stall_s=0.3, k=1)
    in_flight: list[tuple[int, dict[str, Any]]] = []
    holder = threading.Thread(
        target=lambda: in_flight.append(
            app.handle("POST", "/query", {"query": fx.query})
        )
    )
    holder.start()
    time.sleep(0.1)  # the request is mid-execution when the drain begins
    app.start_draining()
    status, payload = app.handle("POST", "/query", {"query": fx.query})
    verdict.envelope_error(status, payload, {503}, {"server-draining"})
    verdict.add(
        "retry-after",
        payload.get("error", {}).get("detail", {}).get("retry_after_s") is not None,
        "draining 503 carries retry_after_s",
    )
    status, payload = app.handle("GET", "/healthz", None)
    verdict.add(
        "healthz-draining",
        payload.get("status") == "draining",
        f"healthz reports {payload.get('status')!r}",
    )
    started = perf_counter()
    drained = app.drain()
    verdict.add(
        "drained-in-time",
        drained,
        f"drain finished in {perf_counter() - started:.3f}s"
        if drained
        else "drain deadline expired with work still running",
    )
    holder.join()
    held_status, held_payload = in_flight[0]
    verdict.add(
        "in-flight-completes",
        held_status == 200 and _wire_rows(held_payload) == healthy_rows,
        f"the in-flight request finished during the drain: status {held_status}",
    )
    return verdict


# -- live-ingestion crash scenarios --------------------------------------------


class SimulatedCrash(RuntimeError):
    """Raised by a chaos crash hook to abandon a live-engine operation at
    a named point, exactly as SIGKILL would — nothing after the raise
    runs, and recovery happens on the next :meth:`LiveEngine.open`."""


#: Codes a post-crash reopen may legitimately surface.
LIVE_RECOVERY_CODES = {
    "delta-replayed",
    "stale-staging-removed",
    "shard-split",
}


def _live_setup(
    fx: "Fixtures", rng: random.Random, workdir: Path
) -> tuple[Path, list[str]]:
    """A saved sharded index plus deterministic self-delimiting records to
    append (drawn from the scenario RNG, so every seed ingests a different
    batch)."""
    from repro.workloads.bibtex import generate_bibtex

    directory = workdir / "live-idx"
    fx.sharded_engine().save(directory)
    extra = generate_bibtex(
        entries=rng.randrange(3, 6), seed=rng.randrange(1_000_000)
    )
    tree = fx.schema.parse(extra)
    records = [extra[child.start : child.end] + "\n\n" for child in tree.children]
    return directory, records


def _tail_journal(directory: Path) -> Path:
    from repro.live import WAL_SUBDIR
    from repro.shard.manifest import load_shard_manifest
    from repro.shard.replica import ReplicaSet

    entry = load_shard_manifest(directory).shards[-1]
    tail = ReplicaSet.open(directory / entry.directory)
    return tail.journal_paths(directory / WAL_SUBDIR)[0]


def _rebuild_rows(fx: "Fixtures", logical: str) -> set[tuple]:
    return FileQueryEngine(fx.schema, logical).query(fx.query).canonical_rows()


def _verify_compacted_corpus(
    verdict: Verdict, fx: "Fixtures", directory: Path, logical: str
) -> None:
    """The strongest oracle: after a full compaction, the shard corpus
    files must concatenate byte-for-byte to the logical corpus — row
    projection cannot hide a double-applied or half-lost record from
    this check."""
    from repro.live import LiveEngine
    from repro.shard.manifest import load_shard_manifest
    from repro.shard.replica import ReplicaSet

    live = LiveEngine.open(fx.schema, directory)
    live.compact()
    live.close()
    pieces: list[str] = []
    replicas_agree = True
    for entry in load_shard_manifest(directory).shards:
        copies = [
            (copy / "corpus.txt").read_text(encoding="utf-8")
            for copy in ReplicaSet.open(directory / entry.directory).copies
        ]
        replicas_agree = replicas_agree and all(c == copies[0] for c in copies)
        pieces.append(copies[0])
    stored = "".join(pieces)
    verdict.add(
        "corpus-byte-identical",
        stored == logical and replicas_agree,
        "compacted shard corpora concatenate to the logical corpus"
        if stored == logical and replicas_agree
        else "replica corpora disagree after compaction"
        if not replicas_agree
        else f"compacted corpus diverged ({len(stored)} vs {len(logical)} bytes)",
    )


def _run_kill_mid_append(
    fx: "Fixtures", rng: random.Random, backend: str, workdir: Path
) -> Verdict:
    from repro.live import LiveEngine, encode_frame

    verdict = Verdict()
    directory, records = _live_setup(fx, rng, workdir)
    live = LiveEngine.open(fx.schema, directory)
    acked = [live.append(record) for record in records[:-1]]
    live.close()
    # The process dies mid-write of the final (never-acked) frame: a
    # random prefix of its bytes reaches the journal.
    frame = encode_frame(acked[-1] + 1, records[-1])
    cut = rng.randrange(1, len(frame))
    with open(_tail_journal(directory), "ab") as handle:
        handle.write(frame[:cut])

    started = perf_counter()
    reopened = LiveEngine.open(fx.schema, directory)
    result = reopened.query(fx.query)
    verdict.bounded(perf_counter() - started, 30.0)
    codes = [w.code for w in result.warnings]
    acked_logical = fx.text + "".join(records[:-1])
    verdict.rows_identical_or_flagged(
        result.canonical_rows(), _rebuild_rows(fx, acked_logical), codes
    )
    verdict.codes_include(codes, {"delta-replayed"})
    verdict.codes_within(codes, LIVE_RECOVERY_CODES)
    # The torn tail was truncated, so the retry lands cleanly with the
    # next sequence number and completes the batch.
    retry_seq = reopened.append(records[-1])
    verdict.add(
        "retry-succeeds",
        retry_seq == acked[-1] + 1,
        f"retried append acked with seq {retry_seq} "
        f"(expected {acked[-1] + 1})",
    )
    result = reopened.query(fx.query)
    reopened.close()
    logical = fx.text + "".join(records)
    verdict.rows_identical_or_flagged(
        result.canonical_rows(), _rebuild_rows(fx, logical), []
    )
    _verify_compacted_corpus(verdict, fx, directory, logical)
    return verdict


def _run_torn_journal_tail(
    fx: "Fixtures", rng: random.Random, backend: str, workdir: Path
) -> Verdict:
    import struct

    from repro.errors import JournalCorruptError
    from repro.live import LiveEngine, encode_frame

    verdict = Verdict()
    directory, records = _live_setup(fx, rng, workdir)
    live = LiveEngine.open(fx.schema, directory)
    for record in records:
        live.append(record)
    live.close()
    journal = _tail_journal(directory)
    data = journal.read_bytes()
    logical = fx.text + "".join(records)

    if rng.random() < 0.5:
        # Torn tail: an unacked frame cut at a random byte — inside the
        # header, exactly after it, or mid-payload — must truncate away.
        extra = encode_frame(len(records) + 1, records[rng.randrange(len(records))])
        journal.write_bytes(data + extra[: rng.randrange(1, len(extra))])
        started = perf_counter()
        reopened = LiveEngine.open(fx.schema, directory)
        result = reopened.query(fx.query)
        reopened.close()
        verdict.bounded(perf_counter() - started, 30.0)
        codes = [w.code for w in result.warnings]
        verdict.rows_identical_or_flagged(
            result.canonical_rows(), _rebuild_rows(fx, logical), codes
        )
        verdict.codes_include(codes, {"delta-replayed"})
        verdict.codes_within(codes, LIVE_RECOVERY_CODES)
        # Repair truncated the torn bytes on disk: a second reopen sees a
        # clean journal (replayed frames, no torn tail).
        again = LiveEngine.open(fx.schema, directory)
        torn_again = any(
            w.detail.get("torn_bytes") for w in again.query(fx.query).warnings
        )
        again.close()
        verdict.add(
            "tail-repaired",
            not torn_again,
            "second reopen found a clean journal"
            if not torn_again
            else "torn tail survived the repair",
        )
        _verify_compacted_corpus(verdict, fx, directory, logical)
        return verdict

    # In-place bit rot inside a fully present, *acked* frame: truncation
    # cannot explain it, so replay must refuse with a typed error rather
    # than silently drop acked data.
    (first_length,) = struct.unpack(">I", data[:4])
    offset = 8 + rng.randrange(first_length)
    flipped = data[:offset] + bytes([data[offset] ^ 0xFF]) + data[offset + 1 :]
    journal.write_bytes(flipped)
    started = perf_counter()
    error: BaseException | None = None
    try:
        LiveEngine.open(fx.schema, directory)
    except Exception as caught:  # noqa: BLE001 — oracle judges the type
        error = caught
    verdict.typed_error(error, (JournalCorruptError,))
    verdict.bounded(perf_counter() - started, 30.0)
    return verdict


def _run_crash_mid_compaction(
    fx: "Fixtures", rng: random.Random, backend: str, workdir: Path
) -> Verdict:
    from repro.live import LiveEngine

    verdict = Verdict()
    directory, records = _live_setup(fx, rng, workdir)
    point = rng.choice(["compact:shard-saved", "compact:manifest-updated"])

    def crash_hook(name: str) -> None:
        if name == point:
            raise SimulatedCrash(name)

    live = LiveEngine.open(fx.schema, directory, crash_hook=crash_hook)
    for record in records:
        live.append(record)
    crashed = False
    try:
        live.compact()
    except SimulatedCrash:
        crashed = True
    live.close()
    verdict.add(
        "crash-injected", crashed, f"compaction crashed at {point!r}"
        if crashed
        else f"crash hook never fired at {point!r}",
    )

    started = perf_counter()
    reopened = LiveEngine.open(fx.schema, directory)
    result = reopened.query(fx.query)
    reopened.close()
    verdict.bounded(perf_counter() - started, 30.0)
    codes = [w.code for w in result.warnings]
    logical = fx.text + "".join(records)
    verdict.rows_identical_or_flagged(
        result.canonical_rows(), _rebuild_rows(fx, logical), codes
    )
    verdict.codes_within(codes, LIVE_RECOVERY_CODES)
    _verify_compacted_corpus(verdict, fx, directory, logical)
    return verdict


def _run_crash_mid_split(
    fx: "Fixtures", rng: random.Random, backend: str, workdir: Path
) -> Verdict:
    from repro.live import LiveEngine

    verdict = Verdict()
    directory, records = _live_setup(fx, rng, workdir)
    point = rng.choice(["split:shards-saved", "split:manifest-updated"])

    def crash_hook(name: str) -> None:
        if name == point:
            raise SimulatedCrash(name)

    # A 1-byte budget guarantees the freshly folded tail shard overflows
    # and the compaction proceeds into the split lifecycle.
    live = LiveEngine.open(
        fx.schema, directory, max_shard_bytes=1, crash_hook=crash_hook
    )
    for record in records:
        live.append(record)
    crashed = False
    try:
        live.compact()
    except SimulatedCrash:
        crashed = True
    live.close()
    verdict.add(
        "crash-injected", crashed, f"split crashed at {point!r}"
        if crashed
        else f"crash hook never fired at {point!r}",
    )

    started = perf_counter()
    reopened = LiveEngine.open(fx.schema, directory)
    result = reopened.query(fx.query)
    reopened.close()
    verdict.bounded(perf_counter() - started, 30.0)
    codes = [w.code for w in result.warnings]
    logical = fx.text + "".join(records)
    verdict.rows_identical_or_flagged(
        result.canonical_rows(), _rebuild_rows(fx, logical), codes
    )
    verdict.codes_within(codes, LIVE_RECOVERY_CODES)
    _verify_compacted_corpus(verdict, fx, directory, logical)
    return verdict


#: Malformed HTTP bodies: (label, raw bytes).  Every one must come back
#: as a structured 4xx envelope, never a 500 and never a hang.
MALFORMED_BODIES = [
    ("truncated-json", b'{"query": "SELECT'),
    ("not-json", b"\xff\xfe garbage \x00"),
    ("json-array", b'["SELECT r FROM Reference r"]'),
    ("json-scalar", b'"just a string"'),
    ("missing-query", b"{}"),
    ("wrong-types", b'{"query": 42}'),
    ("bad-budget", b'{"query": "SELECT r FROM Reference r", "budget": "fast"}'),
    ("string-deadline", b'{"query": "SELECT r FROM Reference r", "budget": {"deadline_ms": "5"}}'),
    ("negative-cap", b'{"query": "SELECT r FROM Reference r", "budget": {"max_regions": -1}}'),
    ("bad-cursor", b'{"query": "SELECT r FROM Reference r", "cursor": "zzz"}'),
]


# -- replication scenarios -----------------------------------------------------


def _replicated_setup(
    fx: "Fixtures", workdir: Path, replicas: int
) -> tuple[Path, list[list[Path]]]:
    """A saved sharded index with N complete copies per shard, plus each
    shard's copy directories for fault injection."""
    from repro.shard.manifest import load_shard_manifest
    from repro.shard.replica import ReplicaSet

    directory = workdir / "replicated-idx"
    fx.sharded_engine().save(directory, replicas=replicas)
    manifest = load_shard_manifest(directory)
    return directory, [
        ReplicaSet.open(directory / entry.directory).copies for entry in manifest.shards
    ]


def _damage_replica(rng: random.Random, replica_dir: Path) -> None:
    """One randomly chosen corruption against one replica copy."""
    part = rng.choice(["corpus", "regions", "config"])
    mode = rng.choice(["garbage", "truncate", "delete"])
    corrupt_index_file(replica_dir, part=part, mode=mode)


def _judge_replicated_read(
    verdict: Verdict, fx: "Fixtures", directory: Path, require_failover: bool
) -> None:
    """Query the damaged index: rows must be byte-identical (no partial
    result — a healthy sibling answers for every shard), flagged with
    ``replica-failover`` when damage was routed around."""
    engine = ShardedEngine.from_saved(fx.schema, directory)
    started = perf_counter()
    result = engine.query(fx.query)
    verdict.bounded(perf_counter() - started, 30.0)
    codes = [w.code for w in result.warnings]
    rows = result.canonical_rows()
    verdict.add(
        "rows-byte-identical",
        rows == fx.reference,
        "every shard answered from a healthy replica"
        if rows == fx.reference
        else f"rows diverged from the healthy twin "
        f"({len(rows)} vs {len(fx.reference)})",
    )
    if require_failover:
        verdict.codes_include(codes, {"replica-failover"})
    verdict.codes_within(codes, {"replica-failover"})


def _judge_scrub_heals(
    verdict: Verdict, fx: "Fixtures", directory: Path
) -> None:
    """Anti-entropy: one repair pass heals, the next pass finds nothing."""
    from repro.shard.scrub import scrub_index

    report = scrub_index(fx.schema, directory, repair=True)
    verdict.add(
        "repair-completes",
        not report.unrepaired,
        f"{len(report.repairs)} repair action(s), none unrepairable"
        if not report.unrepaired
        else f"{len(report.unrepaired)} replica(s) unrepairable",
    )
    second = scrub_index(fx.schema, directory)
    verdict.add(
        "second-pass-clean",
        second.clean,
        "post-repair scrub found zero findings"
        if second.clean
        else f"post-repair scrub still sees {len(second.findings)} finding(s)",
    )
    _judge_replicated_read(verdict, fx, directory, require_failover=False)


def _run_corrupt_one_replica(
    fx: "Fixtures", rng: random.Random, backend: str, workdir: Path
) -> Verdict:
    verdict = Verdict()
    directory, shard_copies = _replicated_setup(fx, workdir, replicas=2)
    for copies in shard_copies:
        _damage_replica(rng, copies[rng.randrange(2)])
    _judge_replicated_read(verdict, fx, directory, require_failover=True)
    _judge_scrub_heals(verdict, fx, directory)
    return verdict


def _run_corrupt_all_but_one(
    fx: "Fixtures", rng: random.Random, backend: str, workdir: Path
) -> Verdict:
    verdict = Verdict()
    directory, shard_copies = _replicated_setup(fx, workdir, replicas=3)
    for copies in shard_copies:
        survivor = rng.randrange(3)
        for index in range(3):
            if index != survivor:
                _damage_replica(rng, copies[index])
    _judge_replicated_read(verdict, fx, directory, require_failover=True)
    _judge_scrub_heals(verdict, fx, directory)
    return verdict


def _run_kill_mid_repair(
    fx: "Fixtures", rng: random.Random, backend: str, workdir: Path
) -> Verdict:
    from repro.core.engine import FileQueryEngine as _Engine
    from repro.resilience import DegradationPolicy
    from repro.shard.scrub import scrub_index

    verdict = Verdict()
    directory, shard_copies = _replicated_setup(fx, workdir, replicas=2)
    victim_shard = shard_copies[rng.randrange(len(shard_copies))]
    healthy = rng.randrange(2)
    survivor = victim_shard[healthy]
    _damage_replica(rng, victim_shard[1 - healthy])
    point = rng.choice(["scrub:quarantined", "scrub:peer-copied", "scrub:repaired"])

    def crash_hook(name: str) -> None:
        if name == point:
            raise SimulatedCrash(name)

    crashed = False
    try:
        scrub_index(fx.schema, directory, repair=True, crash_hook=crash_hook)
    except SimulatedCrash:
        crashed = True
    verdict.add(
        "crash-injected",
        crashed,
        f"repair crashed at {point!r}"
        if crashed
        else f"crash hook never fired at {point!r}",
    )
    # The invariant the repair protocol exists for: whatever the crash
    # point, the last healthy copy is still on disk and loadable.
    survivor_ok = True
    try:
        _Engine.from_saved(
            fx.schema, str(survivor), policy=DegradationPolicy.strict()
        )
    except Exception as error:  # noqa: BLE001 — oracle judges the outcome
        survivor_ok = False
        verdict.add(
            "healthy-replica-survives",
            False,
            f"last healthy replica lost mid-repair: {error}",
        )
    if survivor_ok:
        verdict.add(
            "healthy-replica-survives",
            True,
            f"{survivor.name} still verifies after the crash",
        )
    # A re-run finishes the interrupted repair, and the next pass is clean.
    _judge_scrub_heals(verdict, fx, directory)
    return verdict


def _run_kill_mid_quorum_append(
    fx: "Fixtures", rng: random.Random, backend: str, workdir: Path
) -> Verdict:
    from repro.live import LiveEngine
    from repro.workloads.bibtex import generate_bibtex

    verdict = Verdict()
    directory, _ = _replicated_setup(fx, workdir, replicas=2)
    extra = generate_bibtex(
        entries=rng.randrange(3, 6), seed=rng.randrange(1_000_000)
    )
    tree = fx.schema.parse(extra)
    records = [extra[child.start : child.end] + "\n\n" for child in tree.children]

    # The process dies after replica journal 0 fsynced the frame but
    # before journal 1 saw it: the widest quorum-split window.
    armed = {"on": False}

    def crash_hook(name: str) -> None:
        if armed["on"] and name == "append:journal-acked:0":
            raise SimulatedCrash(name)

    live = LiveEngine.open(fx.schema, directory, crash_hook=crash_hook)
    for record in records[:-1]:
        live.append(record)
    armed["on"] = True
    crashed = False
    try:
        live.append(records[-1])
    except SimulatedCrash:
        crashed = True
    live.close()
    verdict.add(
        "crash-injected", crashed, "append crashed between replica journals"
        if crashed
        else "crash hook never fired",
    )

    # The frame is durable on journal 0, so recovery promotes it to every
    # replica journal: the un-acked append IS the recovered state here
    # (exactly why retries carry request ids).
    started = perf_counter()
    reopened = LiveEngine.open(fx.schema, directory)
    result = reopened.query(fx.query)
    verdict.bounded(perf_counter() - started, 30.0)
    codes = [w.code for w in result.warnings]
    logical = fx.text + "".join(records)
    verdict.rows_identical_or_flagged(
        result.canonical_rows(), _rebuild_rows(fx, logical), codes
    )
    verdict.codes_within(codes, LIVE_RECOVERY_CODES | {"replica-failover"})
    # An idempotent retry of the in-doubt record dedupes instead of
    # double-appending — but only when the client tagged it; here the
    # recovered seq must simply not be reissued.
    next_seq = reopened.append_record(records[0], request_id="chaos-retry")["seq"]
    verdict.add(
        "seq-not-reissued",
        next_seq == len(records) + 1,
        f"next append took seq {next_seq} (expected {len(records) + 1})",
    )
    reopened.close()
    _verify_compacted_corpus(verdict, fx, directory, logical + records[0])
    return verdict


def _run_malformed_body(
    fx: "Fixtures", rng: random.Random, backend: str, workdir: Path
) -> Verdict:
    from repro.server import QueryServer, ServerConfig

    verdict = Verdict()
    bodies = rng.sample(MALFORMED_BODIES, 4)
    server = QueryServer(fx.backend(backend), ServerConfig(port=0))
    with server:
        for label, raw in bodies:
            request = urllib.request.Request(
                server.url + "/query",
                data=raw,
                headers={"Content-Type": "application/json"},
            )
            try:
                with urllib.request.urlopen(request, timeout=10) as response:
                    status, payload = response.status, json.loads(response.read())
            except urllib.error.HTTPError as error:
                status, payload = error.code, json.loads(error.read())
            verdict.add(
                f"malformed:{label}",
                400 <= status < 500 and payload.get("ok") is False,
                f"status {status}, code "
                f"{payload.get('error', {}).get('code')!r}",
            )
        request = urllib.request.Request(
            server.url + "/query",
            data=json.dumps({"query": fx.query}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            payload = json.loads(response.read())
        verdict.add(
            "still-healthy",
            response.status == 200 and _wire_rows(payload) == fx.wire_reference,
            f"valid request after the garbage: status {response.status}, rows "
            + ("identical" if _wire_rows(payload) == fx.wire_reference else "DIFFER"),
        )
    return verdict


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in [
        Scenario(
            "hang",
            "a shard hangs (or an operator makes no progress) under a "
            "request deadline — partial result under 2x the deadline",
            "shard fault injector / wall-clock guard",
            ("solo", "sharded"),
            _run_hang,
        ),
        Scenario(
            "slow",
            "one shard is slow; the scatter waits for it and the answer "
            "is whole, with no warning",
            "shard fault injector (SlowShard)",
            ("sharded",),
            _run_slow,
        ),
        Scenario(
            "transient-io",
            "the first K attempts on one shard fail with OSError; retries "
            "recover the full answer",
            "shard fault injector (TransientIOFault)",
            ("sharded",),
            _run_transient,
        ),
        Scenario(
            "corrupt",
            "a saved index is damaged on disk; answers degrade (identical "
            "rows) or fail flagged, never silently wrong",
            "on-disk index damage",
            ("solo", "sharded"),
            _run_corrupt,
        ),
        Scenario(
            "stale",
            "a source file changed after indexing; staleness is typed "
            "(strict) or flagged (tolerant)",
            "source rewrite after save",
            ("solo", "sharded"),
            _run_stale,
        ),
        Scenario(
            "worker-stall",
            "the worker pool stalls a request past its end-to-end "
            "deadline; the deadline is consumed, not re-armed",
            "server pool fault injector (WorkerStall)",
            ("solo", "sharded"),
            _run_worker_stall,
        ),
        Scenario(
            "overload",
            "admission capacity exhausted; 429 with Retry-After from the "
            "queue-drain rate, in-flight work unharmed",
            "admission capacity",
            ("solo", "sharded"),
            _run_overload,
        ),
        Scenario(
            "drain",
            "graceful shutdown races an in-flight request: it completes, "
            "new work gets structured 503s",
            "graceful-drain state machine",
            ("solo", "sharded"),
            _run_drain,
        ),
        Scenario(
            "malformed-body",
            "garbage request bodies at the HTTP boundary come back as "
            "structured 4xx envelopes",
            "HTTP request parsing",
            ("solo", "sharded"),
            _run_malformed_body,
        ),
        Scenario(
            "kill-mid-append",
            "the process dies mid-write of a journal frame: acked appends "
            "recover, the torn unacked frame truncates away, the retry "
            "lands with the next sequence number",
            "partial WAL frame bytes on disk",
            ("sharded",),
            _run_kill_mid_append,
        ),
        Scenario(
            "torn-journal-tail",
            "byte-level journal damage: a torn tail truncates and replays "
            "clean; in-place bit rot in an acked frame raises a typed "
            "JournalCorruptError instead of silent loss",
            "WAL truncation / bit flip",
            ("sharded",),
            _run_torn_journal_tail,
        ),
        Scenario(
            "crash-mid-compaction",
            "a crash between any two compaction commit points (shard swap, "
            "root-manifest rewrite, journal trim): reopening replays the "
            "journal — no lost and no double-applied records",
            "LiveEngine crash hook",
            ("sharded",),
            _run_crash_mid_compaction,
        ),
        Scenario(
            "crash-mid-split",
            "a crash between the split lifecycle's commit points (new "
            "shards saved, root-manifest rewrite, old-dir GC): the logical "
            "corpus survives byte-for-byte either way",
            "LiveEngine crash hook",
            ("sharded",),
            _run_crash_mid_split,
        ),
        Scenario(
            "corrupt-one-replica",
            "one replica of every shard is damaged (replicas=2): queries "
            "stay byte-identical via replica-failover — no partial result "
            "— and one scrub --repair pass heals to zero findings",
            "on-disk replica damage + scrub repair",
            ("sharded",),
            _run_corrupt_one_replica,
        ),
        Scenario(
            "corrupt-all-but-one",
            "every replica but one is damaged per shard (replicas=3): the "
            "single survivor still answers byte-identically and re-seeds "
            "its siblings through anti-entropy repair",
            "on-disk replica damage + scrub repair",
            ("sharded",),
            _run_corrupt_all_but_one,
        ),
        Scenario(
            "kill-mid-repair",
            "the scrubber dies between quarantine, peer-copy, and swap: "
            "the last healthy replica is never lost, and a re-run "
            "finishes the interrupted repair",
            "scrub crash hook",
            ("sharded",),
            _run_kill_mid_repair,
        ),
        Scenario(
            "kill-mid-quorum-append",
            "the process dies after one replica journal fsynced a frame "
            "but before its sibling: recovery promotes the acked frame to "
            "every journal and never reissues its sequence number",
            "LiveEngine append crash hook",
            ("sharded",),
            _run_kill_mid_quorum_append,
        ),
    ]
}
