"""The traced pass: the same ops replayed in-process, time split by layer.

Three single-threaded replays of the first ``traced_ops`` operations, each
on a fresh backend built the way ``repro serve`` builds it, each through
``QueryServerApp.handle`` followed by ``json.dumps`` (what the HTTP skin
does with the envelope):

1. untraced — the in-process reference the served latency is compared to;
2. traced — timing wrappers on ``bench.layers.BOUNDARIES``;
3. untraced with the engine's own ``tracing=False`` — what the program's
   span trees cost.

Times are means per replayed op.  Counts (bytes parsed, comparisons, cache
activity, rows, fsyncs) come from the same boundaries or from the wire
``stats`` object and ``GET /stats``, and repeat exactly for a given seed.
"""

from __future__ import annotations

import json
import os
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

from repro.cache import CacheConfig
from repro.core.engine import FileQueryEngine
from repro.index.config import IndexConfig
from repro.live import LiveEngine
from repro.server.app import QueryServerApp, ServerConfig
from repro.shard import ShardedEngine

from bench.layers import install
from bench.oracle import Oracle, envelope_fault, page_fault
from bench.served import QUEUE_DEPTH, WORKERS
from bench.trace import AFTER, WARMUP, Recorder, Span, ancestors, covered, self_times
from bench.workloads import CLIENTS, ClientStream, Op, Prepared, warmup_ops


def make_backend(prepared: Prepared, index_dir: Path | None, tracing: bool) -> Any:
    """The backend ``repro serve`` would build for this workload
    (``cli._cmd_serve``): default caches, policy and feedback."""
    options = {"cache_config": CacheConfig(), "tracing": tracing}
    if index_dir is None:
        return FileQueryEngine(prepared.schema, prepared.text, IndexConfig.full(), **options)
    if prepared.spec.live:
        return LiveEngine.open(prepared.schema, index_dir, **options)
    return ShardedEngine.from_saved(prepared.schema, index_dir, **options)


@dataclass
class Played:
    """One replayed operation."""

    op: Op
    status: int
    payload: dict[str, Any]
    handle_s: float  # QueryServerApp.handle
    render_s: float  # json.dumps(...).encode()
    render_bytes: int

    @property
    def answer(self) -> tuple:
        """What was answered, apart from its statistics."""
        return tuple(self.payload.get(key) for key in _ANSWER_KEYS)


_ANSWER_KEYS = ("ok", "kind", "rows", "row_start", "total_rows", "next_cursor", "seq")


@dataclass
class Replay:
    """One in-process pass over the replayed ops."""

    played: list[Played] = field(default_factory=list)
    setup_s: float = 0.0
    stats_before: dict[str, Any] = field(default_factory=dict)
    stats_after: dict[str, Any] = field(default_factory=dict)
    journal_bytes: int = 0  # growth over the replayed ops (live)
    compact_bytes: int | None = None  # bytes of the files a compaction wrote

    def op_s(self, path: str | None = None) -> list[float]:
        return [
            one.handle_s + one.render_s
            for one in self.played
            if path is None or one.op.path == path
        ]


def _file_states(directory: Path) -> dict[str, tuple[int, int]]:
    return {
        os.path.join(parent, name): (
            os.stat(os.path.join(parent, name)).st_mtime_ns,
            os.path.getsize(os.path.join(parent, name)),
        )
        for parent, _, names in os.walk(directory)
        for name in names
    }


def replay(
    prepared: Prepared, index_dir: Path | None, tracing: bool, recorder: Recorder | None = None
) -> Replay:
    """One pass: build the backend, probe, warm up, replay ``traced_ops``
    ops.  With a ``recorder`` the spans of each phase carry its mark, and
    a live pass ends with one timed compaction."""
    spec = prepared.spec
    result = Replay()
    began = perf_counter()
    backend = make_backend(prepared, index_dir, tracing)
    app = QueryServerApp(backend, ServerConfig(workers=WORKERS, queue_depth=QUEUE_DEPTH))
    try:
        status, payload = app.handle("POST", "/query", {"query": prepared.pool[0], "page_size": 1})
        if status != 200:
            raise RuntimeError(f"in-process probe answered {status}: {payload}")
        result.setup_s = perf_counter() - began
        if recorder is not None:
            recorder.op = WARMUP
        for op in warmup_ops(prepared):
            app.handle("POST", op.path, op.body)
        result.stats_before = app.handle("GET", "/stats")[1]
        journal_before = backend.status()["journal_bytes"] if spec.live else 0
        streams = [ClientStream(prepared, client) for client in range(CLIENTS)]
        for number in range(spec.traced_ops):
            stream = streams[number % CLIENTS]
            op = stream.next_op()
            if recorder is not None:
                recorder.op = number
            started = perf_counter()
            status, payload = app.handle("POST", op.path, op.body)
            handled = perf_counter()
            data = json.dumps(payload).encode("utf-8")  # as http._respond does
            rendered = perf_counter()
            if recorder is not None:
                recorder.add("json.dumps", "server", None, number, handled, rendered)
                recorder.op = None
            stream.observe(op, payload)
            result.played.append(
                Played(op, status, payload, handled - started, rendered - handled, len(data))
            )
        result.stats_after = app.handle("GET", "/stats")[1]
        if spec.live:
            result.journal_bytes = backend.status()["journal_bytes"] - journal_before
        if spec.live and recorder is not None:
            before = _file_states(index_dir)
            recorder.op = AFTER
            backend.compact()
            after = _file_states(index_dir)
            result.compact_bytes = sum(
                size for path, (mtime, size) in after.items() if before.get(path) != (mtime, size)
            )
    finally:
        app.close()
        if spec.live:
            backend.close()
    return result


def replay_faults(oracle: Oracle, done: Replay) -> list[str]:
    """Failed operations of one replay (single-threaded, so live answers
    are exact too: the rows are the oracle's over base + records so far)."""
    faults = []
    oracle = oracle.fork()
    for one in done.played:
        fault = envelope_fault(one.status, one.payload)
        if one.op.record is not None:
            if fault is None:
                oracle.extend(one.op.record)
        elif fault is None:
            fault = page_fault(oracle, one.op.query, one.payload)
        if fault:
            faults.append(f"in-process {one.op.body}: {fault}")
    return faults


def _mean(values: list[float]) -> float | None:
    return statistics.fmean(values) if values else None


def _ratio(numerator: float, denominator: float) -> float | None:
    return numerator / denominator if denominator else None


def _delta(before: dict, after: dict, *path: str) -> float:
    for key in path:
        before, after = before.get(key, {}), after.get(key, {})
    return (after or 0) - (before or 0)


class _Layers:
    """Per-op means over the traced replay's spans."""

    def __init__(self, spans: list[Span], ops: int, unresolved: list[str]) -> None:
        self.ops = ops
        self.unresolved = {entry.split(":", 1)[1] for entry in unresolved}
        self.notes = [f"layer-unresolved: {entry}" for entry in unresolved]
        self.spans = spans
        self.in_ops = [span for span in spans if span.op is not None and span.op >= 0]
        self.self_s = self_times(spans)
        self.chains = ancestors(spans)

    def known(self, *names: str | None) -> bool:
        return not self.unresolved.intersection(names)

    def self_ms(self, *names: str, per: int | None = None) -> float | None:
        """Mean self time spent in the named boundaries per op (or per
        ``per`` of something else: appends)."""
        if not self.known(*names) or per == 0:
            return None
        total = sum(self.self_s[s.id] for s in self.in_ops if s.name in names)
        return total * 1e3 / (per or self.ops)

    def total_ms(
        self, name: str, under: str | None = None, direct: bool = False, per: int | None = None
    ) -> float | None:
        """Mean inclusive time in ``name`` — optionally only spans below
        (``direct``: directly below) a span named ``under``."""
        if not self.known(name, under) or per == 0:
            return None
        return sum(s.duration for s in self._select(name, under, direct)) * 1e3 / (per or self.ops)

    def _select(self, name: str, under: str | None, direct: bool) -> list[Span]:
        chosen = []
        for span in self.in_ops:
            if span.name != name:
                continue
            above = self.chains[span.id][:1] if direct else self.chains[span.id]
            if under is None or any(ancestor.name == under for ancestor in above):
                chosen.append(span)
        return chosen

    def calls(self, name: str, under: str | None = None) -> int | None:
        if not self.known(name, under):
            return None
        return len(self._select(name, under, direct=False))

    def counted(self, name: str, setup: bool = False) -> float | None:
        """Work counted at ``name`` over the ops (``setup``: during set-up)."""
        if not self.known(name):
            return None
        spans = [s for s in self.spans if s.op is None] if setup else self.in_ops
        return sum(s.count or 0 for s in spans if s.name == name)

    def phase_s(self, name: str, phase: int | None = None) -> float | None:
        """Wall time of a phase (default: set-up) lying inside ``name``
        (shard loads overlap on threads, so a union, not a sum)."""
        if not self.known(name):
            return None
        return covered([(s.start, s.end) for s in self.spans if s.op == phase and s.name == name])

    def per_op_max_ms(self, name: str) -> float | None:
        if not self.known(name):
            return None
        worst: dict[int, float] = {}
        for span in self.in_ops:
            if span.name == name:
                worst[span.op] = max(worst.get(span.op, 0.0), span.duration)
        return sum(worst.values()) * 1e3 / self.ops

    def coverage(self) -> float | None:
        """Share of ``handle`` wall time lying inside some boundary below
        it: what the table explains of a request."""
        root = "QueryServerApp.handle"
        if not self.known(root):
            return None
        roots = {span.id: span for span in self.in_ops if span.name == root}
        inside: dict[int, list[tuple[float, float]]] = {span_id: [] for span_id in roots}
        for span in self.in_ops:
            chain = self.chains[span.id]
            if chain and chain[-1].id in roots:
                top = chain[-1]
                inside[top.id].append((max(span.start, top.start), min(span.end, top.end)))
        return _ratio(
            sum(covered(intervals) for intervals in inside.values()),
            sum(span.duration for span in roots.values()),
        )


def run_traced(
    prepared: Prepared, oracle: Oracle, served_p50_ms: float, out_dir: Path, workdir: Path
) -> tuple[dict[str, float | None], list[str], list[str]]:
    """The three replays.  Returns ``(metrics, notes, faults)``."""
    spec = prepared.spec

    def index_copy(label: str) -> Path | None:
        if prepared.index_dir is None or not spec.live:
            return prepared.index_dir
        return prepared.copy_index(workdir / f"traced-{label}")

    plain = replay(prepared, index_copy("plain"), tracing=True)
    recorder = Recorder()
    installed = install(recorder)
    try:
        traced = replay(prepared, index_copy("traced"), tracing=True, recorder=recorder)
    finally:
        installed.uninstall()
    quiet = replay(prepared, index_copy("quiet"), tracing=False)
    recorder.write(out_dir / f"trace_{spec.name}.jsonl")

    ops = len(traced.played)
    layers = _Layers(recorder.spans, ops, installed.unresolved)
    queries = [one for one in traced.played if one.op.path == "/query"]
    appends = [one for one in traced.played if one.op.path == "/append"]
    wire = [one.payload.get("stats", {}) for one in queries]

    def cache(counter: str) -> float:
        return _delta(traced.stats_before, traced.stats_after, "engine", "cache", counter)

    def hit_ratio(kind: str) -> float | None:
        hits = cache(f"{kind}_hits")
        return _ratio(hits, hits + cache(f"{kind}_misses"))

    rows_returned = sum(len(one.payload.get("rows", [])) for one in queries)
    handle_ms = layers.total_ms("QueryServerApp.handle")
    parse_ms = layers.self_ms("StructuringSchema.parse")
    parse_bytes = layers.counted("StructuringSchema.parse")
    build_s = layers.phase_s("build_engine")
    inproc_query_p50 = statistics.median(plain.op_s("/query")) * 1e3
    sharded = spec.shards > 0
    shard = lambda value: value if sharded else None
    live = lambda value: value if spec.live else None
    record_bytes = sum(len(one.op.record.encode("utf-8")) for one in appends)
    metrics: dict[str, float | None] = {
        "server.http.overhead_ms": served_p50_ms - inproc_query_p50,
        "server.inproc_query_p50_ms": inproc_query_p50,
        "server.app.handle_ms": handle_ms,
        "server.app.self_ms": layers.self_ms("QueryServerApp.handle"),
        "server.admission.wait_ms": layers.self_ms(
            "AdmissionController.admit", "WorkerPool.submit", "WorkerPool.submit:wait"
        ),
        "server.admission.rejected": _delta(
            traced.stats_before, traced.stats_after, "server", "admission", "rejected_total"
        ),
        "server.render.json_ms": _mean([one.render_s for one in traced.played]) * 1e3,
        "server.render.bytes_per_op": _mean([one.render_bytes for one in traced.played]),
        "api.render_rows_ms": layers.self_ms("render_rows", "paginate"),
        "api.response_self_ms": layers.self_ms("query_response"),
        "api.rows_rendered_per_row_returned": _ratio(
            sum(one.payload.get("total_rows", 0) for one in queries), rows_returned
        ),
        "db.parse_query_ms": layers.self_ms("parse_query"),
        "core.translate_ms": layers.self_ms("Translator.translate_query"),
        "core.optimize_ms": layers.self_ms("optimize"),
        "core.plan_ms": layers.total_ms("Planner.plan"),
        "core.plan_self_ms": layers.self_ms("Planner.plan"),
        "core.engine_self_ms": layers.self_ms(
            "FileQueryEngine.query", "FileQueryEngine.execute_plan", "PlanExecutor.execute"
        ),
        "cache.plan_hit_ratio": hit_ratio("plan"),
        "index.eval_ms": layers.self_ms("IndexEngine.run"),
        "index.eval_comparisons": _mean([s.get("algebra", {}).get("comparisons", 0) for s in wire]),
        "cache.expression_hit_ratio": hit_ratio("expression"),
        "schema.parse_ms": parse_ms,
        "schema.parse_bytes": None if parse_bytes is None else parse_bytes / ops,
        "schema.parse_mb_per_s": (
            None if not parse_ms or parse_bytes is None else parse_bytes / ops / 1e3 / parse_ms
        ),
        "schema.parse_share": _ratio(parse_ms or 0.0, handle_ms or 0.0),
        "cache.parse_hit_ratio": hit_ratio("parse"),
        "cache.parse_evictions": cache("parse_evictions") / ops,
        "db.instantiate_ms": layers.self_ms("StructuringSchema.instantiate"),
        "db.evaluate_ms": layers.self_ms("NaiveEvaluator.evaluate"),
        "db.objects_built_per_row": _ratio(
            sum(s.get("values_built", 0) for s in wire), sum(s.get("rows", 0) for s in wire)
        ),
        "index.build_s": build_s,
        "index.build_mb_per_s": (
            None if not build_s else layers.counted("build_engine", setup=True) / 1e6 / build_s
        ),
        "schema.setup_parse_s": layers.phase_s("StructuringSchema.parse"),
        "index.persist.save_s": prepared.save_s,
        "index.persist.load_s": shard(layers.phase_s("load_index")),
        "index.persist.bytes_on_disk": shard(prepared.disk_bytes()),
        "shard.query_self_ms": shard(
            layers.self_ms("ShardedEngine.query", "ThreadPoolExecutor.submit")
        ),
        "shard.execute_sum_ms": shard(layers.total_ms("FileQueryEngine.execute_plan")),
        "shard.execute_max_ms": shard(layers.per_op_max_ms("FileQueryEngine.execute_plan")),
        "shard.fanout": shard(_mean([len(s.get("shards", [])) for s in wire])),
        "shard.replica_load_s": shard(layers.phase_s("ReplicaSet.load")),
        "shard.retries": shard(sum(r.get("retries", 0) for s in wire for r in s.get("shards", []))),
        "live.query_self_ms": live(layers.self_ms("LiveEngine.query")),
        "live.append_self_ms": live(layers.self_ms("LiveEngine.append_record", per=len(appends))),
        "live.journal_append_ms": live(layers.total_ms("JournalWriter.append", per=len(appends))),
        "live.journal_fsync_ms": live(
            layers.total_ms("fsync", under="JournalWriter.append", per=len(appends))
        ),
        "live.journal_fsyncs_per_append": live(
            _ratio(layers.calls("fsync", under="JournalWriter.append") or 0, len(appends))
        ),
        "live.journal_bytes_per_record_byte": live(_ratio(traced.journal_bytes, record_bytes)),
        "live.delta_rebuild_ms": live(
            layers.total_ms("FileQueryEngine.__init__", under="LiveEngine.query")
        ),
        "live.delta_query_ms": live(
            layers.total_ms("FileQueryEngine.query", under="LiveEngine.query", direct=True)
        ),
        "live.pending_records_at_end": live(
            traced.stats_after.get("engine", {}).get("backend", {}).get("pending_records")
        ),
        "live.replay_s": live(layers.phase_s("LiveEngine.open")),
        "live.compact_s": live(layers.phase_s("LiveEngine.compact", AFTER)),
        "live.compact_bytes_rewritten": traced.compact_bytes,
        "obs.tracing_share": sum(plain.op_s()) / sum(quiet.op_s()) - 1.0,
        "bench.trace_overhead_share": sum(traced.op_s()) / sum(plain.op_s()) - 1.0,
        "bench.layer_coverage": layers.coverage(),
        "bench.traced_ops": ops,
        "bench.inproc_setup_s": plain.setup_s,
    }
    faults = replay_faults(oracle, plain)
    for label, other in (("traced", traced), ("tracing=False", quiet)):
        # Single-threaded and seeded: every replay must give the answers
        # the checked one gave.
        for number, (mine, theirs) in enumerate(zip(plain.played, other.played)):
            if mine.answer != theirs.answer:
                faults.append(f"in-process {label} replay, op {number}: answer differs")
    return metrics, layers.notes, faults
