"""Command-line interface.

Examples::

    # Generate a synthetic corpus
    python -m repro generate --workload bibtex --entries 200 --seed 1 > refs.bib

    # Query a file through its database view
    python -m repro query --workload bibtex --file refs.bib \
        'SELECT r FROM Reference r WHERE r.Authors.Name.Last_Name = "Chang"'

    # Show the plan (translation + Section 3.2 rewrites)
    python -m repro explain --workload bibtex --file refs.bib 'SELECT ...'

    # EXPLAIN ANALYZE: estimated costs next to measured per-stage actuals
    python -m repro analyze --workload bibtex --file refs.bib 'SELECT ...'
    python -m repro analyze --workload bibtex --file refs.bib --json 'SELECT ...'

    # Build and persist indexes, then query without re-parsing
    python -m repro index --workload bibtex --file refs.bib --out ./idx
    python -m repro query --workload bibtex --index ./idx 'SELECT ...'

    # Fault tolerance: degrade past a corrupt/stale saved index via full
    # scans (warnings on stderr), or fail fast with typed errors
    python -m repro query --workload bibtex --index ./idx --degrade 'SELECT ...'
    python -m repro query --workload bibtex --index ./idx --strict 'SELECT ...'

    # Guarded evaluation: abort (or degrade) past a resource budget
    python -m repro query --workload bibtex --file refs.bib \
        --budget-ms 50 --budget-regions 10000 'SELECT ...'

    # Index statistics
    python -m repro stats --workload bibtex --file refs.bib

    # Sharded corpora: one isolated index per file (or per byte-balanced
    # chunk of one file), scatter-gather queries with partial results
    python -m repro index --workload bibtex --out ./sidx --files a.bib b.bib
    python -m repro index --workload bibtex --out ./sidx \
        --file refs.bib --shards 8
    python -m repro query --workload bibtex --index ./sidx 'SELECT ...'
    python -m repro query --workload bibtex --index ./sidx \
        --fail-fast --max-parallel 4 'SELECT ...'

    # Replication: N complete copies per shard, breaker-aware failover on
    # read, and a scrubber that verifies checksums + corpus fingerprints
    # and heals damage from a verified peer (quarantining, never deleting)
    python -m repro index --workload bibtex --out ./sidx \
        --file refs.bib --shards 4 --replicas 2
    python -m repro scrub --workload bibtex --index ./sidx
    python -m repro scrub --workload bibtex --index ./sidx --repair

``query``, ``explain``, ``analyze``, ``stats`` and ``serve`` pick the
backend from what they can observe — ``--live``, a sharded ``--index``,
anything else — and ``shard build|query|explain|analyze`` are the
``index``/``query``/``explain``/``analyze`` handlers under their historical
names.  ``query``, ``stats`` and ``analyze`` accept
``--json`` for machine-readable output, assembled from the unified response
dataclasses in :mod:`repro.api` — the exact shapes the query server
emits (``analyze`` is validated in CI against
``schemas/analyze.schema.json``, the server envelopes against
``schemas/server.schema.json``)::

    # Long-lived query server over a corpus or saved (sharded) index
    python -m repro serve --workload bibtex --file refs.bib --port 8080
    python -m repro serve --workload bibtex --index ./sidx --workers 8
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable

from repro.api import AnalyzeResponse, QueryRequest, query_response, render_value
from repro.cache import CacheConfig, CacheStats
from repro.core.engine import FileQueryEngine
from repro.errors import ReproError
from repro.index.config import IndexConfig
from repro.index.persist import check_replicas
from repro.resilience import DegradationPolicy, ResourceBudget

WORKLOADS: dict[str, tuple[Callable, Callable]] = {}


def _register_workloads() -> None:
    from repro.workloads.bibtex import bibtex_schema, generate_bibtex
    from repro.workloads.logs import generate_log, log_schema
    from repro.workloads.sgml import generate_sgml, sgml_schema
    from repro.workloads.source import generate_source, source_schema

    WORKLOADS["bibtex"] = (bibtex_schema, lambda n, s: generate_bibtex(entries=n, seed=s))
    WORKLOADS["logs"] = (log_schema, lambda n, s: generate_log(entries=n, seed=s))
    WORKLOADS["sgml"] = (sgml_schema, lambda n, s: generate_sgml(documents=n, seed=s))
    WORKLOADS["source"] = (source_schema, lambda n, s: generate_source(functions=n, seed=s))


def _schema_for(name: str):
    _register_workloads()
    try:
        return WORKLOADS[name][0]()
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r} (available: {', '.join(sorted(WORKLOADS))})"
        )


def _at_least(kind: Callable[[str], float], minimum: int) -> Callable[[str], float]:
    """An argparse ``type=`` that parses with ``kind`` and refuses a value
    below ``minimum`` (or NaN) as a usage error, before any engine or
    server sees it."""

    def parse(text: str) -> float:
        value = kind(text)
        if not value >= minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


POSITIVE_INT = _at_least(int, 1)
NON_NEGATIVE_INT = _at_least(int, 0)
NON_NEGATIVE_FLOAT = _at_least(float, 0)


def _policy_from_args(args: argparse.Namespace) -> DegradationPolicy | None:
    if getattr(args, "strict", False):
        return DegradationPolicy.strict()
    if getattr(args, "degrade", False):
        return DegradationPolicy.degrade()
    return None  # the engine default


def _config_from_args(args: argparse.Namespace) -> IndexConfig:
    if getattr(args, "partial", None):
        return IndexConfig.partial(set(args.partial.split(",")))
    return IndexConfig.full()


def _budget_from_args(args: argparse.Namespace) -> ResourceBudget | None:
    ms = getattr(args, "budget_ms", None)
    regions = getattr(args, "budget_regions", None)
    parsed_bytes = getattr(args, "budget_bytes", None)
    if ms is None and regions is None and parsed_bytes is None:
        return None
    return ResourceBudget(
        deadline_s=ms / 1e3 if ms is not None else None,
        max_regions=regions,
        max_bytes_parsed=parsed_bytes,
    )


def _backend_from_args(args: argparse.Namespace):
    """The one place a command line becomes a backend, chosen from what can
    be observed: ``--live`` (or a ``live`` subcommand) opens a
    :class:`~repro.live.LiveEngine`, a sharded ``--index`` (the only kind a
    ``shard`` subcommand accepts) a :class:`~repro.shard.ShardedEngine`,
    anything else a :class:`~repro.core.engine.FileQueryEngine`."""
    from repro.shard.manifest import is_sharded_index

    schema = _schema_for(args.workload)
    index = getattr(args, "index", None)
    options = {
        "cache_config": (
            CacheConfig.disabled() if getattr(args, "no_cache", False) else CacheConfig()
        ),
        "policy": _policy_from_args(args),
    }
    if getattr(args, "live", False):
        from repro.live import LiveEngine

        if not index:
            raise SystemExit("live commands need --index DIR (a saved sharded index)")
        return LiveEngine.open(
            schema,
            index,
            max_shard_bytes=getattr(args, "max_shard_bytes", None),
            ack_quorum=getattr(args, "ack_quorum", None),
            **options,
        )
    if index and (getattr(args, "sharded", False) or is_sharded_index(index)):
        from repro.shard import ShardedEngine

        if getattr(args, "max_parallel", None) is not None:
            options["max_parallel"] = args.max_parallel
        return ShardedEngine.from_saved(
            schema, index, fail_fast=getattr(args, "fail_fast", False), **options
        )
    file = getattr(args, "file", None)
    if index:
        # --file alongside --index names the current source: it enables the
        # staleness check and gives recovery a fresh text to fall back on.
        return FileQueryEngine.from_saved(
            schema, index, source_path=file or None, **options
        )
    if not file:
        raise SystemExit("either --file or --index is required")
    with open(file, "r", encoding="utf-8") as handle:
        text = handle.read()
    return FileQueryEngine(schema, text, _config_from_args(args), **options)


def _cmd_generate(args: argparse.Namespace) -> int:
    _register_workloads()
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    sys.stdout.write(WORKLOADS[args.workload][1](args.entries, args.seed))
    return 0


def _print_warnings(result) -> None:
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)


def _cmd_query(args: argparse.Namespace) -> int:
    engine = _backend_from_args(args)
    result = engine.query(args.query, budget=_budget_from_args(args))
    if getattr(args, "json", False):
        response = query_response(result, QueryRequest(query=args.query))
        print(json.dumps(response.to_dict(), indent=2))
        _print_warnings(result)
        return 0
    for row in result.rows:
        print(" | ".join(render_value(value) for value in row))
    _print_warnings(result)
    stats = result.stats
    if stats.shards:
        footer = (
            f" from {stats.healthy_shards}/{len(stats.shards)} shard(s), "
            f"{stats.retries} retry(ies)"
        )
    else:
        footer = f", strategy {stats.strategy}, {stats.bytes_parsed} bytes parsed"
        if stats.cache_hits or stats.cache_misses:
            footer += (
                f", cache {stats.cache_hits} hit(s)"
                f" ({stats.bytes_parse_avoided} bytes not reparsed)"
            )
    print(f"-- {len(result.rows)} row(s){footer}", file=sys.stderr)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    engine = _backend_from_args(args)
    print(engine.explain(args.query))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    engine = _backend_from_args(args)
    response = AnalyzeResponse.from_analysis(engine.analyze(args.query))
    if getattr(args, "json", False):
        print(json.dumps(response.to_dict(), indent=2))
    else:
        print(response.text)
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    """Build and save an index: a sharded one from ``--files F...`` or
    ``--file F --shards N`` (the only kind ``shard build`` makes), a plain
    one otherwise."""
    replicas = _replicas_from_args(args)
    if not (args.files or args.shards is not None or getattr(args, "sharded", False)):
        engine = _backend_from_args(args)
        engine.save(args.out, source_path=args.file or None, replicas=replicas)
        where = f"{args.out} ({replicas} replica(s))" if replicas else args.out
        print(f"saved index to {where}", file=sys.stderr)
        print(engine.statistics().summary())
        return 0
    from repro.shard import ShardedEngine

    schema = _schema_for(args.workload)
    config = _config_from_args(args)
    if args.files:
        engine = ShardedEngine.from_paths(schema, args.files, config=config)
    elif args.file:
        if not args.shards or args.shards < 1:
            raise SystemExit("--file needs --shards N (how many chunks to cut)")
        with open(args.file, "r", encoding="utf-8") as handle:
            text = handle.read()
        engine = ShardedEngine.split(schema, text, args.shards, config=config)
    else:
        raise SystemExit("either --files F [F ...] or --file F --shards N is required")
    engine.save(args.out, replicas=replicas)
    copies = f", {replicas} replica(s) each" if replicas else ""
    print(
        f"saved sharded index ({len(engine.shard_names)} shard(s){copies}) "
        f"to {args.out}",
        file=sys.stderr,
    )
    for name in engine.shard_names:
        print(f"  {name}", file=sys.stderr)
    return 0


def _cmd_live_append(args: argparse.Namespace) -> int:
    engine = _backend_from_args(args)
    try:
        records: list[str] = list(args.record or [])
        if not records:
            data = sys.stdin.read()
            if args.lines:
                records = [line + "\n" for line in data.splitlines() if line.strip()]
            elif data:
                records = [data]
        if not records:
            raise SystemExit(
                "nothing to append: pass --record TEXT (repeatable) or pipe "
                "records on stdin (--lines for one record per line)"
            )
        last_seq = None
        for record in records:
            last_seq = engine.append(record)
        status = engine.status()
        print(
            f"appended {len(records)} record(s) through seq {last_seq} "
            f"to shard {status['tail']} "
            f"({status['pending_records']} pending, journal "
            f"{status['journal_bytes']} byte(s))",
            file=sys.stderr,
        )
        if args.compact:
            return _print_compaction(engine.compact())
        return 0
    finally:
        engine.close()


def _print_compaction(report: dict) -> int:
    folded = report.get("folded", {})
    if folded:
        for name, count in folded.items():
            print(f"folded {count} record(s) into shard {name}", file=sys.stderr)
    else:
        print("nothing pending; base indexes already current", file=sys.stderr)
    split = report.get("split")
    if split:
        print(
            f"split shard {split['shard']} ({split['bytes']} bytes) into "
            f"{', '.join(split['into'])}",
            file=sys.stderr,
        )
    return 0


def _cmd_live_compact(args: argparse.Namespace) -> int:
    engine = _backend_from_args(args)
    try:
        return _print_compaction(engine.compact())
    finally:
        engine.close()


def _cmd_live_status(args: argparse.Namespace) -> int:
    engine = _backend_from_args(args)
    try:
        status = engine.status()
        if getattr(args, "json", False):
            print(json.dumps(status, indent=2))
            return 0
        print(f"live index at {status['root']}")
        print(
            f"  {len(status['shards'])} shard(s), tail {status['tail']}, "
            f"next seq {status['next_seq']}"
        )
        print(
            f"  {status['pending_records']} pending record(s), "
            f"{status['journal_bytes']} journal byte(s)"
        )
        for shard in status["shards"]:
            print(
                f"  {shard['name']}: applied_seq {shard['applied_seq']}, "
                f"{shard['pending']} pending, journal {shard['journal_bytes']} B"
            )
        return 0
    finally:
        engine.close()


def _replicas_from_args(args: argparse.Namespace) -> int | None:
    replicas = getattr(args, "replicas", None)
    try:
        check_replicas(replicas)  # refuse before anything is built
    except ValueError as error:
        raise SystemExit(f"--{error}") from None
    return replicas


def _cmd_stats(args: argparse.Namespace) -> int:
    engine = _backend_from_args(args)
    response = engine.stats()
    if getattr(args, "json", False):
        print(json.dumps(response.to_dict(), indent=2))
        return 0
    if "per_shard" in response.index:
        print(
            f"shards:            {response.index['shards']} "
            f"({response.index['loaded_shards']} loaded; shards load on first query)"
        )
    else:
        print(engine.statistics().summary())
    print(f"cache:                  {response.cache_config}")
    print(CacheStats(**response.cache).summary())
    return 0


def _cmd_scrub(args: argparse.Namespace) -> int:
    from repro.shard.scrub import scrub_index

    schema = _schema_for(args.workload)
    report = scrub_index(schema, args.index, repair=args.repair)
    if getattr(args, "json", False):
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(
            f"scrubbed {report.shards_checked} shard(s), "
            f"{report.replicas_checked} replica(s): "
            f"{'clean' if report.clean else f'{len(report.findings)} finding(s)'}"
        )
        for finding in report.findings:
            where = finding.shard if finding.replica is None else (
                f"{finding.shard}/{finding.replica}"
            )
            print(f"  {finding.kind:12s} {where}: {finding.detail}")
        for repair in report.repairs:
            where = repair.shard if repair.replica is None else (
                f"{repair.shard}/{repair.replica}"
            )
            print(f"  {repair.action:12s} {where}: {repair.detail}")
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    # Clean pass → 0.  Findings healed in this pass → 0 (the index is
    # healthy *now*).  Unrepaired damage (or --repair not given) → 1.
    if report.clean:
        return 0
    if args.repair and not report.unrepaired:
        return 0
    return 1


def _scrubber_from_args(args: argparse.Namespace):
    interval = getattr(args, "scrub_interval_s", None)
    if not interval:
        return None
    if not getattr(args, "index", None):
        raise SystemExit("--scrub-interval-s needs --index (a saved sharded index)")
    from repro.shard.manifest import is_sharded_index
    from repro.shard.scrub import ScrubDaemon, scrub_index

    if not is_sharded_index(args.index):
        raise SystemExit("--scrub-interval-s needs a *sharded* --index to scrub")
    schema = _schema_for(args.workload)
    return ScrubDaemon(
        lambda: scrub_index(schema, args.index, repair=True),
        interval_s=interval,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.server import QueryServer, ServerConfig

    backend = _backend_from_args(args)
    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        budget=_budget_from_args(args),
        default_page_size=args.page_size,
        max_page_size=args.max_page_size,
        drain_deadline_s=getattr(args, "drain_s", 5.0),
    )
    server = QueryServer(backend, config, scrubber=_scrubber_from_args(args))

    # SIGTERM/SIGINT only set an event: calling server.shutdown() from
    # inside a handler would deadlock against the serve loop it interrupts.
    stop = threading.Event()

    def _on_signal(signum: int, frame: object) -> None:
        stop.set()

    signal.signal(signal.SIGINT, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)
    server.start()
    print(
        f"serving {type(backend).__name__} on {server.url} "
        f"({config.workers} worker(s), queue depth {config.queue_depth}; "
        f"Ctrl-C to stop)",
        file=sys.stderr,
    )
    try:
        while not stop.wait(0.5):
            pass
    finally:
        server.shutdown()
    print("server stopped", file=sys.stderr)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import BACKENDS, SCENARIOS, parse_seeds, render_report, run_matrix

    if args.list_scenarios:
        for name in sorted(SCENARIOS):
            scenario = SCENARIOS[name]
            print(f"{name:16s} [{', '.join(scenario.backends)}]")
            print(f"    {scenario.description}")
            print(f"    injection: {scenario.injection}")
        return 0
    backends = BACKENDS if args.backend == "both" else (args.backend,)
    runs = run_matrix(
        parse_seeds(args.seeds),
        scenarios=args.scenario or None,
        backends=backends,
    )
    print(render_report(runs))
    return 0 if all(run.passed for run in runs) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Query semi-structured files through a database view "
        "(Consens & Milo, SIGMOD 1994).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser, with_query: bool) -> None:
        sub.add_argument("--workload", required=True, help="bibtex | logs | sgml")
        sub.add_argument("--file", help="corpus file to parse and index")
        sub.add_argument(
            "--index",
            help="directory of a saved index (a sharded one is detected and "
            "answered by scatter-gather)",
        )
        sub.add_argument(
            "--partial",
            help="comma-separated non-terminals for a partial region index",
        )
        sub.add_argument(
            "--no-cache",
            action="store_true",
            dest="no_cache",
            help="disable the engine's evaluation/parse caches",
        )
        sub.add_argument(
            "--fail-fast",
            action="store_true",
            dest="fail_fast",
            help="sharded --index: raise a typed ShardFailedError on the first "
            "unhealthy shard instead of returning a partial result",
        )
        sub.add_argument(
            "--max-parallel",
            type=POSITIVE_INT,
            dest="max_parallel",
            help="sharded --index: cap on concurrently evaluating shards "
            "(default 8)",
        )
        mode = sub.add_mutually_exclusive_group()
        mode.add_argument(
            "--strict",
            action="store_true",
            help="fail fast: typed errors on corrupt/stale indexes, "
            "malformed regions, and blown budgets (no fallbacks; a damaged "
            "shard fails instead of degrading to a full scan)",
        )
        mode.add_argument(
            "--degrade",
            action="store_true",
            help="keep answering: full-scan past corrupt/stale indexes and "
            "blown budgets, skip malformed regions (warnings on stderr)",
        )
        if with_query:
            sub.add_argument("query", help="XSQL-subset query text")

    def add_live_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--max-shard-bytes",
            type=int,
            dest="max_shard_bytes",
            help="live engine: split the tail shard during compaction once "
            "its corpus exceeds this many bytes",
        )
        sub.add_argument(
            "--ack-quorum",
            type=int,
            dest="ack_quorum",
            help="live engine over a replicated index: replica journals that "
            "must fsync before an append is acknowledged (default: all)",
        )

    def add_budget(sub: argparse.ArgumentParser, scope: str) -> None:
        sub.add_argument(
            "--budget-ms",
            type=NON_NEGATIVE_FLOAT,
            dest="budget_ms",
            help=f"{scope} wall-clock budget, in milliseconds",
        )
        sub.add_argument(
            "--budget-regions",
            type=NON_NEGATIVE_INT,
            dest="budget_regions",
            help=f"{scope} cap on regions materialized by the algebra evaluator",
        )
        sub.add_argument(
            "--budget-bytes",
            type=NON_NEGATIVE_INT,
            dest="budget_bytes",
            help=f"{scope} cap on file bytes (re-)parsed",
        )

    generate = commands.add_parser("generate", help="emit a synthetic corpus")
    generate.add_argument("--workload", required=True)
    generate.add_argument("--entries", type=int, default=100)
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(handler=_cmd_generate)

    def add_json(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--json",
            action="store_true",
            help="emit machine-readable JSON instead of text",
        )

    query = commands.add_parser("query", help="run a query")
    add_common(query, with_query=True)
    add_json(query)
    add_budget(query, "per-execution (per shard, on a sharded index)")
    query.set_defaults(handler=_cmd_query)

    explain = commands.add_parser("explain", help="show a query's plan")
    add_common(explain, with_query=True)
    explain.set_defaults(handler=_cmd_explain)

    analyze = commands.add_parser(
        "analyze",
        help="run a query and show estimated vs measured costs "
        "(EXPLAIN ANALYZE)",
    )
    add_common(analyze, with_query=True)
    add_json(analyze)
    analyze.set_defaults(handler=_cmd_analyze)

    def add_index_options(sub: argparse.ArgumentParser) -> None:
        add_common(sub, with_query=False)
        sub.add_argument(
            "--files", nargs="+", help="corpus files, one shard per file (sharded)"
        )
        sub.add_argument(
            "--shards",
            type=int,
            help="with --file: cut it into N byte-balanced shards at record "
            "boundaries (sharded)",
        )
        sub.add_argument("--out", required=True, help="output directory")
        sub.add_argument(
            "--replicas",
            type=int,
            help="persist N complete copies of the index (of every shard, "
            "when sharded) under replica-{i}/ dirs; reads fail over between "
            "them and scrub heals damage",
        )

    index = commands.add_parser(
        "index",
        help="build and persist indexes (sharded with --files or --shards)",
    )
    add_index_options(index)
    index.set_defaults(handler=_cmd_index)

    stats = commands.add_parser("stats", help="index statistics")
    add_common(stats, with_query=False)
    add_json(stats)
    stats.set_defaults(handler=_cmd_stats)

    serve = commands.add_parser(
        "serve",
        help="long-lived HTTP query server over a corpus or saved index "
        "(POST /query /explain /analyze, GET /stats /healthz)",
    )
    add_common(serve, with_query=False)
    serve.add_argument(
        "--live",
        action="store_true",
        help="serve a saved sharded --index as a live engine: enables "
        "journaled POST /append next to the query endpoints",
    )
    add_live_options(serve)
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8080, help="bind port (0 picks a free one)"
    )
    serve.add_argument(
        "--workers",
        type=POSITIVE_INT,
        default=4,
        help="concurrently executing requests (the worker pool size)",
    )
    serve.add_argument(
        "--queue-depth",
        type=NON_NEGATIVE_INT,
        dest="queue_depth",
        default=16,
        help="requests allowed to wait past the workers; anything more "
        "is rejected with a structured 429",
    )
    serve.add_argument(
        "--page-size",
        type=POSITIVE_INT,
        dest="page_size",
        help="default rows per response page (unset = everything at once)",
    )
    serve.add_argument(
        "--max-page-size",
        type=POSITIVE_INT,
        dest="max_page_size",
        default=10_000,
        help="largest page a client may request",
    )
    add_budget(
        serve,
        "server-level (each request's quota inherits the deadline; the "
        "caps are split across workers)",
    )
    serve.add_argument(
        "--drain-s",
        type=NON_NEGATIVE_FLOAT,
        dest="drain_s",
        default=5.0,
        help="graceful-shutdown window: how long SIGTERM waits for "
        "in-flight requests before detaching them",
    )
    serve.add_argument(
        "--scrub-interval-s",
        type=float,
        dest="scrub_interval_s",
        help="run a background scrub-and-repair pass over the sharded "
        "--index every N seconds (jittered; findings in GET /stats)",
    )
    serve.set_defaults(handler=_cmd_serve)

    scrub = commands.add_parser(
        "scrub",
        help="verify every replica of every shard (CRC32s + corpus "
        "fingerprints); --repair quarantines damage and heals from a "
        "verified peer or the recorded source",
    )
    scrub.add_argument("--workload", required=True, help="bibtex | logs | sgml")
    scrub.add_argument(
        "--index", required=True, help="directory of a saved sharded index"
    )
    scrub.add_argument(
        "--repair",
        action="store_true",
        help="heal what verification finds: quarantine the damaged copy "
        "(never delete), then copy a verified peer or rebuild from source",
    )
    add_json(scrub)
    scrub.set_defaults(handler=_cmd_scrub)

    chaos = commands.add_parser(
        "chaos",
        help="seed-driven chaos matrix: inject faults (hangs, corruption, "
        "stalls, overload) and verify the degradation contracts hold",
    )
    chaos.add_argument(
        "--seeds",
        default="0..7",
        help="seeds to run: N, N..M, or a comma-separated mix (default 0..7)",
    )
    chaos.add_argument(
        "--scenario",
        action="append",
        help="run only this scenario (repeatable; --list-scenarios to see them)",
    )
    chaos.add_argument(
        "--backend",
        choices=["solo", "sharded", "both"],
        default="both",
        help="engine(s) to drive the scenarios against",
    )
    chaos.add_argument(
        "--list-scenarios",
        action="store_true",
        dest="list_scenarios",
        help="list the registered scenarios and their injection points",
    )
    chaos.set_defaults(handler=_cmd_chaos)

    shard = commands.add_parser(
        "shard",
        help="sharded corpora: one fault-isolated index per file, "
        "scatter-gather queries with partial results",
    )
    shard_commands = shard.add_subparsers(dest="shard_command", required=True)

    build = shard_commands.add_parser(
        "build", help="build and persist one index per shard"
    )
    add_index_options(build)
    build.set_defaults(handler=_cmd_index, sharded=True)

    # `shard build|query|explain|analyze` are the top-level commands under
    # their historical names — same options, same handlers, same output —
    # except that they build or accept only a sharded index.
    shard_query = shard_commands.add_parser(
        "query", help="scatter-gather a query over all shards"
    )
    add_common(shard_query, with_query=True)
    add_json(shard_query)
    add_budget(shard_query, "per-shard")
    shard_query.set_defaults(handler=_cmd_query, sharded=True)

    shard_explain = shard_commands.add_parser(
        "explain", help="show the shared per-shard plan and shard roster"
    )
    add_common(shard_explain, with_query=True)
    shard_explain.set_defaults(handler=_cmd_explain, sharded=True)

    shard_analyze = shard_commands.add_parser(
        "analyze",
        help="EXPLAIN ANALYZE across shards (per-shard stats included)",
    )
    add_common(shard_analyze, with_query=True)
    add_json(shard_analyze)
    shard_analyze.set_defaults(handler=_cmd_analyze, sharded=True)

    live = commands.add_parser(
        "live",
        help="crash-safe live ingestion over a saved sharded index: "
        "journaled appends, delta-segment queries, compaction",
    )
    live_commands = live.add_subparsers(dest="live_command", required=True)

    def add_live_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--workload", required=True, help="bibtex | logs | sgml")
        sub.add_argument(
            "--index", required=True, help="directory of a saved sharded index"
        )
        add_live_options(sub)

    live_append = live_commands.add_parser(
        "append",
        help="durably append records (journaled + fsynced before the ack)",
    )
    add_live_common(live_append)
    live_append.add_argument(
        "--record",
        action="append",
        help="record text to append (repeatable; default: read stdin)",
    )
    live_append.add_argument(
        "--lines",
        action="store_true",
        help="treat each non-blank stdin line as one record (for "
        "line-oriented workloads like logs)",
    )
    live_append.add_argument(
        "--compact",
        action="store_true",
        help="fold the delta into the base indexes after appending",
    )
    live_append.set_defaults(handler=_cmd_live_append, live=True)

    live_compact = live_commands.add_parser(
        "compact",
        help="fold journaled deltas into the base shard indexes "
        "(and split an oversized tail shard)",
    )
    add_live_common(live_compact)
    live_compact.set_defaults(handler=_cmd_live_compact, live=True)

    live_status = live_commands.add_parser(
        "status", help="journal checkpoints and pending delta sizes"
    )
    add_live_common(live_status)
    add_json(live_status)
    live_status.set_defaults(handler=_cmd_live_status, live=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
