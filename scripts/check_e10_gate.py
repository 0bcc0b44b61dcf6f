#!/usr/bin/env python3
"""The E10 regression gate: the optimizer must not lose under calibration.

E10's ablation exposed multi-join queries where the Section 3.2 rewrite
chain, ranked by static operator weights alone, picked plans that did
*more* work than the unoptimized pipeline.  The feedback-calibrated cost
model exists to close that gap, so this gate asserts — on deterministic
work counters, not wall time — that once calibration has warmed up:

1. with-optimizer work <= without-optimizer work (ratio >= 1.0x) for the
   E10 multi-join and single-join pipelines;
2. rows are identical between the calibrated and uncalibrated engines
   (calibration may change *plans*, never *answers*);
3. the extended EXPLAIN ANALYZE JSON (estimated_rows per node, replans in
   stats) still conforms to ``schemas/analyze.schema.json``.

Run it directly (CI smoke job)::

    PYTHONPATH=src python scripts/check_e10_gate.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from check_schema import ANALYZE_SCHEMA_PATH as SCHEMA_PATH, validate  # noqa: E402

import json  # noqa: E402

from repro.cache import CacheConfig  # noqa: E402
from repro.core.engine import FileQueryEngine  # noqa: E402
from repro.workloads.bibtex import (  # noqa: E402
    CHANG_AUTHOR_QUERY,
    bibtex_schema,
    generate_bibtex,
)

CITATION_JOIN = (
    "SELECT r1.Key, r2.Key FROM Reference r1, Reference r2 "
    "WHERE r1.Referred.RefKey = r2.Key "
    'AND r2.Authors.Name.Last_Name = "Chang"'
)

ENTRIES = 400
SEED = 11
CALIBRATION_ROUNDS = 3


def _work(engine: FileQueryEngine, query: str) -> tuple[int, set]:
    """Deterministic work for one cache-cold run: region comparisons plus
    bytes (re-)parsed, alongside the canonical answer."""
    result = engine.query(query)
    algebra = result.stats.algebra.snapshot()
    work = algebra["comparisons"] + result.stats.bytes_parsed
    return work, result.canonical_rows()


def main() -> int:
    text = generate_bibtex(entries=ENTRIES, seed=SEED)
    schema = bibtex_schema()
    # Caches off everywhere: the gate measures plans, not memoization.
    no_cache = CacheConfig.disabled()

    calibrated = FileQueryEngine(
        schema, text, cache_config=no_cache, feedback=True
    )
    unoptimized = FileQueryEngine(
        schema,
        text,
        optimize_expressions=False,
        cache_config=no_cache,
    )
    uncalibrated = FileQueryEngine(schema, text, cache_config=no_cache)

    # Warm the calibration history the way production does: EXPLAIN
    # ANALYZE runs feed per-node estimate-vs-actual deltas.
    for _ in range(CALIBRATION_ROUNDS):
        for query in (CHANG_AUTHOR_QUERY, CITATION_JOIN):
            calibrated.analyze(query)
    if not calibrated.cost_model.calibrated:
        print("E10 gate: calibration never warmed up", file=sys.stderr)
        return 1

    failures = []
    for label, query in (
        ("pipeline", CHANG_AUTHOR_QUERY),
        ("multi-join", CITATION_JOIN),
    ):
        with_work, with_rows = _work(calibrated, query)
        without_work, without_rows = _work(unoptimized, query)
        _, cold_rows = _work(uncalibrated, query)
        ratio = without_work / with_work if with_work else float("inf")
        print(
            f"E10 {label}: with-optimizer(calibrated) work={with_work}, "
            f"without-optimizer work={without_work}, ratio={ratio:.2f}x"
        )
        if ratio < 1.0:
            failures.append(
                f"{label}: calibrated optimizer does MORE work than no "
                f"optimizer (ratio {ratio:.2f}x < 1.0x)"
            )
        if with_rows != without_rows:
            failures.append(f"{label}: rows differ between plans")
        if with_rows != cold_rows:
            failures.append(
                f"{label}: calibration changed the answer, not just the plan"
            )

    analysis = calibrated.analyze(CITATION_JOIN).to_dict()
    schema_doc = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
    violations = validate(analysis, schema_doc)
    if violations:
        failures.extend(f"analyze schema: {message}" for message in violations)
    else:
        print("E10 gate: extended analyze JSON conforms to the schema")
    if any(node["estimated_rows"] is None for node in analysis["nodes"]):
        failures.append("analyze nodes missing estimated_rows")

    if failures:
        for message in failures:
            print(f"E10 gate FAILED: {message}", file=sys.stderr)
        return 1
    print("E10 gate passed: calibrated optimizer >= 1.0x, answers identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
