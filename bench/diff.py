"""``python3 -m bench diff A.json B.json``: is B worse than A?

One row per (workload, end-to-end metric): A's and B's medians over the
runs each file holds, their ratio with its base, the metric's bound, and a
verdict — ``worse`` when B's median is beyond the bound, ``unresolved``
when either side's own run-to-run spread is wider than the bound (the runs
cannot tell), ``ok`` otherwise.  Files measured on different inputs are not
compared at all.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any

from bench.stats import spread


class NotComparable(ValueError):
    """The two files did not measure the same inputs."""


def _values(result: dict[str, Any]) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> one value per run`` for the bounded metrics."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for record in result["workloads"]:
        for metric in result["end_to_end"]:
            value = record["metrics"].get(metric["name"])
            if value is not None:
                values[record["workload"], metric["name"]].append(value)
    return values


def _digests(result: dict[str, Any]) -> dict[str, set[str]]:
    digests: dict[str, set[str]] = defaultdict(set)
    for record in result["workloads"]:
        digests[record["workload"]].add(record["corpus_sha256"])
    return digests


def compare(before: dict[str, Any], after: dict[str, Any]) -> list[dict[str, Any]]:
    """The rows of the table; metric units, directions and bounds are B's."""
    theirs, ours = _digests(before), _digests(after)
    for workload in sorted(set(theirs) & set(ours)):
        if theirs[workload] != ours[workload]:
            raise NotComparable(
                f"{workload}: corpus digests differ ({sorted(theirs[workload])} vs "
                f"{sorted(ours[workload])}); rerun both sides with one seed"
            )
    rows = []
    base, new = _values(before), _values(after)
    listed = {metric["name"]: metric for metric in after["end_to_end"]}
    for key in sorted(set(base) & set(new)):
        workload, metric = key
        bound = listed[metric]["bound"]
        a, b = statistics.median(base[key]), statistics.median(new[key])
        ratio = b / a if a else float("inf")
        lower = listed[metric]["better"] == "lower"
        worse = ratio > 1 + bound if lower else ratio < 1 - bound
        widest = max(spread(base[key]), spread(new[key]))
        rows.append(
            {
                "workload": workload,
                "metric": metric,
                "unit": listed[metric]["unit"],
                "a": a,
                "b": b,
                "runs": (len(base[key]), len(new[key])),
                "ratio": ratio,
                "spread": widest,
                "bound": bound,
                "verdict": "unresolved" if widest > bound else "worse" if worse else "ok",
            }
        )
    return rows


def render(rows: list[dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<13} {'metric':<28} {'A (base)':>12} {'B':>12} {'B/A':>7} "
        f"{'spread':>7} {'bound':>6}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<13} {row['metric']:<28} {row['a']:>12.6g} {row['b']:>12.6g} "
            f"{row['ratio']:>7.3f} {row['spread']:>7.3f} {row['bound']:>6.2f}  {row['verdict']}"
            f"  [{row['unit']}; n={row['runs'][0]}/{row['runs'][1]}]"
        )
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 -m bench diff A.json B.json", file=sys.stderr)
        return 2
    before, after = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    try:
        rows = compare(before, after)
    except NotComparable as error:
        print(f"refusing to compare: {error}", file=sys.stderr)
        return 2
    print(render(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0
