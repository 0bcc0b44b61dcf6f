"""``python3 -m bench``: run the benchmark, or compare two result files.

::

    python3 -m bench                       # all four workloads, both passes
    python3 -m bench --smoke               # the same, tiny, still checked
    python3 -m bench --workload cold-read --seed 3 --seconds 10 --trace 0
    python3 -m bench diff A.json B.json

With ``--workload`` the last line of standard output is the one-object
result a driver reads: ``--trace 0`` carries the end-to-end metrics of the
served pass, ``--trace 1`` the per-layer metrics of the traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: The generator may not spend more than this share of a query's median
#: round trip on itself, or the numbers describe the generator.
CLIENT_SELF_LIMIT = 0.2


def manifest() -> dict[str, Any]:
    """``BENCHMARK.json``: the one list of workloads and tracked metrics,
    with units and regression bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()  # fmt: skip
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_workload(
    name: str, seed: int, seconds: float, spawns: int, traced: bool, smoke: bool
) -> dict[str, Any]:
    """Prepare one workload, run its passes, and return its result record."""
    from bench.oracle import Oracle
    from bench.served import run_served
    from bench.traced import run_traced
    from bench.workloads import WORKLOADS, op_sequence_digest, prepare

    spec = WORKLOADS[name]
    if smoke:
        spec = replace(
            spec,
            entries=spec.entries // 4,
            preload_frames=spec.preload_frames // 4,
            warmup_ops=None if spec.warmup_ops is None else spec.warmup_ops // 5,
            traced_ops=max(8, spec.traced_ops // 5),
        )
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    phases: dict[str, float] = {}
    clock = perf_counter()

    def lap(phase: str) -> None:
        nonlocal clock
        phases[phase], clock = perf_counter() - clock, perf_counter()

    try:
        prepared = prepare(spec, seed, workdir)
        lap("prepare_s")
        oracle = Oracle.over(prepared.schema, prepared.text + "".join(prepared.preloaded))
        lap("oracle_s")
        served = run_served(prepared, oracle, seconds, spawns, OUT_DIR, workdir)
        lap("served_s")
        metrics, notes, faults = dict(served.metrics), [], list(served.faults)
        attempted, failed = served.attempted, served.failed
        if traced:
            layer_metrics, notes, replay_faults = run_traced(
                prepared, oracle, served.metrics["query_p50_ms"], OUT_DIR, workdir
            )
            metrics.update(layer_metrics)
            attempted += 3 * spec.traced_ops
            failed += len(replay_faults)
            faults += replay_faults[:5]
            lap("traced_s")
        p50, client = metrics["query_p50_ms"], metrics["bench.client_self_ms"]
        generator_ok = not p50 or client <= CLIENT_SELF_LIMIT * p50
        if not generator_ok:
            notes.append(
                f"generator-too-slow: {client:.3f} ms of its own per op against a "
                f"{p50:.3f} ms median query"
            )
        return {
            "workload": name,
            "why": spec.why,
            "seed": seed,
            "corpus_sha256": prepared.corpus_sha256,
            "corpus_bytes": prepared.corpus_bytes,
            "op_sequence_digest": op_sequence_digest(prepared),
            "attempted": attempted,
            "failed": failed,
            "generator_ok": generator_ok,
            "faults": faults,
            "notes": notes,
            "phases": phases,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _show(record: dict[str, Any], units: dict[str, str]) -> None:
    print(f"\n== {record['workload']} (seed {record['seed']}) ==")
    print(f"   {record['why']}")
    for name, value in record["metrics"].items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<40} {shown:>14} {units.get(name, '')}")
    print("  phases: " + ", ".join(f"{k} {v:.1f}" for k, v in record["phases"].items()))
    for note in record["notes"] + record["faults"]:
        print(f"  ! {note}")


def _contract_line(record: dict[str, Any], listed: list[dict[str, Any]]) -> str:
    """The driver's result object.  It admits only numbers: a metric that
    is ``null`` here (a layer this workload does not cross, or a boundary
    that no longer resolves — the notes say which) is written as 0."""
    return json.dumps(
        {
            "correct": record["failed"] == 0 and record["generator_ok"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                metric["name"]: {
                    "value": record["metrics"].get(metric["name"]) or 0,
                    "unit": metric["unit"],
                }
                for metric in listed
            },
        }
    )


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["diff"]:
        from bench.diff import main as diff_main

        return diff_main(argv[1:])
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench measures the repository it sits in: no src/repro in {ROOT}", file=sys.stderr)
        return 2
    spec = manifest()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__.split("\n")[0])
    add = parser.add_argument
    add("--workload", choices=names, help="run one workload; end with the driver's result line")
    add("--seed", type=int, default=17)
    add("--seconds", type=float, default=float(spec["run_seconds"]), help="length of a served pass")
    add("--trace", type=int, choices=(0, 1), help="with --workload: 1 adds the traced pass")
    add("--repeat", type=int, default=1, help="run everything this many times (diff wants sets)")
    add("--out", type=Path, default=OUT_DIR / "BENCH.json", help="result file")
    add("--smoke", action="store_true", help="tiny inputs, half a second; still checked")
    args = parser.parse_args(argv)
    traced = args.workload is None or args.trace == 1
    # Set-up time is gated by the served-only runs; where a traced pass
    # follows anyway, one spawn is enough.
    spawns = 1 if args.smoke or args.trace == 1 else 3
    if args.smoke:
        args.seconds = min(args.seconds, 0.5)

    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"] + spec["per_layer"]}
    records = [
        run_workload(name, args.seed, args.seconds, spawns, traced, args.smoke)
        for _ in range(args.repeat)
        for name in ([args.workload] if args.workload else names)
    ]
    for record in records:
        _show(record, units)
    summary = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "units": units,
        "end_to_end": spec["end_to_end"],
        "workloads": records,
        "claim": None,
    }
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"\nwrote {args.out}")
    print('"claim": null')
    if args.workload:
        print(_contract_line(records[0], spec["per_layer" if args.trace == 1 else "end_to_end"]))
    return 1 if any(record["failed"] or not record["generator_ok"] for record in records) else 0


if __name__ == "__main__":
    sys.exit(main())
