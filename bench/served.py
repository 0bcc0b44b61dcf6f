"""The served pass: `repro serve` as a child process, driven closed-loop.

This is where every end-to-end metric comes from.  The server is spawned
exactly as a user would start it, reached over HTTP on keep-alive
connections with the stdlib client's default socket options, and always
torn down.  Tracing is off; nothing in this module reaches into the
server process.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

from repro.api import render_rows
from repro.live import LiveEngine

from bench import SRC_DIR
from bench.oracle import Oracle, envelope_fault, page_fault
from bench.stats import percentile_or_none
from bench.workloads import CLIENTS, ClientStream, Op, Prepared, warmup_ops

WORKERS = 2
QUEUE_DEPTH = 16
DRAIN_S = 2.0
READY_TIMEOUT_S = 120.0
REQUEST_TIMEOUT_S = 60.0
WARMUP_TIMEOUT_S = 120.0

_SERVING = re.compile(r"serving \w+ on http://127\.0\.0\.1:(\d+)")


class ServerFailed(RuntimeError):
    """The server exited, or never answered, before it was ready."""


class Server:
    """One ``python -m repro serve`` child.  Use as a context manager: the
    child is stopped (SIGTERM, wait out the drain, then kill) on success,
    failure and Ctrl-C alike."""

    def __init__(self, serve_args: list[str], log_path: Path) -> None:
        self._args = [
            sys.executable, "-m", "repro", "serve", *serve_args,
            "--port", "0",
            "--workers", str(WORKERS),
            "--queue-depth", str(QUEUE_DEPTH),
            "--drain-s", str(DRAIN_S),
        ]  # fmt: skip
        self._log_path = log_path
        self._process: subprocess.Popen | None = None
        self.port = 0

    def __enter__(self) -> "Server":
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        log = open(self._log_path, "ab")
        self._log_offset = log.tell()
        started = perf_counter()
        try:
            self._process = subprocess.Popen(
                self._args, stdout=subprocess.DEVNULL, stderr=log, env=env
            )
        finally:
            log.close()
        self._started = started
        return self

    def __exit__(self, *exc_info: object) -> None:
        process = self._process
        if process is None or process.poll() is not None:
            return
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=DRAIN_S + 5.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()

    def _log_tail(self) -> str:
        with open(self._log_path, "rb") as log:
            log.seek(self._log_offset)
            return log.read().decode("utf-8", "replace")

    def wait_ready(self, probe: Op) -> float:
        """Block until ``probe`` (a query that touches every shard) gets
        its first 200; returns seconds since the spawn — index build or
        load, lazy shard and replica loads and journal replay included."""
        deadline = self._started + READY_TIMEOUT_S
        while not self.port:
            match = _SERVING.search(self._log_tail())
            if match:
                self.port = int(match.group(1))
            elif self._process.poll() is not None:
                raise ServerFailed(f"server exited {self._process.returncode}:\n{self._log_tail()}")
            elif perf_counter() > deadline:
                raise ServerFailed(f"server not listening after {READY_TIMEOUT_S}s")
            else:
                time.sleep(0.005)
        connection = connect(self.port)
        try:
            status, payload = post(connection, probe)
        finally:
            connection.close()
        if status != 200:
            raise ServerFailed(f"probe query answered {status}: {payload}")
        return perf_counter() - self._started

    def peak_rss_mb(self) -> float:
        """The child's peak resident set (``VmHWM``), read while it is
        still alive."""
        status = Path(f"/proc/{self._process.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0


def connect(port: int) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)


_HEADERS = {"Content-Type": "application/json"}


def post(connection: http.client.HTTPConnection, op: Op) -> tuple[int, dict[str, Any]]:
    connection.request("POST", op.path, body=json.dumps(op.body).encode("utf-8"), headers=_HEADERS)
    response = connection.getresponse()
    return response.status, json.loads(response.read())


@dataclass
class Sample:
    """One measured operation."""

    op: Op
    status: int
    payload: dict[str, Any]
    latency_s: float  # send -> body read
    client_s: float  # the generator's own time around the round trip


def _client_loop(
    port: int, warmup: list[Op], stream: ClientStream, barrier: threading.Barrier,
    deadline: list[float], warm_statuses: list[int], samples: list[Sample],
) -> None:  # fmt: skip
    connection = connect(port)
    try:
        try:
            for op in warmup:
                warm_statuses.append(post(connection, op)[0])
        finally:
            barrier.wait()
        while True:
            began = perf_counter()
            if began >= deadline[0]:
                return
            op = stream.next_op()
            body = json.dumps(op.body).encode("utf-8")
            sent = perf_counter()
            try:
                connection.request("POST", op.path, body=body, headers=_HEADERS)
                response = connection.getresponse()
                data = response.read()
                received = perf_counter()
                status, payload = response.status, json.loads(data)
            except (OSError, http.client.HTTPException, ValueError) as error:
                received = perf_counter()
                status, payload = 0, {"ok": False, "error": repr(error)}
                connection.close()  # reconnects on the next request
            payload.pop("stats", None)  # checked fields only; keeps memory flat
            stream.observe(op, payload)
            done = perf_counter()
            samples.append(
                Sample(op, status, payload, received - sent, (sent - began) + (done - received))
            )
    finally:
        connection.close()


def closed_loop(
    port: int, prepared: Prepared, seconds: float
) -> tuple[list[int], list[Sample], float]:
    """Drive the server from ``CLIENTS`` threads, each on its own
    keep-alive connection, each sending its next request only after the
    previous reply: first the warm-up (shared out between the clients, not
    timed), then ``seconds`` of measured operations.  Returns the warm-up
    statuses, the samples and the measured wall time."""
    if CLIENTS > (os.cpu_count() or 1):
        raise RuntimeError(f"{CLIENTS} clients need as many cores, have {os.cpu_count()}")
    warmup = warmup_ops(prepared)
    warm_statuses: list[int] = []
    per_client: list[list[Sample]] = [[] for _ in range(CLIENTS)]
    deadline = [0.0]  # set once every client is warm
    barrier = threading.Barrier(CLIENTS + 1)
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(
                port, warmup[client::CLIENTS], ClientStream(prepared, client), barrier,
                deadline, warm_statuses, per_client[client],
            ),
            name=f"bench-client-{client}",
        )  # fmt: skip
        for client in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    try:
        started = perf_counter()
        deadline[0] = started + seconds + WARMUP_TIMEOUT_S
        barrier.wait(timeout=WARMUP_TIMEOUT_S)
        started = perf_counter()
        deadline[0] = started + seconds
    finally:
        for thread in threads:
            thread.join(timeout=WARMUP_TIMEOUT_S + seconds + REQUEST_TIMEOUT_S)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a client thread did not finish")
    wall = perf_counter() - started
    return warm_statuses, [sample for samples in per_client for sample in samples], wall


@dataclass
class ServedResult:
    """What one served pass measured."""

    metrics: dict[str, float | None]
    attempted: int
    failed: int
    faults: list[str] = field(default_factory=list)  # first few, for the log


def run_served(
    prepared: Prepared, oracle: Oracle, seconds: float, spawns: int, out_dir: Path, workdir: Path
) -> ServedResult:
    """Spawn the server ``spawns`` times — set-up time is the median; all
    but the last are stopped once they answer — then warm the last one up,
    measure it for ``seconds``, stop it, and check every answer."""
    spec = prepared.spec
    index_dir = prepared.copy_index(workdir / "served-index") if spec.live else prepared.index_dir
    disk_bytes = prepared.disk_bytes()
    log_path = out_dir / f"{spec.name}.server.log"
    probe = Op("/query", {"query": prepared.pool[0], "page_size": 1})
    setups = []
    for spawn in range(spawns):
        with Server(prepared.serve_args(index_dir), log_path) as server:
            setups.append(server.wait_ready(probe))
            if spawn == spawns - 1:
                warm, samples, wall = closed_loop(server.port, prepared, seconds)
                peak_rss_mb = server.peak_rss_mb()
    faults = [f"warm-up: status {status}" for status in warm if status != 200]
    faults += ["warm-up: request not answered"] * (len(warmup_ops(prepared)) - len(warm))
    faults += _check(prepared, oracle, samples, index_dir)
    attempted = len(samples) + len(warm)
    failed = min(attempted, len(faults))
    queries = [s.latency_s * 1e3 for s in samples if s.op.path == "/query"]
    appends = [s.latency_s * 1e3 for s in samples if s.op.path == "/append"]
    metrics: dict[str, float | None] = {
        "setup_s": statistics.median(setups),
        "throughput_rps": (len(samples) - min(len(samples), len(faults))) / wall,
        "query_p50_ms": percentile_or_none(queries, 50),
        "peak_rss_mb": peak_rss_mb,
        "index_bytes_per_corpus_byte": disk_bytes / prepared.corpus_bytes,
        "failed_share": failed / attempted,
        "client.query_p90_ms": percentile_or_none(queries, 90),
        "client.query_p95_ms": percentile_or_none(queries, 95),
        "client.query_p99_ms": percentile_or_none(queries, 99),
        "client.append_p50_ms": percentile_or_none(appends, 50),
        "client.append_p90_ms": percentile_or_none(appends, 90),
        "client.query_samples": len(queries),
        "client.append_samples": len(appends),
        "client.measured_s": wall,
        "bench.client_self_ms": statistics.fmean(s.client_s for s in samples) * 1e3,
    }
    return ServedResult(metrics, attempted, failed, faults[:5])


def _check(
    prepared: Prepared, oracle: Oracle, samples: list[Sample], index_dir: Path | None
) -> list[str]:
    """One entry per failed operation: a bad envelope, rows that differ
    from the oracle, or (live) an acknowledged append missing after the
    restart."""
    faults: list[str] = []
    if not prepared.spec.live:
        for sample in samples:
            fault = envelope_fault(sample.status, sample.payload) or page_fault(
                oracle, sample.op.query, sample.payload
            )
            if fault:
                faults.append(f"{sample.op.body}: {fault}")
        return faults
    # Live: rows grow while the clients run, so a mid-run answer is held
    # to its envelope and to the row counts before and after; exactness
    # is checked on the restarted engine against a rebuild.
    acked = sorted(
        (sample.payload["seq"], sample.op.record)
        for sample in samples
        if sample.op.record is not None and sample.status == 200 and sample.payload.get("ok")
    )
    low = {query: len(oracle.rows(query)) for query in prepared.pool}
    oracle = oracle.fork()
    oracle.extend("".join(record for _, record in acked))
    for sample in samples:
        fault = envelope_fault(sample.status, sample.payload)
        if fault is None and sample.op.query is not None:
            total, high = sample.payload.get("total_rows", -1), len(oracle.rows(sample.op.query))
            if not low[sample.op.query] <= total <= high:
                fault = f"total_rows {total} outside [{low[sample.op.query]}, {high}]"
        if fault:
            faults.append(f"{sample.op.body}: {fault}")
    reopened = LiveEngine.open(prepared.schema, index_dir)
    try:
        for query in prepared.pool:
            if render_rows(reopened.query(query).rows) != oracle.rows(query):
                faults.append(f"after restart, live != rebuild for {query}")
        stamps = {row[0] for row in render_rows(reopened.query(_TIMES_QUERY).rows)}
        for seq, record in acked:
            if record.split("] ", 1)[0].rsplit(" ", 1)[1] not in stamps:
                faults.append(f"acknowledged append seq {seq} missing after restart")
    finally:
        reopened.close()
    return faults


#: Every entry's time of day — unique per record, so one query shows which
#: acknowledged appends survived the restart.
_TIMES_QUERY = "SELECT e.Timestamp.Time FROM Entry e"
