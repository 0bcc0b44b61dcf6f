"""Deterministic fault injection for tests.

Every degradation path in the engine must be *exercisable* in CI, not just
theoretically reachable.  This module provides the levers:

- :func:`corrupt_index_file` — damage a saved index on disk (garbage
  bytes, truncation, deletion) so checksum verification and the
  corrupt-index degradation paths fire;
- :class:`FlakySchema` — a structuring-schema wrapper that injects
  mid-parse failures (raise :class:`~repro.errors.ParseError` on chosen
  parse calls) and slow parsing (a fixed delay per parse call), driving
  the tolerant-parsing and wall-clock-budget paths;
- fault hooks, installed with :func:`injected` around the faulted call
  and matching on the names of :func:`~repro.resilience.fault_point`:
  :class:`TransientIOFault` fails the first *K* shard attempts with
  :class:`OSError` (retry/backoff), :class:`SlowShard` delays every shard
  attempt (slow scatter-gather, per-shard deadlines), :class:`HungShard`
  hangs an attempt until the scatter abandons the shard or a ceiling
  elapses (deadline-bounded abandonment), :class:`WorkerStall` stalls
  worker-pool tasks (deadline propagation through queue wait), and
  :func:`crash_at` raises :class:`SimulatedCrash` at one named point.

All injection is deterministic: faults trigger on call counts or point
names, never on randomness, so CI failures reproduce.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.errors import ParseError
from repro.resilience import set_fault_hook

#: The files making up a saved index directory, by part name.
INDEX_PARTS = {
    "corpus": "corpus.txt",
    "regions": "spans.bin",
    "config": "config.json",
    "manifest": "manifest.json",
}

ATTEMPT = "shard:attempt:"
ABANDONED = "shard:abandoned:"


class SimulatedCrash(RuntimeError):
    """Raised by a crash hook to stop the process at a named point."""


@contextmanager
def injected(hook: Callable[[str], None]) -> Iterator[Callable[[str], None]]:
    """Install ``hook`` as the process-wide fault hook for the block.

    The hook sees every engine in the process: put only the faulted call
    inside the block, never a reference answer."""
    previous = set_fault_hook(hook)
    try:
        yield hook
    finally:
        set_fault_hook(previous)


def crash_at(point: str) -> Callable[[str], None]:
    """A hook that raises :class:`SimulatedCrash` at fault point ``point``."""

    def hook(name: str) -> None:
        if name == point:
            raise SimulatedCrash(name)

    return hook


def corrupt_index_file(
    directory: str | Path, part: str = "regions", mode: str = "garbage"
) -> Path:
    """Damage one file of a saved index directory.

    ``part`` is one of ``"corpus"``, ``"regions"``, ``"config"``,
    ``"manifest"``; ``mode`` is:

    - ``"garbage"`` — overwrite a byte span in the middle with ``0xFF``
      (content changes, size preserved: only checksums catch it);
    - ``"truncate"`` — keep the first half (structure breaks);
    - ``"delete"`` — remove the file entirely.

    Returns the damaged path.
    """
    try:
        filename = INDEX_PARTS[part]
    except KeyError:
        raise ValueError(f"unknown index part {part!r} (one of {sorted(INDEX_PARTS)})")
    path = Path(directory) / filename
    if mode == "delete":
        path.unlink()
        return path
    data = path.read_bytes()
    if mode == "truncate":
        path.write_bytes(data[: len(data) // 2])
        return path
    if mode == "garbage":
        middle = len(data) // 2
        span = max(1, min(16, len(data) - middle))
        path.write_bytes(data[:middle] + b"\xff" * span + data[middle + span :])
        return path
    raise ValueError(f"unknown corruption mode {mode!r}")


class FlakySchema:
    """A structuring-schema wrapper injecting parse-time faults.

    Delegates everything to the wrapped schema; ``parse`` additionally

    - sleeps ``delay_s`` per call (slow-operator injection), and
    - raises :class:`ParseError` when ``fail_when(call_index, start, end)``
      returns true (mid-parse failure injection), where ``call_index``
      counts parse calls from 0.

    Use ``fail_calls={2, 5}`` as a shorthand for failing specific calls.
    """

    def __init__(
        self,
        schema: Any,
        fail_when: Callable[[int, int, int | None], bool] | None = None,
        fail_calls: set[int] | None = None,
        delay_s: float = 0.0,
    ) -> None:
        self._schema = schema
        self._fail_when = fail_when
        self._fail_calls = fail_calls if fail_calls is not None else set()
        self._delay_s = delay_s
        self.parse_calls = 0

    def __getattr__(self, name: str) -> Any:
        return getattr(self._schema, name)

    def parse(self, text, symbol=None, start=0, end=None, counters=None):
        call_index = self.parse_calls
        self.parse_calls += 1
        if self._delay_s:
            time.sleep(self._delay_s)
        if call_index in self._fail_calls or (
            self._fail_when is not None and self._fail_when(call_index, start, end)
        ):
            raise ParseError(
                f"injected fault on parse call {call_index}",
                position=start,
                symbol=symbol if symbol is not None else self._schema.grammar.start,
            )
        return self._schema.parse(
            text, symbol=symbol, start=start, end=end, counters=counters
        )


def _attempted_shard(point: str, shard: str | None) -> str | None:
    """The shard a ``shard:attempt:{shard}`` point names, when it matches
    ``shard`` (``None`` matches every shard); ``None`` otherwise."""
    if not point.startswith(ATTEMPT):
        return None
    name = point[len(ATTEMPT) :]
    return name if shard is None or name == shard else None


class TransientIOFault:
    """Fails the first ``k`` matching shard attempts with :class:`OSError`,
    then passes forever — the canonical *transient* failure.

    Every attempt (retries included) passes ``shard:attempt:{shard}``, so
    ``TransientIOFault(k=2)`` under a 3-attempt retry policy fails twice
    and succeeds on the third try.  ``shard`` restricts injection to one
    shard; ``None`` matches all.
    """

    def __init__(self, k: int, shard: str | None = None) -> None:
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k!r}")
        self.k = k
        self.shard = shard
        self.calls = 0
        self.failures = 0

    def __call__(self, point: str) -> None:
        name = _attempted_shard(point, self.shard)
        if name is None:
            return
        self.calls += 1
        if self.failures < self.k:
            self.failures += 1
            raise OSError(
                f"injected transient I/O fault ({self.failures}/{self.k}) "
                f"on shard {name!r}"
            )


class SlowShard:
    """Delays every matching shard attempt by ``delay_s`` — deterministic
    scatter-gather slowness (one straggler must not stall healthy shards'
    results, and deadline budgets must fire per shard)."""

    def __init__(self, delay_s: float, shard: str | None = None) -> None:
        if delay_s < 0:
            raise ValueError(f"delay_s must be non-negative, got {delay_s!r}")
        self.delay_s = delay_s
        self.shard = shard
        self.calls = 0

    def __call__(self, point: str) -> None:
        if _attempted_shard(point, self.shard) is None:
            return
        self.calls += 1
        time.sleep(self.delay_s)


class HungShard:
    """Hangs every matching shard attempt for up to ``hang_s`` — the
    canonical *stuck I/O* failure, which no retry or budget meter can
    interrupt from inside the attempt.

    Unlike a bare ``time.sleep`` the hang is *releasable*: when the scatter
    abandons a hung shard at the request deadline it passes
    ``shard:abandoned:{shard}``, which sets :attr:`released`, so the stuck
    thread wakes immediately, raises, and returns its pool slot instead of
    lingering for the full ceiling.
    """

    def __init__(self, hang_s: float, shard: str | None = None) -> None:
        if hang_s < 0:
            raise ValueError(f"hang_s must be non-negative, got {hang_s!r}")
        self.hang_s = hang_s
        self.shard = shard
        self.calls = 0
        self.released = threading.Event()

    def __call__(self, point: str) -> None:
        if point.startswith(ABANDONED):
            self.released.set()
            return
        name = _attempted_shard(point, self.shard)
        if name is None:
            return
        self.calls += 1
        if self.released.wait(self.hang_s):
            raise OSError(f"hung attempt on shard {name!r} released after abandonment")


class WorkerStall:
    """Stalls the first ``k`` worker-pool tasks (``pool:task``) by
    ``stall_s`` before the submitted callable runs (``k=None`` stalls
    every task).

    Exercises end-to-end deadline semantics — the stall happens *after*
    admission, so it consumes the request's minted deadline rather than
    re-arming it.  ``stalling`` is set just before the first stall sleeps,
    so a caller can wait until a request is occupying its worker instead
    of guessing with a sleep.
    """

    def __init__(self, stall_s: float, k: int | None = None) -> None:
        if stall_s < 0:
            raise ValueError(f"stall_s must be non-negative, got {stall_s!r}")
        if k is not None and k < 0:
            raise ValueError(f"k must be non-negative, got {k!r}")
        self.stall_s = stall_s
        self.k = k
        self.calls = 0
        self.stalling = threading.Event()
        self._lock = threading.Lock()

    def __call__(self, point: str) -> None:
        if point != "pool:task":
            return
        with self._lock:
            self.calls += 1
            stall = self.k is None or self.calls <= self.k
        if stall:
            self.stalling.set()
            time.sleep(self.stall_s)
