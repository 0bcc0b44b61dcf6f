"""A bounded worker pool with an explicit queue-depth cap.

``concurrent.futures.ThreadPoolExecutor`` queues without bound — exactly
wrong for a server under admission control, where "full" must be a fast
structured rejection, not a silently growing backlog.  This pool owns a
``queue.Queue(maxsize=...)`` and N long-lived worker threads;
:meth:`WorkerPool.submit` never blocks: a full queue raises
:class:`~repro.errors.ServerOverloadedError` immediately.

(The :class:`~repro.server.admission.AdmissionController` normally rejects
before the queue can fill; the pool's own cap is the backstop that makes
the bound true even if a caller bypasses admission.)

Shutdown is :meth:`WorkerPool.drain`: finish what is *executing*, fail
what is merely *queued* with a typed
:class:`~repro.errors.ServerDrainingError`, all bounded by a drain
deadline.  The server's SIGTERM path uses it: active queries complete,
queued-but-unstarted ones get structured 503s.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from time import perf_counter
from typing import Any, Callable

from repro.errors import ServerDrainingError, ServerOverloadedError
from repro.resilience.fault import fault_point

#: Sentinel telling a worker thread to exit.
_STOP = object()


class WorkerPool:
    """N worker threads draining one bounded queue of callables.

    The ``pool:task`` fault point lies at the start of every execution —
    *after* the item left the queue, so an injected stall consumes the
    request's admission-minted deadline exactly like a real scheduling
    delay would.
    """

    def __init__(
        self,
        workers: int,
        queue_depth: int,
        name: str = "repro-server",
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        if queue_depth < 0:
            raise ValueError(f"queue_depth must be >= 0, got {queue_depth!r}")
        self.workers = workers
        self.queue_depth = queue_depth
        # Executing work occupies a worker, not a queue slot, so the queue
        # holds at most queue_depth waiting items plus one per worker in
        # the instant between get() and execution; size accordingly.
        self._queue: "queue.Queue[Any]" = queue.Queue(maxsize=workers + queue_depth)
        self._shutdown = False
        self._lock = threading.Lock()
        self._threads = [
            threading.Thread(
                target=self._run, name=f"{name}-worker-{number}", daemon=True
            )
            for number in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    def submit(self, fn: Callable[[], Any]) -> "Future[Any]":
        """Enqueue ``fn`` for execution; returns its future.  Raises
        :class:`~repro.errors.ServerOverloadedError` when the queue is
        full and after :meth:`drain`."""
        with self._lock:
            if self._shutdown:
                raise ServerOverloadedError("server is shutting down")
            future: "Future[Any]" = Future()
            try:
                self._queue.put_nowait((future, fn))
            except queue.Full:
                raise ServerOverloadedError(
                    f"worker queue full ({self.workers} worker(s), "
                    f"queue depth {self.queue_depth})"
                ) from None
        return future

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            future, fn = item
            if not future.set_running_or_notify_cancel():
                continue
            try:
                fault_point("pool:task")
                future.set_result(fn())
            except BaseException as error:  # noqa: BLE001 — future boundary
                future.set_exception(error)

    def drain(self, deadline_s: float = 5.0) -> bool:
        """Graceful shutdown: stop accepting, fail queued-but-unstarted
        work with :class:`~repro.errors.ServerDrainingError`, and give
        work already *executing* up to ``deadline_s`` to finish.

        Returns ``True`` when every worker exited within the deadline
        (``False`` means an in-flight request outlived the drain window —
        its worker thread is a daemon, so the process can still exit).
        Idempotent.
        """
        with self._lock:
            self._shutdown = True
        # Flush the backlog: anything still queued never started, so a
        # typed rejection is safe — the client can retry with no risk of
        # double execution.  (A worker racing us to an item simply runs
        # it; that item counts as in-flight.)
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _STOP:
                continue
            future, _fn = item
            if future.set_running_or_notify_cancel():
                future.set_exception(
                    ServerDrainingError(
                        "request was queued but not started before shutdown"
                    )
                )
        for _ in self._threads:
            self._queue.put(_STOP)
        end = perf_counter() + max(0.0, deadline_s)
        for thread in self._threads:
            thread.join(timeout=max(0.0, end - perf_counter()))
        return not any(thread.is_alive() for thread in self._threads)
