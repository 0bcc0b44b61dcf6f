"""Admission control and the bounded worker pool."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ServerOverloadedError
from repro.resilience import ResourceBudget
from repro.server import AdmissionController, WorkerPool, mint_quota


# -- quota minting -------------------------------------------------------------


def test_mint_quota_splits_totals_across_workers() -> None:
    server = ResourceBudget(deadline_s=2.0, max_regions=100, max_bytes_parsed=1000)
    quota = mint_quota(server, workers=4)
    assert quota == ResourceBudget(
        deadline_s=2.0, max_regions=25, max_bytes_parsed=250
    )


def test_mint_quota_never_rounds_to_zero() -> None:
    quota = mint_quota(ResourceBudget(max_regions=3), workers=8)
    assert quota.max_regions == 1


def test_mint_quota_unmetered_server_is_unmetered_requests() -> None:
    assert mint_quota(None, workers=4) is None


def test_mint_quota_per_request_override_wins() -> None:
    override = ResourceBudget(max_regions=7)
    assert mint_quota(ResourceBudget(max_regions=100), 4, override) == override


# -- the admission controller --------------------------------------------------


def test_admission_counts_and_releases() -> None:
    controller = AdmissionController(workers=2, queue_depth=1)
    tickets = [controller.admit() for _ in range(3)]
    snapshot = controller.snapshot()
    assert snapshot["in_flight"] == 3
    assert snapshot["capacity"] == 3
    with pytest.raises(ServerOverloadedError) as excinfo:
        controller.admit()
    assert excinfo.value.snapshot["in_flight"] == 3
    assert controller.snapshot()["rejected_total"] == 1
    for ticket in tickets:
        ticket.release()
        ticket.release()  # idempotent
    final = controller.snapshot()
    assert final["in_flight"] == 0
    assert final["admitted_total"] == 3
    assert final["peak_in_flight"] == 3


def test_admission_mints_ticket_budgets() -> None:
    controller = AdmissionController(
        workers=2, queue_depth=0, server_budget=ResourceBudget(max_regions=10)
    )
    ticket = controller.admit()
    assert ticket.budget == ResourceBudget(max_regions=5)
    ticket.release()


def test_admission_rejects_bad_configuration() -> None:
    with pytest.raises(ValueError):
        AdmissionController(workers=0, queue_depth=1)
    with pytest.raises(ValueError):
        AdmissionController(workers=1, queue_depth=-1)


# -- the worker pool -----------------------------------------------------------


def test_pool_runs_submitted_work() -> None:
    pool = WorkerPool(workers=2, queue_depth=2)
    try:
        futures = [pool.submit(lambda n=n: n * n) for n in range(4)]
        assert sorted(f.result(timeout=10) for f in futures) == [0, 1, 4, 9]
    finally:
        pool.drain()


def test_pool_propagates_exceptions() -> None:
    pool = WorkerPool(workers=1, queue_depth=0)
    try:
        def boom() -> None:
            raise ValueError("inner failure")

        with pytest.raises(ValueError, match="inner failure"):
            pool.submit(boom).result(timeout=10)
    finally:
        pool.drain()


def test_pool_rejects_past_queue_cap() -> None:
    release = threading.Event()
    started = threading.Event()

    def block() -> None:
        started.set()
        release.wait(timeout=30)

    pool = WorkerPool(workers=1, queue_depth=1)
    try:
        running = pool.submit(block)
        assert started.wait(timeout=10)
        # The executing item left the queue, so workers + queue_depth = 2
        # more submissions fit before the hard cap rejects.
        queued = [pool.submit(lambda: None) for _ in range(2)]
        with pytest.raises(ServerOverloadedError):
            pool.submit(lambda: None)
        release.set()
        running.result(timeout=10)
        for future in queued:
            future.result(timeout=10)
    finally:
        release.set()
        pool.drain()


def test_pool_rejects_after_drain() -> None:
    pool = WorkerPool(workers=1, queue_depth=1)
    pool.drain()
    with pytest.raises(ServerOverloadedError):
        pool.submit(lambda: None)
