"""The chaos matrix: every registered scenario against every backend it
declares, seeds 0..7, each case judged by the invariant oracle against
the healthy twin — plus the oracle's own verdict logic and the registry's
shape.

A failing case id such as ``test_chaos_case[corrupt-solo-6]`` replays
the same faults when run alone: the case's RNG is seeded from its
``(scenario, backend, seed)`` triple."""

from __future__ import annotations

import pytest

from repro.errors import BudgetExceededError, IndexCorruptError
from tests.chaos.oracle import Verdict
from tests.chaos.scenarios import BACKENDS, SCENARIOS, Fixtures, run_case

SEEDS = range(8)


# -- the oracle ----------------------------------------------------------------


class TestVerdict:
    def test_identical_rows_pass(self):
        verdict = Verdict()
        verdict.rows_identical_or_flagged({("a",)}, {("a",)}, codes=[])
        assert verdict.passed

    def test_flagged_subset_passes(self):
        verdict = Verdict()
        verdict.rows_identical_or_flagged(
            {("a",)}, {("a",), ("b",)}, codes=["partial-result"]
        )
        assert verdict.passed

    def test_silent_loss_fails(self):
        verdict = Verdict()
        verdict.rows_identical_or_flagged({("a",)}, {("a",), ("b",)}, codes=[])
        assert not verdict.passed
        assert "WITHOUT" in verdict.failures[0].message

    def test_invented_rows_fail_even_when_flagged(self):
        verdict = Verdict()
        verdict.rows_identical_or_flagged(
            {("a",), ("x",)}, {("a",)}, codes=["partial-result"]
        )
        assert not verdict.passed
        assert "invented" in verdict.failures[0].message

    def test_undocumented_warning_code_fails(self):
        verdict = Verdict()
        verdict.codes_within(["shard-failed", "surprise"], ["shard-failed"])
        assert not verdict.passed

    def test_bound_violation_fails(self):
        verdict = Verdict()
        verdict.bounded(elapsed_s=2.0, bound_s=0.5)
        assert not verdict.passed

    def test_typed_error_must_be_documented(self):
        verdict = Verdict()
        verdict.typed_error(BudgetExceededError("wall_clock", 1, 2), (IndexCorruptError,))
        assert not verdict.passed
        verdict = Verdict()
        verdict.typed_error(None, (IndexCorruptError,))
        assert not verdict.passed  # a fault that vanished silently is a failure

    def test_envelope_error_accepts_any_expected_status(self):
        verdict = Verdict()
        payload = {"error": {"code": "server-draining"}}
        verdict.envelope_error(503, payload, {429, 503}, ["server-draining"])
        assert verdict.passed

    def test_verdict_without_checks_fails(self):
        # A scenario that checked nothing proved nothing.
        assert not Verdict().passed


# -- the registry --------------------------------------------------------------


def test_every_scenario_declares_valid_backends() -> None:
    assert SCENARIOS, "the registry must not be empty"
    for name, (backends, runner) in SCENARIOS.items():
        assert backends, name
        assert set(backends) <= set(BACKENDS), name
        assert callable(runner), name


def test_issue_required_scenarios_are_registered() -> None:
    # The matrix's fixed axes must exist by name.
    assert {"hang", "corrupt", "transient-io", "overload"} <= set(SCENARIOS)


# -- the matrix ----------------------------------------------------------------


@pytest.fixture(scope="module")
def fixtures() -> Fixtures:
    return Fixtures.build()


@pytest.mark.parametrize(
    "name, backend, seed",
    [
        pytest.param(name, backend, seed, id=f"{name}-{backend}-{seed}")
        for name, (backends, _runner) in SCENARIOS.items()
        for backend in backends
        for seed in SEEDS
    ],
)
def test_chaos_case(fixtures, name, backend, seed) -> None:
    verdict = run_case(name, fixtures, backend, seed)
    assert verdict.passed, "\n".join(str(check) for check in verdict.checks)


def test_runs_are_deterministic_per_seed(fixtures) -> None:
    first = run_case("corrupt", fixtures, "solo", seed=6)
    second = run_case("corrupt", fixtures, "solo", seed=6)
    assert first.passed and second.passed
    # Same seed, same fault choices: the oracle ran the same checks and
    # reached the same conclusions both times.
    assert [(c.name, c.ok) for c in first.checks] == [
        (c.name, c.ok) for c in second.checks
    ]
