"""Engine-level feedback wiring: cold equivalence, persistence, plan-cache
invalidation, and per-shard history keying."""

from __future__ import annotations

import pytest

from repro.cache import CacheConfig
from repro.core.engine import FileQueryEngine
from repro.feedback import FeedbackConfig, FeedbackHistory, HISTORY_FILENAME
from repro.shard import ShardedEngine
from repro.workloads.bibtex import bibtex_schema, generate_bibtex

SELECT = 'SELECT r FROM Reference r WHERE r.Authors.Name.Last_Name = "Chang"'
CITATION_JOIN = (
    "SELECT r1.Key, r2.Key FROM Reference r1, Reference r2 "
    "WHERE r1.Referred.RefKey = r2.Key "
    'AND r2.Authors.Name.Last_Name = "Chang"'
)
QUERIES = [
    SELECT,
    'SELECT r.Title FROM Reference r WHERE r.Key = "Lamp93n"',
    "SELECT r.Key FROM Reference r",
]


@pytest.fixture(scope="module")
def corpus_text() -> str:
    return generate_bibtex(entries=40, seed=3)


class TestColdEquivalence:
    def test_cold_plans_match_feedback_free_build(self, corpus_text):
        """Feedback enabled but history empty: plans and rows must be
        indistinguishable from an engine without the subsystem."""
        plain = FileQueryEngine(bibtex_schema(), corpus_text)
        cold = FileQueryEngine(bibtex_schema(), corpus_text, feedback=True)
        for query in QUERIES:
            baseline = plain.query(query)
            result = cold.query(query)
            assert result.plan.strategy == baseline.plan.strategy
            assert str(result.plan.optimized_expression) == str(
                baseline.plan.optimized_expression
            )
            assert list(result.plan.notes) == list(baseline.plan.notes)
            assert result.canonical_rows() == baseline.canonical_rows()

    def test_feedback_disabled_by_default(self, corpus_text):
        engine = FileQueryEngine(bibtex_schema(), corpus_text)
        assert not engine.feedback_config.enabled
        state = engine.stats().calibration
        assert state["enabled"] is False


class TestAnalyzeFeedsHistory:
    def test_analyze_records_observations(self, corpus_text):
        engine = FileQueryEngine(bibtex_schema(), corpus_text, feedback=True)
        assert len(engine.feedback_history) == 0
        engine.analyze(SELECT)
        assert len(engine.feedback_history) > 0
        assert engine.cost_model.calibrated
        state = engine.stats().calibration
        assert state["observations"] > 0
        assert state["calibrated"] is True

    def test_analyze_persists_and_reloads(self, corpus_text, tmp_path):
        config = FeedbackConfig(directory=str(tmp_path))
        first = FileQueryEngine(bibtex_schema(), corpus_text, feedback=config)
        first.analyze(SELECT)
        assert (tmp_path / HISTORY_FILENAME).exists()
        second = FileQueryEngine(bibtex_schema(), corpus_text, feedback=config)
        assert len(second.feedback_history) == len(first.feedback_history)
        assert second.cost_model.calibrated

    def test_disabled_engine_records_nothing(self, corpus_text):
        engine = FileQueryEngine(bibtex_schema(), corpus_text)
        engine.analyze(SELECT)
        assert len(engine.feedback_history) == 0

    def test_calibrated_rows_match_uncalibrated(self, corpus_text):
        plain = FileQueryEngine(bibtex_schema(), corpus_text)
        engine = FileQueryEngine(bibtex_schema(), corpus_text, feedback=True)
        for _ in range(3):
            engine.analyze(SELECT)
        for query in QUERIES:
            assert (
                engine.query(query).canonical_rows()
                == plain.query(query).canonical_rows()
            )


def _work(engine: FileQueryEngine, query: str) -> tuple[int, set]:
    """Deterministic work for one run (region comparisons plus bytes
    parsed) and the canonical answer."""
    result = engine.query(query)
    work = result.stats.algebra.comparisons + result.stats.bytes_parsed
    return work, result.canonical_rows()


class TestCalibratedOptimizer:
    def test_calibrated_optimizer_never_does_more_work(self):
        """E10's regression, gated on work counters: once analyze runs
        have calibrated the cost model, the optimizer does no more work
        than the unoptimized pipeline, and answers the same."""
        text = generate_bibtex(entries=100, seed=11)
        no_cache = CacheConfig.disabled()
        calibrated = FileQueryEngine(
            bibtex_schema(), text, cache_config=no_cache, feedback=True
        )
        unoptimized = FileQueryEngine(
            bibtex_schema(), text, cache_config=no_cache, optimize_expressions=False
        )
        for _ in range(3):
            for query in (SELECT, CITATION_JOIN):
                calibrated.analyze(query)
        assert calibrated.cost_model.calibrated
        for query in (SELECT, CITATION_JOIN):
            with_work, with_rows = _work(calibrated, query)
            without_work, without_rows = _work(unoptimized, query)
            assert with_work <= without_work, query
            assert with_rows == without_rows, query


class TestPlanCacheInvalidation:
    def test_version_bump_clears_plan_cache(self, corpus_text):
        engine = FileQueryEngine(bibtex_schema(), corpus_text, feedback=True)
        # Warm up until the executor's own observations converge — each
        # early query moves the corrections (and so the version) until the
        # running correction settles inside the 5% hysteresis band.
        for _ in range(10):
            engine.query(SELECT)
            if engine.cache_stats.plan_hits:
                break
        hits_before = engine.cache_stats.plan_hits
        assert hits_before >= 1
        # A material calibration change must invalidate plans chosen
        # under the stale cost model...  (A brand-new key bumps the
        # version without perturbing any estimate the executor re-feeds.)
        engine.feedback_history.observe(
            "name", "Unqueried_Region", engine.corpus_fingerprint, 10.0, 1000.0
        )
        engine.query(SELECT)
        assert engine.cache_stats.plan_hits == hits_before
        # ...and once the history is stable again, caching resumes.
        engine.query(SELECT)
        assert engine.cache_stats.plan_hits == hits_before + 1

    def test_stable_history_keeps_plan_cache(self, corpus_text):
        engine = FileQueryEngine(bibtex_schema(), corpus_text, feedback=True)
        engine.feedback_history.observe(
            "name", "Reference", engine.corpus_fingerprint, 10.0, 20.0
        )
        for _ in range(10):
            engine.query(SELECT)
            if engine.cache_stats.plan_hits:
                break
        hits = engine.cache_stats.plan_hits
        # Converged observations do not bump the version: cached plans
        # survive repeated identical feedback.
        engine.feedback_history.observe(
            "name", "Reference", engine.corpus_fingerprint, 10.0, 20.0
        )
        engine.query(SELECT)
        assert engine.cache_stats.plan_hits == hits + 1


class TestShardedFeedback:
    def test_shared_history_keys_by_shard_fingerprint(self):
        texts = [
            generate_bibtex(entries=12, seed=seed) for seed in (1, 2, 3)
        ]
        engine = ShardedEngine.from_texts(
            bibtex_schema(), texts, feedback=FeedbackConfig()
        )
        engine.analyze(SELECT)
        assert len(engine.feedback_history) > 0
        shard_fingerprints = {
            shard.engine.corpus_fingerprint
            for shard in engine._shards
            if shard.engine is not None
        }
        observed = {key[2] for key in engine.feedback_history.keys()}
        # analyze() instruments one healthy shard: its fingerprint — and
        # only fingerprints belonging to real shards — may be fed.
        assert observed
        assert observed <= shard_fingerprints
        state = engine.stats().calibration
        assert state["enabled"] and state["observations"] > 0

    def test_sharded_rows_unchanged_with_feedback(self):
        texts = [generate_bibtex(entries=12, seed=seed) for seed in (1, 2)]
        plain = ShardedEngine.from_texts(bibtex_schema(), texts)
        calibrated = ShardedEngine.from_texts(
            bibtex_schema(), texts, feedback=FeedbackConfig()
        )
        calibrated.analyze(SELECT)
        assert (
            calibrated.query(SELECT).canonical_rows()
            == plain.query(SELECT).canonical_rows()
        )

    def test_save_and_reopen_round_trips_history(self, tmp_path):
        texts = [generate_bibtex(entries=12, seed=seed) for seed in (1, 2)]
        engine = ShardedEngine.from_texts(
            bibtex_schema(), texts, feedback=FeedbackConfig()
        )
        engine.analyze(SELECT)
        engine.save(tmp_path)
        assert (tmp_path / HISTORY_FILENAME).exists()
        reopened = ShardedEngine.from_saved(
            bibtex_schema(), tmp_path, feedback=True
        )
        assert len(reopened.feedback_history) == len(engine.feedback_history)
