"""The LRU caches themselves, and the shared evaluator cache."""

from repro.algebra.ast import parse_expression
from repro.algebra.evaluator import Evaluator
from repro.algebra.region import Instance, Region, RegionSet
from repro.cache import (
    CacheConfig,
    CacheStats,
    CandidateParseMemo,
    ParseOutcome,
    RegionCache,
)


def _instance() -> Instance:
    return Instance(
        {
            "A": RegionSet.of((0, 20), (30, 50)),
            "B": RegionSet.of((2, 8), (32, 40)),
            "C": RegionSet.of((3, 5)),
        }
    )


class TestRegionCacheLRU:
    def test_hit_and_miss_accounting(self):
        cache = RegionCache(max_entries=4)
        assert cache.get("k") is None
        cache.put("k", RegionSet.of((0, 1)))
        assert cache.get("k") == RegionSet.of((0, 1))
        assert cache.stats.expression_misses == 1
        assert cache.stats.expression_hits == 1

    def test_eviction_is_least_recently_used(self):
        cache = RegionCache(max_entries=2)
        cache.put("a", RegionSet.of((0, 1)))
        cache.put("b", RegionSet.of((1, 2)))
        cache.get("a")  # refresh a
        cache.put("c", RegionSet.of((2, 3)))  # evicts b
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.stats.expression_evictions == 1

    def test_shared_stats_object(self):
        stats = CacheStats()
        cache = RegionCache(max_entries=2, stats=stats)
        cache.get("missing")
        assert stats.expression_misses == 1


class TestParseMemoLRU:
    def test_hit_credits_bytes_avoided(self):
        memo = CandidateParseMemo(max_entries=8)
        key = CandidateParseMemo.key("Reference", Region(0, 10), (True,))
        assert memo.get(key) is None
        memo.put(key, ParseOutcome(value=None, bytes_cost=10, values_built=0))
        outcome = memo.get(key)
        assert outcome is not None and outcome.value is None
        assert memo.stats.parse_hits == 1
        assert memo.stats.bytes_parse_avoided == 10

    def test_eviction_bound_holds(self):
        memo = CandidateParseMemo(max_entries=3)
        for index in range(5):
            key = CandidateParseMemo.key("R", Region(index, index + 1), (True,))
            memo.put(key, ParseOutcome(value=None, bytes_cost=1, values_built=0))
        assert len(memo) == 3
        assert memo.stats.parse_evictions == 2


class TestEvaluatorSharedCache:
    def test_shared_cache_spans_evaluators(self):
        cache = RegionCache(max_entries=16)
        expression = parse_expression("A > B")
        first = Evaluator(_instance(), region_cache=cache)
        result = first.evaluate(expression)
        second = Evaluator(_instance(), region_cache=cache)
        assert second.evaluate(expression) == result
        # The second evaluator did no inclusion work at all.
        assert second.counters.operations["⊃"] == 0
        assert cache.stats.expression_hits >= 1

    def test_commuted_plan_hits_same_entry(self):
        cache = RegionCache(max_entries=16)
        Evaluator(_instance(), region_cache=cache).evaluate(parse_expression("(A > B) | C"))
        second = Evaluator(_instance(), region_cache=cache)
        commuted = second.evaluate(parse_expression("C | (A > B)"))
        assert second.counters.operations["∪"] == 0
        assert commuted == Evaluator(_instance()).evaluate(parse_expression("(A > B) | C"))

    def test_results_identical_with_and_without_cache(self):
        expression = parse_expression("(A > B) & ((A > B) | (A > C)) - C")
        cached = Evaluator(_instance(), region_cache=RegionCache()).evaluate(expression)
        plain = Evaluator(_instance()).evaluate(expression)
        assert cached == plain


class TestCacheConfig:
    def test_disabled_turns_everything_off(self):
        config = CacheConfig.disabled()
        assert not config.enabled
        assert config.describe() == "disabled"

    def test_describe_mentions_bounds(self):
        text = CacheConfig().describe()
        assert "expressions≤256" in text
        assert "parses≤4096" in text
