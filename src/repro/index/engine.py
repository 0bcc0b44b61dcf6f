"""The index engine facade.

Plays the role of the PAT engine: holds the indexed text, the word index and
the region instance, evaluates region expressions, and implements the
evaluator's word-lookup protocol.  All evaluation work is tallied in the
engine's counters so benchmarks can report operation counts next to wall
times.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.algebra.ast import RegionExpr, parse_expression
from repro.algebra.counters import OperationCounters
from repro.algebra.evaluator import EvalStats, Evaluator, NodeRecord
from repro.algebra.region import Instance, Region, RegionSet
from repro.cache import CacheConfig, CacheStats, RegionCache
from repro.cache.config import EXPRESSION_CACHE_SIZE
from repro.errors import RegionIndexError
from repro.index.config import IndexConfig
from repro.index.stats import IndexStatistics
from repro.index.suffix_array import SuffixArray
from repro.index.word_index import WordIndex

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.budget import BudgetMeter


class IndexEngine:
    """An indexed corpus: text + word index + region indexes."""

    def __init__(
        self,
        text: str,
        instance: Instance,
        word_index: WordIndex | None = None,
        suffix_array: SuffixArray | None = None,
        config: IndexConfig | None = None,
    ) -> None:
        self.text = text
        self.instance = instance
        self.word_index = word_index
        self.suffix_array = suffix_array
        self.config = config if config is not None else IndexConfig.full()
        self.counters = OperationCounters()
        # Expression-result caching is opt-in at this level (the low-level
        # engine is also a measurement instrument); FileQueryEngine turns it
        # on by default via configure_cache().
        self.cache_config: CacheConfig = CacheConfig.disabled()
        self.region_cache: RegionCache | None = None

    def configure_cache(
        self, cache_config: CacheConfig, stats: CacheStats | None = None
    ) -> None:
        """Attach (or detach) the shared region-expression result cache.

        Safe at any time: the instance is immutable, so a fresh cache is
        simply empty.  Passing ``CacheConfig.disabled()`` removes caching.
        """
        self.cache_config = cache_config
        if cache_config.enabled:
            self.region_cache = RegionCache(max_entries=EXPRESSION_CACHE_SIZE, stats=stats)
        else:
            self.region_cache = None

    # -- WordLookup protocol --------------------------------------------------------

    def occurrences(self, word: str) -> RegionSet:
        if self.word_index is None:
            raise RegionIndexError("this engine was built without a word index")
        return self.word_index.occurrences(word)

    def occurrences_with_prefix(self, prefix: str) -> RegionSet:
        if self.word_index is None:
            raise RegionIndexError("this engine was built without a word index")
        return self.word_index.occurrences_with_prefix(prefix)

    def token_count_between(self, start: int, end: int) -> int:
        if self.word_index is None:
            raise RegionIndexError("this engine was built without a word index")
        return self.word_index.token_count_between(start, end)

    # -- evaluation -------------------------------------------------------------------

    def evaluator(
        self,
        strict_names: bool = True,
        node_log: dict[RegionExpr, NodeRecord] | None = None,
        use_cache: bool = True,
        budget: "BudgetMeter | None" = None,
    ) -> Evaluator:
        return Evaluator(
            self.instance,
            word_lookup=self if self.word_index is not None else None,
            counters=self.counters,
            strict_names=strict_names,
            region_cache=self.region_cache if use_cache else None,
            node_log=node_log,
            budget=budget,
        )

    def evaluate(self, expression: RegionExpr | str) -> RegionSet:
        """Evaluate a region expression (AST or ASCII syntax)."""
        if isinstance(expression, str):
            expression = parse_expression(expression)
        return self.evaluator().evaluate(expression)

    def run(
        self,
        expression: RegionExpr | str,
        node_log: dict[RegionExpr, NodeRecord] | None = None,
        use_cache: bool = True,
        budget: "BudgetMeter | None" = None,
    ) -> EvalStats:
        """Evaluate with a private counter tally and wall time (for
        measurements).  ``node_log`` additionally collects per-node actuals
        (EXPLAIN ANALYZE); ``use_cache=False`` bypasses the shared result
        cache so every node's cost is actually measured; ``budget`` guards
        the operator loops (see :class:`~repro.algebra.evaluator.Evaluator`)."""
        if isinstance(expression, str):
            expression = parse_expression(expression)
        return self.evaluator(
            node_log=node_log, use_cache=use_cache, budget=budget
        ).run(expression)

    # -- PAT search conveniences -----------------------------------------------------

    def phrase(self, *words: str, max_gap: int = 2) -> RegionSet:
        """Spans where the words occur in order, each within ``max_gap``
        characters of the previous (PAT's proximity search)."""
        from repro.index import search

        if not words:
            raise RegionIndexError("phrase needs at least one word")
        spans = self.occurrences(words[0])
        for word in words[1:]:
            spans = search.followed_by(
                spans, self.occurrences(word), max_gap=max_gap, counters=self.counters
            )
        return spans

    def near(self, first: str, second: str, max_gap: int = 80) -> RegionSet:
        """Unordered word proximity."""
        from repro.index import search

        return search.proximity(
            self.occurrences(first),
            self.occurrences(second),
            max_gap=max_gap,
            counters=self.counters,
        )

    def regions_with_frequency(
        self, region_name: str, word: str, min_count: int
    ) -> RegionSet:
        """Frequency search: the ``region_name`` regions containing at least
        ``min_count`` occurrences of ``word``."""
        from repro.index import search

        return search.select_by_frequency(
            self.instance.get(region_name),
            self.occurrences(word),
            min_count,
            counters=self.counters,
        )

    # -- text access --------------------------------------------------------------------

    def region_text(self, region: Region) -> str:
        return self.text[region.start : region.end]

    def region_names(self) -> tuple[str, ...]:
        return self.instance.names

    # -- accounting ----------------------------------------------------------------------

    def statistics(self) -> IndexStatistics:
        return IndexStatistics.measure(self)
