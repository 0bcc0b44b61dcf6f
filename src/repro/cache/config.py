"""Cache configuration.

One :class:`CacheConfig` governs every cache an engine holds.  Caches are
strictly per-engine: an engine indexes one immutable corpus, so cached
results can never go stale; two engines never share cache state.
"""

from __future__ import annotations

from dataclasses import dataclass

#: LRU entry bound for the region-expression result cache.
EXPRESSION_CACHE_SIZE = 256
#: LRU entry bound for the candidate-parse memo.
PARSE_MEMO_SIZE = 4096
#: LRU entry bound for the planner's text-query plan cache.
PLAN_CACHE_SIZE = 64


@dataclass(frozen=True)
class CacheConfig:
    """Whether the engine may memoize.

    Attributes
    ----------
    enabled:
        Master switch.  On, the engine keeps a region-expression result
        cache, a candidate-parse memo and a plan cache (bounded by the
        module constants), plus the corpus parse tree of a planner-chosen
        full scan for later full scans (the forced baseline pipeline never
        uses it, so benchmark baselines stay honest).
        ``CacheConfig.disabled()`` turns every cache off; query results
        are byte-identical either way.
    """

    enabled: bool = True

    @classmethod
    def disabled(cls) -> "CacheConfig":
        """The escape hatch: no caching anywhere."""
        return cls(enabled=False)

    def describe(self) -> str:
        if not self.enabled:
            return "disabled"
        return (
            f"enabled (expressions≤{EXPRESSION_CACHE_SIZE}, "
            f"parses≤{PARSE_MEMO_SIZE}, plans≤{PLAN_CACHE_SIZE}, full-scan-tree=on)"
        )
