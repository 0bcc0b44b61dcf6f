"""Instrumented evaluator for region expressions.

The evaluator plays the role of the PAT engine: it executes a region
expression bottom-up against a region :class:`~repro.algebra.region.Instance`
plus a word lookup (for selections), recording its work in an
:class:`~repro.algebra.counters.OperationCounters`.

The word lookup is a small protocol so the evaluator does not depend on the
index package (the index engine implements it; tests can pass a stub).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Protocol

from repro.algebra import ops
from repro.algebra.ast import (
    DIRECTLY_INCLUDED,
    DIRECTLY_INCLUDING,
    INCLUDED,
    INCLUDING,
    Inclusion,
    Innermost,
    Name,
    Outermost,
    RegionExpr,
    Select,
    SetOp,
)
from repro.algebra.counters import OperationCounters
from repro.algebra.region import Instance, RegionSet
from repro.cache.keys import canonical_key
from repro.cache.region_cache import RegionCache
from repro.errors import AlgebraError, UnknownRegionNameError

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.budget import BudgetMeter


class WordLookup(Protocol):
    """What the evaluator needs from a word index."""

    def occurrences(self, word: str) -> RegionSet:
        """All spans where ``word`` occurs (word-width match points)."""
        ...

    def occurrences_with_prefix(self, prefix: str) -> RegionSet:
        """All spans of words starting with ``prefix`` (lexical search)."""
        ...

    def token_count_between(self, start: int, end: int) -> int:
        """Number of word tokens whose span lies inside ``[start, end)``."""
        ...


class EmptyWordLookup:
    """A word lookup with no words (for purely structural expressions)."""

    def occurrences(self, word: str) -> RegionSet:
        return RegionSet.empty()

    def occurrences_with_prefix(self, prefix: str) -> RegionSet:
        return RegionSet.empty()

    def token_count_between(self, start: int, end: int) -> int:
        return 0


@dataclass
class EvalStats:
    """Result envelope: the region set plus the work done computing it."""

    result: RegionSet
    counters: OperationCounters = field(default_factory=OperationCounters)
    #: Wall-clock seconds of the evaluation (filled by callers that time it,
    #: e.g. :meth:`repro.index.engine.IndexEngine.run`).
    elapsed: float = 0.0


@dataclass
class NodeRecord:
    """Measured actuals for one expression node (EXPLAIN ANALYZE data).

    ``elapsed`` is inclusive — it covers the node's children too, mirroring
    how databases report per-node actual time.  ``cached`` marks results
    that came from the per-evaluator memo or the shared region cache
    rather than being computed.
    """

    elapsed: float
    regions: int
    cached: bool = False


class Evaluator:
    """Evaluate region expressions against one instance.

    Parameters
    ----------
    instance:
        The region index instance (name -> region set).
    word_lookup:
        Provider of word occurrences for selections; defaults to an empty
        lookup, which makes every selection produce the empty set.
    counters:
        Optional shared counters; a fresh tally is created when omitted.
    strict_names:
        When true (default), referencing a region name absent from the
        instance raises :class:`UnknownRegionNameError`; when false it
        evaluates to the empty set (partial-index evaluation uses this).
    region_cache:
        Optional *shared* result cache keyed by canonical structural keys
        (:func:`repro.cache.keys.canonical_key`).  Unlike the per-evaluator
        memo it outlives this evaluator, so sub-chains shared by different
        queries on one engine are evaluated once per engine.  Sound only
        while the instance is immutable, which the index engine guarantees.
    node_log:
        Optional dict filled with a :class:`NodeRecord` per distinct
        expression node — inclusive wall-time and regions produced — for
        EXPLAIN ANALYZE output.  ``None`` (the default) skips all timing.
    budget:
        Optional :class:`~repro.resilience.budget.BudgetMeter`.  Every
        *computed* node result (memo and shared-cache hits are free — they
        touch no new regions) charges its region count, and the meter's
        wall-clock deadline is checked at the same points, so a runaway
        operator loop aborts with
        :class:`~repro.errors.BudgetExceededError` mid-expression instead
        of after the fact.
    """

    def __init__(
        self,
        instance: Instance,
        word_lookup: WordLookup | None = None,
        counters: OperationCounters | None = None,
        strict_names: bool = True,
        memoize: bool = True,
        region_cache: RegionCache | None = None,
        node_log: dict[RegionExpr, NodeRecord] | None = None,
        budget: "BudgetMeter | None" = None,
    ) -> None:
        self._instance = instance
        self._words: WordLookup = word_lookup if word_lookup is not None else EmptyWordLookup()
        self.counters = counters if counters is not None else OperationCounters()
        self._strict_names = strict_names
        self._memoize = memoize
        self._memo: dict[RegionExpr, RegionSet] = {}
        self._region_cache = region_cache
        self._node_log = node_log
        self._budget = budget

    @property
    def instance(self) -> Instance:
        return self._instance

    def evaluate(self, expression: RegionExpr) -> RegionSet:
        """Evaluate ``expression`` and return its region set.

        Repeated subexpressions are evaluated once per evaluator (Section
        5.2: "the goal is to find common subexpressions in the region
        expressions and evaluate them once") — expression nodes are
        immutable, so structural equality keys the memo.
        """
        log = self._node_log
        started = perf_counter() if log is not None else 0.0
        if self._memoize:
            cached = self._memo.get(expression)
            if cached is not None:
                if log is not None and expression not in log:
                    log[expression] = NodeRecord(
                        elapsed=perf_counter() - started,
                        regions=len(cached),
                        cached=True,
                    )
                return cached
        cache_key = None
        if self._region_cache is not None and not isinstance(expression, Name):
            # Strictness changes failure behaviour for unknown names, so it
            # partitions the shared cache.
            cache_key = (self._strict_names, canonical_key(expression))
            shared = self._region_cache.get(cache_key)
            if shared is not None:
                if self._memoize:
                    self._memo[expression] = shared
                if log is not None and expression not in log:
                    log[expression] = NodeRecord(
                        elapsed=perf_counter() - started,
                        regions=len(shared),
                        cached=True,
                    )
                return shared
        result = self._evaluate_node(expression)
        if self._budget is not None:
            self._budget.charge_regions(len(result))
        if self._memoize and not isinstance(expression, Name):
            self._memo[expression] = result
        if cache_key is not None:
            self._region_cache.put(cache_key, result)
        if log is not None and expression not in log:
            log[expression] = NodeRecord(
                elapsed=perf_counter() - started, regions=len(result)
            )
        return result

    def _evaluate_node(self, expression: RegionExpr) -> RegionSet:
        if isinstance(expression, Name):
            return self._lookup_name(expression.region_name)
        if isinstance(expression, Select):
            return self._evaluate_select(expression)
        if isinstance(expression, Inclusion):
            return self._evaluate_inclusion(expression)
        if isinstance(expression, SetOp):
            return self._evaluate_set_op(expression)
        if isinstance(expression, Innermost):
            return ops.innermost(self.evaluate(expression.child), self.counters)
        if isinstance(expression, Outermost):
            return ops.outermost(self.evaluate(expression.child), self.counters)
        raise AlgebraError(f"cannot evaluate expression node {expression!r}")

    def run(self, expression: RegionExpr) -> EvalStats:
        """Evaluate with a private tally, returning result, counters, and
        wall time."""
        saved = self.counters
        self.counters = OperationCounters()
        started = perf_counter()
        try:
            result = self.evaluate(expression)
            return EvalStats(
                result=result,
                counters=self.counters,
                elapsed=perf_counter() - started,
            )
        finally:
            self.counters = saved

    # -- node handlers ------------------------------------------------------

    def _lookup_name(self, region_name: str) -> RegionSet:
        if self._strict_names and region_name not in self._instance:
            raise UnknownRegionNameError(region_name, self._instance.names)
        regions = self._instance.get(region_name)
        self.counters.record("name", produced=len(regions))
        return regions

    def _evaluate_select(self, node: Select) -> RegionSet:
        child = self.evaluate(node.child)
        if node.mode in ("prefix", "prefix_contains"):
            occurrences = self._words.occurrences_with_prefix(node.word)
            mode = "exact" if node.mode == "prefix" else "contains"
        else:
            occurrences = self._words.occurrences(node.word)
            mode = node.mode
        return ops.select_word(
            child,
            occurrences,
            mode=mode,
            token_counter=self._words.token_count_between,
            counters=self.counters,
        )

    def _evaluate_inclusion(self, node: Inclusion) -> RegionSet:
        left = self.evaluate(node.left)
        right = self.evaluate(node.right)
        if node.op == INCLUDING:
            return ops.including(left, right, self.counters)
        if node.op == INCLUDED:
            return ops.included(left, right, self.counters)
        if node.op == DIRECTLY_INCLUDING:
            return ops.directly_including(left, right, self._instance, self.counters)
        if node.op == DIRECTLY_INCLUDED:
            return ops.directly_included(left, right, self._instance, self.counters)
        raise AlgebraError(f"unknown inclusion operator {node.op!r}")

    def _evaluate_set_op(self, node: SetOp) -> RegionSet:
        left = self.evaluate(node.left)
        right = self.evaluate(node.right)
        if node.kind == "union":
            return ops.union(left, right, self.counters)
        if node.kind == "intersect":
            return ops.intersect(left, right, self.counters)
        return ops.difference(left, right, self.counters)
