"""The naive in-database evaluator — the paper's baseline.

Evaluates a query against loaded extents by scanning every object of the
source class and walking its value tree.  Path semantics are existential
(XSQL): a path ranges over all values it can reach (descending through set
and list elements), and a comparison holds if *some* reached value
satisfies it — "references where Chang is *one of* the authors".

Variables bind to attribute-name sequences.  Conditions evaluate to sets of
consistent *bindings* rather than booleans, so a variable used twice (in one
path or across conditions) is forced to the same attribute sequence
everywhere, as Section 5.3 requires.  ``NOT`` requires its operand to share
no unbound variables with the outside (the usual safety condition); it
evaluates to "no satisfying bindings".

The evaluator also reports how much work it did (objects scanned, values
visited, comparisons), which benchmarks use alongside wall time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from repro.db.model import Database
from repro.db.query import (
    And,
    Attr,
    Comparison,
    Condition,
    Not,
    Or,
    PathComparison,
    PathExpr,
    Query,
    SeqVars,
    StarVar,
    TrueCondition,
)
from repro.db.values import (
    AtomicValue,
    ListValue,
    ObjectValue,
    SetValue,
    TupleValue,
    Value,
    canonical,
    canonical_hash,
    canonical_row,
    first_distinct,
)
from repro.errors import QueryError

Bindings = tuple[tuple[str, tuple[str, ...]], ...]  # sorted (var, attrs) pairs

_EMPTY_BINDINGS: Bindings = ()


def _bind(bindings: Bindings, var: str, attrs: tuple[str, ...]) -> Bindings | None:
    """Extend ``bindings`` with ``var = attrs``; None on conflict."""
    for bound_var, bound_attrs in bindings:
        if bound_var == var:
            return bindings if bound_attrs == attrs else None
    return tuple(sorted(bindings + ((var, attrs),)))


def _merge(left: Bindings, right: Bindings) -> Bindings | None:
    """Union of two binding sets; None on conflict."""
    merged = dict(left)
    for var, attrs in right:
        if var in merged and merged[var] != attrs:
            return None
        merged[var] = attrs
    return tuple(sorted(merged.items()))


@dataclass
class EvaluationReport:
    """Work tally for one query evaluation."""

    objects_scanned: int = 0
    values_visited: int = 0
    comparisons: int = 0
    rows: int = 0


class Rows(list):
    """Output rows that carry, in ``hashes``, each row's digest in row
    order: the hash of the tuple of its values' ``canonical_hash``, so
    canonically equal rows share a digest.  A multi-source merge unions on
    the digests with the evaluator's own rule, ``first_distinct``.
    Digests, not canonical keys: nested key tuples kept alive until the
    merge measurably load the cyclic garbage collector, and an object
    keeps its hash, so a cached object's canonical form is built once,
    not on every query."""

    __slots__ = ("hashes",)

    def __init__(self, rows, hashes: list[int]) -> None:
        super().__init__(rows)
        self.hashes = hashes


class NaiveEvaluator:
    """Scan-everything query evaluation over a loaded database.

    ``extents_by_var`` optionally narrows the objects a range variable
    iterates over (the index-assisted multi-variable strategy pre-filters
    each variable's extent before handing over to the join loops).
    """

    def __init__(
        self,
        database: Database,
        extents_by_var: dict[str, tuple[ObjectValue, ...]] | None = None,
    ) -> None:
        self._database = database
        self._extents_by_var = extents_by_var or {}
        self.report = EvaluationReport()

    def evaluate(self, query: Query) -> Rows:
        """All distinct output rows (canonical equality), first occurrence
        first.

        The evaluator nests one loop per range variable (the standard
        database join of Section 5.2's closing discussion) and, per
        assignment, output paths range over every value they reach (cross
        product across outputs)."""
        self.report = EvaluationReport()
        rows, digests = first_distinct(self._digested_rows(query), canonical_row)
        self.report.rows = len(rows)
        return Rows(rows, digests)

    def _digested_rows(self, query: Query) -> Iterator[tuple[int, tuple[Value, ...]]]:
        """Every output row of every satisfying assignment, with its digest."""
        outputs = [(output, output.has_variables()) for output in query.outputs]
        for assignment in self._assignments(query):
            self.report.objects_scanned += 1
            satisfying = self._condition_bindings(query.where, assignment)
            if satisfying:
                yield from self._output_rows(outputs, assignment, satisfying)

    def _assignments(self, query: Query) -> Iterator[dict[str, ObjectValue]]:
        """The cartesian product of the declared (possibly narrowed) extents."""
        extents = [
            self._extents_by_var.get(source.var, self._database.extent(source.class_name))
            for source in query.sources
        ]
        variables = [source.var for source in query.sources]
        for objects in itertools.product(*extents):
            yield dict(zip(variables, objects))

    def qualifying_objects(self, query: Query) -> list[ObjectValue]:
        """Single-source convenience: the objects satisfying the WHERE."""
        objects = []
        for obj in self._database.extent(query.source_class):
            self.report.objects_scanned += 1
            if self._condition_bindings(query.where, {query.var: obj}):
                objects.append(obj)
        return objects

    def object_satisfies(self, query: Query, obj: ObjectValue) -> bool:
        """Does one object satisfy a single-source query's WHERE clause?
        (Used by the candidate-filtering phase of partial indexing.)"""
        return bool(self._condition_bindings(query.where, {query.var: obj}))

    # -- conditions ---------------------------------------------------------------

    def _condition_bindings(
        self, condition: Condition, assignment: dict[str, ObjectValue]
    ) -> list[Bindings]:
        if isinstance(condition, TrueCondition):
            return [_EMPTY_BINDINGS]
        if isinstance(condition, Comparison):
            found: list[Bindings] = []
            for value, bindings in self._walk_path(condition.path, assignment):
                self.report.comparisons += 1
                if condition.op == "like":
                    if isinstance(value, AtomicValue) and value.text.startswith(
                        condition.prefix
                    ):
                        found.append(bindings)
                    continue
                matches = isinstance(value, AtomicValue) and value.text == condition.literal
                if condition.op == "=" and matches:
                    found.append(bindings)
                elif condition.op == "<>" and not matches:
                    found.append(bindings)
            return _dedupe(found)
        if isinstance(condition, PathComparison):
            found = []
            right_values = list(self._walk_path(condition.right, assignment))
            for left_value, left_bindings in self._walk_path(condition.left, assignment):
                for right_value, right_bindings in right_values:
                    self.report.comparisons += 1
                    equal = canonical(left_value) == canonical(right_value)
                    keep = equal if condition.op == "=" else not equal
                    if not keep:
                        continue
                    merged = _merge(left_bindings, right_bindings)
                    if merged is not None:
                        found.append(merged)
            return _dedupe(found)
        if isinstance(condition, And):
            combined: list[Bindings] = []
            left_sets = self._condition_bindings(condition.left, assignment)
            if not left_sets:
                return []
            right_sets = self._condition_bindings(condition.right, assignment)
            for left_bindings in left_sets:
                for right_bindings in right_sets:
                    merged = _merge(left_bindings, right_bindings)
                    if merged is not None:
                        combined.append(merged)
            return _dedupe(combined)
        if isinstance(condition, Or):
            return _dedupe(
                self._condition_bindings(condition.left, assignment)
                + self._condition_bindings(condition.right, assignment)
            )
        if isinstance(condition, Not):
            inner = self._condition_bindings(condition.child, assignment)
            return [] if inner else [_EMPTY_BINDINGS]
        raise QueryError(f"cannot evaluate condition {condition!r}")

    # -- outputs -------------------------------------------------------------------

    def _output_rows(
        self,
        outputs: list[tuple[PathExpr, bool]],
        assignment: dict[str, ObjectValue],
        satisfying: list[Bindings],
    ) -> Iterator[tuple[int, tuple[Value, ...]]]:
        """The cross product of each output's distinct reached values, each
        row with its digest.  An output with variables keeps only the
        values reached under bindings consistent with the WHERE clause's."""
        rows: list[tuple[tuple[int, ...], tuple[Value, ...]]] = [((), ())]
        for output, has_variables in outputs:
            reached = self._walk_path(output, assignment)
            if has_variables:
                reached = (
                    (value, bindings)
                    for value, bindings in reached
                    if any(_merge(bindings, sat) is not None for sat in satisfying)
                )
            values, digests = first_distinct(
                ((canonical_hash(value), value) for value, _ in reached), canonical
            )
            rows = [
                (row_digests + (digest,), row + (value,))
                for row_digests, row in rows
                for digest, value in zip(digests, values)
            ]
        for row_digests, row in rows:
            yield hash(row_digests), row

    # -- path walking ----------------------------------------------------------------

    def _walk_path(
        self, path: PathExpr, assignment: dict[str, ObjectValue]
    ) -> Iterator[tuple[Value, Bindings]]:
        yield from self._walk_steps(assignment[path.var], path.steps, _EMPTY_BINDINGS)

    def _walk_steps(
        self, value: Value, steps: tuple, bindings: Bindings
    ) -> Iterator[tuple[Value, Bindings]]:
        self.report.values_visited += 1
        if not steps:
            yield value, bindings
            return
        step, rest = steps[0], steps[1:]
        if isinstance(step, Attr):
            for target in self._apply_attribute(value, step.name):
                yield from self._walk_steps(target, rest, bindings)
        elif isinstance(step, SeqVars):
            for attr_name, target in self._any_attribute(value):
                extended = _bind(bindings, step.name, (attr_name,))
                if extended is not None:
                    yield from self._walk_steps(target, rest, extended)
        elif isinstance(step, StarVar):
            for attr_names, target in self._descendants(value):
                extended = _bind(bindings, step.name, attr_names)
                if extended is not None:
                    yield from self._walk_steps(target, rest, extended)
        else:
            raise QueryError(f"unknown path step {step!r}")

    def _apply_attribute(self, value: Value, name: str) -> Iterator[Value]:
        """Resolve one attribute step, descending through sets/lists.

        A step naming a tuple/object's own type selects the value itself
        (``Authors.Name`` ranges over the Name tuples inside the set)."""
        if isinstance(value, (SetValue, ListValue)):
            for element in value:
                yield from self._apply_attribute(element, name)
        elif isinstance(value, (TupleValue, ObjectValue)):
            if value.has(name):
                yield value.attributes[name]
            else:
                type_name = (
                    value.class_name if isinstance(value, ObjectValue) else value.type_name
                )
                if type_name == name:
                    yield value
        elif isinstance(value, AtomicValue) and value.type_name == name:
            yield value

    def _any_attribute(self, value: Value) -> Iterator[tuple[str, Value]]:
        """All one-step attribute moves (for plain variables)."""
        if isinstance(value, (SetValue, ListValue)):
            for element in value:
                yield from self._any_attribute(element)
        elif isinstance(value, (TupleValue, ObjectValue)):
            yield from value.attributes.items()

    def _descendants(self, value: Value) -> Iterator[tuple[tuple[str, ...], Value]]:
        """All attribute sequences of length >= 0 (for star variables).

        This is the OODB's expensive operation the paper contrasts with the
        single inclusion test on files (Section 5.3): "in traditional OODBMS,
        path expressions with variables are computationally more expensive
        ... the system has to actually traverse all possible paths".
        """
        self.report.values_visited += 1
        yield (), value
        for attr_name, child in self._any_attribute(value):
            for deeper_names, target in self._descendants(child):
                yield (attr_name,) + deeper_names, target


def _dedupe(bindings_list: list[Bindings]) -> list[Bindings]:
    seen: set[Bindings] = set()
    unique: list[Bindings] = []
    for bindings in bindings_list:
        if bindings not in seen:
            seen.add(bindings)
            unique.append(bindings)
    return unique
