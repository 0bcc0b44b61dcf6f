"""The object-database value model.

Matches the data model the paper borrows from XSQL/O2 (Section 2): classes
with object identity, tuple types, set and list values, and atomic values.
A BibTeX file, for instance, maps to a set of ``Reference`` objects whose
``Authors`` attribute is a set of ``Name`` tuples with ``First_Name`` and
``Last_Name`` string attributes.

Values are immutable.  :func:`canonical` converts any value to plain Python
data (dicts / frozensets / tuples / strings), which is how tests compare
query results across evaluation strategies (object identity is not part of
query-answer equality).  :func:`canonical_hash` is that form's hash, kept
on each object after its first use, and :func:`first_distinct` is the one
rule by which answers drop canonically equal rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, TypeVar, Union

from repro.errors import DatabaseError

_OID_COUNTER = itertools.count(1)


@dataclass(frozen=True)
class AtomicValue:
    """A string (or stringly-typed scalar) value.

    ``type_name`` records which non-terminal produced the value (the
    innermost named one) so that paths can address atomic set elements by
    name (``r.Keywords.Keyword``); it does not affect canonical equality.
    """

    text: str
    type_name: str = ""

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class TupleValue:
    """A tuple value: named attributes, no identity.

    ``type_name`` names the tuple type (e.g. ``"Name"``).
    """

    type_name: str
    attributes: Mapping[str, "Value"]

    def __post_init__(self) -> None:
        object.__setattr__(self, "attributes", dict(self.attributes))

    def get(self, attribute: str) -> "Value":
        try:
            return self.attributes[attribute]
        except KeyError:
            raise DatabaseError(
                f"tuple type {self.type_name!r} has no attribute {attribute!r} "
                f"(has: {', '.join(sorted(self.attributes))})"
            ) from None

    def has(self, attribute: str) -> bool:
        return attribute in self.attributes

    def __hash__(self) -> int:
        return hash((self.type_name, frozenset(self.attributes.items())))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TupleValue):
            return NotImplemented
        return self.type_name == other.type_name and self.attributes == other.attributes


@dataclass(frozen=True)
class SetValue:
    """A set value.  Stored as a tuple but compared as a set."""

    elements: tuple["Value", ...]

    def __init__(self, elements: Iterable["Value"] = ()) -> None:
        object.__setattr__(self, "elements", tuple(elements))

    def __iter__(self) -> Iterator["Value"]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetValue):
            return NotImplemented
        return frozenset(self.elements) == frozenset(other.elements)

    def __hash__(self) -> int:
        return hash(frozenset(self.elements))


@dataclass(frozen=True)
class ListValue:
    """A list value (order matters)."""

    elements: tuple["Value", ...]

    def __init__(self, elements: Iterable["Value"] = ()) -> None:
        object.__setattr__(self, "elements", tuple(elements))

    def __iter__(self) -> Iterator["Value"]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True, eq=False)
class ObjectValue:
    """An object: identity (``oid``) plus named attributes.

    ``key_hash`` is ``hash(canonical(self))``, filled in by
    :func:`canonical_hash` on first use: an object is immutable, and the
    parse memo hands the same one to every query that reads its region.
    Two threads racing to fill it write the same value.
    """

    class_name: str
    attributes: Mapping[str, "Value"]
    oid: int = field(default_factory=lambda: next(_OID_COUNTER))
    key_hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "attributes", dict(self.attributes))

    def get(self, attribute: str) -> "Value":
        try:
            return self.attributes[attribute]
        except KeyError:
            raise DatabaseError(
                f"class {self.class_name!r} has no attribute {attribute!r} "
                f"(has: {', '.join(sorted(self.attributes))})"
            ) from None

    def has(self, attribute: str) -> bool:
        return attribute in self.attributes

    def __eq__(self, other: object) -> bool:
        return self is other

    def __hash__(self) -> int:
        return hash(self.oid)


Value = Union[AtomicValue, TupleValue, SetValue, ListValue, ObjectValue]


def atom(text: str) -> AtomicValue:
    """Shorthand constructor for an atomic string value."""
    return AtomicValue(text)


def canonical(value: Value) -> object:
    """Convert a value to plain, identity-free Python data.

    Objects become ``("object", class_name, {attr: canonical})``; sets become
    frozensets; lists become tuples.  Two query answers are "the same" iff
    their canonical forms are equal — this is what integration tests compare.
    """
    if isinstance(value, AtomicValue):
        return value.text
    if isinstance(value, TupleValue):
        return (
            "tuple",
            value.type_name,
            tuple(sorted((k, canonical(v)) for k, v in value.attributes.items())),
        )
    if isinstance(value, ObjectValue):
        return (
            "object",
            value.class_name,
            tuple(sorted((k, canonical(v)) for k, v in value.attributes.items())),
        )
    if isinstance(value, SetValue):
        return frozenset(canonical(element) for element in value)
    if isinstance(value, ListValue):
        return tuple(canonical(element) for element in value)
    raise DatabaseError(f"cannot canonicalise {value!r}")


def canonical_row(row: Iterable[Value]) -> tuple:
    """A result row's canonical form: its values' canonical forms."""
    return tuple(map(canonical, row))


def canonical_hash(value: Value) -> int:
    """``hash(canonical(value))``, computed once per object: an object
    keeps it in ``key_hash``, an atomic value hashes its text, and any
    other value hashes its canonical form."""
    if isinstance(value, AtomicValue):
        return hash(value.text)
    if isinstance(value, ObjectValue):
        if value.key_hash is None:
            object.__setattr__(value, "key_hash", hash(canonical(value)))
        return value.key_hash
    return hash(canonical(value))


_T = TypeVar("_T")
_ABSENT = object()


def first_distinct(
    digested: Iterable[tuple[int, _T]], key: Callable[[_T], object]
) -> tuple[list[_T], list[int]]:
    """The first occurrence of each item under ``key`` equality, in order,
    with its digest.

    ``digested`` pairs each item with the hash of its key.  Items are told
    apart by digest; keys are built only when two digests agree, to keep
    a true duplicate out or let a collision in.
    """
    kept: dict[int, _T] = {}
    collided: dict[int, list[_T]] = {}
    items: list[_T] = []
    digests: list[int] = []
    for digest, item in digested:
        twin = kept.get(digest, _ABSENT)
        if twin is _ABSENT:
            kept[digest] = item
        else:
            form = key(item)
            if key(twin) == form or any(key(other) == form for other in collided.get(digest, ())):
                continue
            collided.setdefault(digest, []).append(item)
        items.append(item)
        digests.append(digest)
    return items, digests
