"""The in-memory object database.

A :class:`Database` holds class extents (ordered lists of
:class:`~repro.db.values.ObjectValue`).  Loading the database image of a
file means inserting every object reachable from the image's root value —
exactly the paper's baseline pipeline: "construct the database image of the
file (i.e. parse the file using the structuring schema, construct the
objects/tuples, and load them into the database)".
"""

from __future__ import annotations

from typing import Iterator

from repro.db.values import (
    ListValue,
    ObjectValue,
    SetValue,
    TupleValue,
    Value,
)
from repro.errors import DatabaseError


class Database:
    """Class extents over immutable objects."""

    def __init__(self) -> None:
        self._extents: dict[str, list[ObjectValue]] = {}
        self._oids: set[int] = set()

    def insert(self, obj: ObjectValue) -> None:
        """Insert one object into its class extent (idempotent per oid)."""
        if obj.oid in self._oids:
            return
        self._oids.add(obj.oid)
        self._extents.setdefault(obj.class_name, []).append(obj)

    def load_value(self, value: Value) -> int:
        """Insert every object reachable from ``value``; return how many
        objects were inserted."""
        before = len(self._oids)
        for obj in iter_objects(value):
            self.insert(obj)
        return len(self._oids) - before

    def extent(self, class_name: str) -> tuple[ObjectValue, ...]:
        """All objects of a class (empty for unknown classes)."""
        return tuple(self._extents.get(class_name, ()))

    @property
    def classes(self) -> tuple[str, ...]:
        return tuple(sorted(self._extents))

    @property
    def object_count(self) -> int:
        return len(self._oids)

    def require_class(self, class_name: str) -> tuple[ObjectValue, ...]:
        if class_name not in self._extents:
            raise DatabaseError(
                f"no extent for class {class_name!r} (loaded classes: "
                f"{', '.join(self.classes) or 'none'})"
            )
        return self.extent(class_name)


def iter_objects(value: Value) -> Iterator[ObjectValue]:
    """All :class:`ObjectValue` nodes reachable from ``value`` (pre-order)."""
    if isinstance(value, ObjectValue):
        yield value
        for child in value.attributes.values():
            yield from iter_objects(child)
    elif isinstance(value, TupleValue):
        for child in value.attributes.values():
            yield from iter_objects(child)
    elif isinstance(value, (SetValue, ListValue)):
        for element in value:
            yield from iter_objects(element)
