"""The object database."""

import pytest

from repro.db.model import Database, iter_objects
from repro.db.values import ObjectValue, SetValue, TupleValue, atom
from repro.errors import DatabaseError


def sample_root() -> SetValue:
    return SetValue(
        [
            ObjectValue("Ref", {"Key": atom("a")}),
            ObjectValue(
                "Ref",
                {
                    "Key": atom("b"),
                    "Meta": TupleValue(
                        "Meta", {"Owner": ObjectValue("Person", {"N": atom("p")})}
                    ),
                },
            ),
        ]
    )


class TestDatabase:
    def test_load_value_walks_nested_objects(self):
        database = Database()
        loaded = database.load_value(sample_root())
        assert loaded == 3
        assert len(database.extent("Ref")) == 2
        assert len(database.extent("Person")) == 1
        assert database.classes == ("Person", "Ref")
        assert database.object_count == 3

    def test_insert_idempotent(self):
        database = Database()
        obj = ObjectValue("Ref", {})
        database.insert(obj)
        database.insert(obj)
        assert len(database.extent("Ref")) == 1

    def test_unknown_extent_empty(self):
        assert Database().extent("Nope") == ()

    def test_require_class(self):
        database = Database()
        with pytest.raises(DatabaseError):
            database.require_class("Ref")
        database.insert(ObjectValue("Ref", {}))
        assert len(database.require_class("Ref")) == 1

    def test_extent_preserves_insertion_order(self):
        database = Database()
        first = ObjectValue("Ref", {"Key": atom("1")})
        second = ObjectValue("Ref", {"Key": atom("2")})
        database.insert(first)
        database.insert(second)
        assert database.extent("Ref") == (first, second)


class TestIterObjects:
    def test_preorder(self):
        root = sample_root()
        classes = [obj.class_name for obj in iter_objects(root)]
        assert classes.count("Ref") == 2
        assert classes.count("Person") == 1

    def test_atomic_has_none(self):
        assert list(iter_objects(atom("x"))) == []
