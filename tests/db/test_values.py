"""The value model."""

import pytest
from hypothesis import given, strategies as st

from repro.db.values import (
    AtomicValue,
    ListValue,
    ObjectValue,
    SetValue,
    TupleValue,
    atom,
    canonical,
    canonical_hash,
    first_distinct,
)
from repro.errors import DatabaseError


class TestAtomic:
    def test_str(self):
        assert str(atom("x")) == "x"

    def test_type_tag_ignored_by_canonical(self):
        assert canonical(AtomicValue("x", "Key")) == canonical(AtomicValue("x"))


class TestTuple:
    def test_get(self):
        name = TupleValue("Name", {"Last_Name": atom("Chang")})
        assert name.get("Last_Name") == atom("Chang")
        assert name.has("Last_Name")
        assert not name.has("First_Name")

    def test_get_missing_raises(self):
        name = TupleValue("Name", {})
        with pytest.raises(DatabaseError):
            name.get("Last_Name")

    def test_equality_by_content(self):
        a = TupleValue("Name", {"x": atom("1")})
        b = TupleValue("Name", {"x": atom("1")})
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_on_type_name(self):
        assert TupleValue("A", {}) != TupleValue("B", {})


class TestSetAndList:
    def test_set_equality_ignores_order(self):
        a = SetValue([atom("1"), atom("2")])
        b = SetValue([atom("2"), atom("1")])
        assert a == b
        assert hash(a) == hash(b)

    def test_list_preserves_order(self):
        values = ListValue([atom("1"), atom("2")])
        assert [str(v) for v in values] == ["1", "2"]
        assert len(values) == 2

    def test_set_len_and_iter(self):
        values = SetValue([atom("1")])
        assert len(values) == 1
        assert list(values) == [atom("1")]


class TestObject:
    def test_identity_semantics(self):
        a = ObjectValue("Ref", {"Key": atom("k")})
        b = ObjectValue("Ref", {"Key": atom("k")})
        assert a != b
        assert a == a
        assert a.oid != b.oid

    def test_get_missing(self):
        obj = ObjectValue("Ref", {})
        with pytest.raises(DatabaseError):
            obj.get("Key")


class TestCanonical:
    def test_object_content_equality(self):
        a = ObjectValue("Ref", {"Key": atom("k")})
        b = ObjectValue("Ref", {"Key": atom("k")})
        assert canonical(a) == canonical(b)

    def test_nested_structures(self):
        value = SetValue(
            [TupleValue("Name", {"Last_Name": atom("Chang")})]
        )
        assert canonical(value) == frozenset(
            {("tuple", "Name", (("Last_Name", "Chang"),))}
        )

    def test_list_becomes_tuple(self):
        assert canonical(ListValue([atom("a")])) == ("a",)


# -- canonical hashes ---------------------------------------------------------------

_NAMES = st.sampled_from(["A", "B", "C"])


def _composites(children):
    attributes = st.dictionaries(_NAMES, children, max_size=3)
    return st.one_of(
        st.builds(TupleValue, _NAMES, attributes),
        st.builds(ObjectValue, _NAMES, attributes),
        st.builds(SetValue, st.lists(children, max_size=3)),
        st.builds(ListValue, st.lists(children, max_size=3)),
    )


#: Small alphabets, so that structurally equal values are drawn often.
VALUES = st.recursive(
    st.builds(AtomicValue, st.sampled_from(["x", "y"]), st.sampled_from(["", "T"])),
    _composites,
    max_leaves=8,
)


def _rebuilt(value):
    """A structural copy: fresh objects (new oids), set elements reversed."""
    if isinstance(value, ObjectValue):
        return ObjectValue(value.class_name, {k: _rebuilt(v) for k, v in value.attributes.items()})
    if isinstance(value, TupleValue):
        return TupleValue(value.type_name, {k: _rebuilt(v) for k, v in value.attributes.items()})
    if isinstance(value, SetValue):
        return SetValue(_rebuilt(v) for v in reversed(value.elements))
    if isinstance(value, ListValue):
        return ListValue(_rebuilt(v) for v in value)
    return value


class TestCanonicalHash:
    @given(VALUES, VALUES)
    def test_equal_forms_hash_equal(self, a, b):
        if canonical(a) == canonical(b):
            assert canonical_hash(a) == canonical_hash(b)
        assert canonical_hash(a) == hash(canonical(a))

    @given(VALUES)
    def test_a_structural_copy_hashes_equal(self, value):
        copy = _rebuilt(value)
        assert canonical(copy) == canonical(value)
        assert canonical_hash(copy) == canonical_hash(value)

    @given(VALUES)
    def test_the_kept_hash_changes_no_repr_or_equality(self, value):
        before, copy = repr(value), _rebuilt(value)
        canonical_hash(value)
        assert repr(value) == before
        assert "key_hash" not in before
        assert value == value
        if isinstance(value, ObjectValue):
            # Identity stays the object's equality and hash.
            assert value.key_hash == hash(canonical(value))
            assert value != copy and hash(value) == hash(value.oid)

    def test_the_kept_hash_is_used_on_later_calls(self):
        obj = ObjectValue("Ref", {"Key": atom("k")})
        assert obj.key_hash is None
        first = canonical_hash(obj)
        object.__setattr__(obj, "attributes", {"Key": atom("other")})
        assert canonical_hash(obj) == first


class TestFirstDistinct:
    def test_keeps_first_occurrences_in_order(self):
        items = ["a", "b", "a", "c", "b"]
        assert first_distinct(((hash(i), i) for i in items), str) == (
            ["a", "b", "c"],
            [hash("a"), hash("b"), hash("c")],
        )

    def test_a_collision_is_confirmed_on_the_key(self):
        items = ["a", "b", "a", "c", "b"]
        kept, digests = first_distinct(((0, i) for i in items), str)
        assert kept == ["a", "b", "c"] and digests == [0, 0, 0]
