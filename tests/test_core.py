"""Atoms, schemas, instances, and the information order on constants."""

import pytest

from pdes.core import (NULL, CapExceeded, Instance, Schema, SchemaError,
                       active_domain, atom, atom_sort_key, const_leq, restrict)


class TestAtom:
    def test_str(self):
        assert str(atom("R", "a", "1")) == "R(a,1)"

    def test_nullary_str(self):
        assert str(atom("P")) == "P()"

    def test_sort_key_orders_by_pred_then_args(self):
        xs = [atom("S", "a"), atom("R", "b"), atom("R", "a")]
        assert sorted(xs, key=atom_sort_key) == [
            atom("R", "a"), atom("R", "b"), atom("S", "a")]


class TestConstOrder:
    def test_numeric_when_both_integers(self):
        assert const_leq("2", "10")
        assert not const_leq("10", "2")

    def test_lexicographic_otherwise(self):
        assert const_leq("a", "b")
        assert not const_leq("b", "a")

    def test_reflexive(self):
        for c in ("a", "7"):
            assert const_leq(c, c)


class TestSchema:
    def test_arity_lookup(self):
        s = Schema({"R": 2, "S": 1})
        assert s.arity("R") == 2
        assert "S" in s and "T" not in s

    def test_unknown_pred_raises(self):
        with pytest.raises(SchemaError):
            Schema({"R": 2}).arity("T")

    def test_union_conflict_raises(self):
        with pytest.raises(SchemaError):
            Schema({"R": 2}).union(Schema({"R": 3}))

    def test_restrict(self):
        s = Schema({"R": 2, "S": 1}).restrict(["R"])
        assert s.preds() == ["R"]


class TestInstance:
    SCHEMA = Schema({"R": 2})

    def test_rejects_wrong_arity(self):
        with pytest.raises(SchemaError):
            Instance({atom("R", "a")}, self.SCHEMA)

    def test_rejects_unknown_pred(self):
        with pytest.raises(SchemaError):
            Instance({atom("T", "a", "b")}, self.SCHEMA)

    def test_membership_iteration_len(self):
        d = Instance({atom("R", "a", "b")}, self.SCHEMA)
        assert atom("R", "a", "b") in d
        assert len(d) == 1
        assert list(d) == [atom("R", "a", "b")]

    def test_with_without_atoms(self):
        d = Instance(set(), self.SCHEMA)
        d2 = d.with_atoms({atom("R", "a", "b")})
        assert len(d2) == 1
        assert len(d) == 0

    def test_active_domain_excludes_nothing(self):
        d = Instance({atom("R", "a", NULL)}, self.SCHEMA)
        assert active_domain(d) == {"a", NULL}

    def test_restrict_drops_other_preds(self):
        s = Schema({"R": 2, "S": 1})
        d = Instance({atom("R", "a", "b"), atom("S", "a")}, s)
        assert set(restrict(d, ["S"]).atoms) == {atom("S", "a")}


def test_cap_exceeded_carries_numbers():
    e = CapExceeded(10, 1000)
    assert e.cap == 10 and e.needed == 1000
    assert "10" in str(e)
