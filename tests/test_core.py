"""Atoms, schemas, instances, and the information order on constants."""

from itertools import product

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

    # int() reads 1 and 01 alike, and 10 and 1_0; and numbers compared
    # numerically but words by text gave the cycle 10 < 1a < 9 < 10
    @pytest.mark.parametrize("lo,hi", [("01", "1"), ("10", "1_0"),
                                       ("9", "10"), ("9", "1a"),
                                       ("10", "1a"), ("9", "10a")])
    def test_distinct_constants_are_strictly_ordered(self, lo, hi):
        assert const_leq(lo, hi) and not const_leq(hi, lo)

    def test_strict_order_is_transitive(self):
        cs = ("10", "1_0", "01", "1", "9", "1a")

        def lt(a, b):
            return const_leq(a, b) and a != b
        for a, b, c in product(cs, repeat=3):
            assert not (lt(a, b) and lt(b, c)) or lt(a, c), (a, b, c)


class TestSchema:
    def test_arity_lookup(self):
        s = Schema({"R": 2, "S": 1})
        assert s.arity("R") == 2
        assert "S" in s and "T" not in s

    def test_unknown_pred_raises(self):
        with pytest.raises(SchemaError):
            Schema({"R": 2}).arity("T")

    def test_check_names_predicate_arity_and_place(self):
        s = Schema({"R": 2})
        s.check("R", 2, "here")
        with pytest.raises(SchemaError, match="unknown predicate 'T' in here"):
            s.check("T", 2, "here")
        with pytest.raises(SchemaError,
                           match="'R' has arity 2, not 1, in here"):
            s.check("R", 1, "here")

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

    def test_lookup_buckets_are_sorted_slices_of_the_predicate(self):
        s = Schema({"R": 2, "S": 1})
        d = Instance({atom("R", a, b) for a in ("10", "9", "x", NULL)
                      for b in ("b", "a", "2")} | {atom("S", "a")}, s)
        rs = sorted((a for a in d.atoms if a.pred == "R"), key=atom_sort_key)
        assert list(d.lookup("R")) == rs
        for b in ("b", "a", "2", "c"):
            assert list(d.lookup("R", (1,), (b,))) == [
                a for a in rs if a.args[1] == b]
        assert list(d.lookup("R", (0, 1), ("9", "2"))) == [
            atom("R", "9", "2")]
        assert list(d.lookup("T")) == []

    def test_restrict_drops_other_preds(self):
        s = Schema({"R": 2, "S": 1})
        d = Instance({atom("R", "a", "b"), atom("S", "a")}, s)
        assert set(restrict(d, ["S"]).atoms) == {atom("S", "a")}


def test_cap_exceeded_carries_numbers():
    e = CapExceeded(10, 1000)
    assert e.cap == 10 and e.needed == 1000
    assert "10" in str(e)
