"""Atoms, schemas, instances, and the information order on constants."""

from itertools import product

import pytest

from pdes.core import (DEFAULT_CAP, NULL, Budget, CapExceeded, Instance,
                       Partition, Schema, SchemaError, active_domain, atom,
                       atom_sort_key, capped, const_leq, restrict)
from pdes.deffile import parse_definition
from pdes.repair import RepairSet
from pdes.system import PcaResult, PdesSchema, SolutionResult


def budget_of(cap: int) -> Budget:
    """A budget as a search starting under capped(cap) builds it."""
    with capped(cap):
        return Budget()


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
        with pytest.raises(SchemaError) as e:
            Schema({"R": 2, "S": 1}).restrict(["T"])
        assert str(e.value) == "unknown predicates ['T']"


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
        d2 = Instance(d.atoms | {atom("R", "a", "b")}, d.schema)
        assert len(d2) == 1
        assert len(d) == 0

    def test_active_domain_excludes_nothing(self):
        d = Instance({atom("R", "a", NULL)}, self.SCHEMA)
        assert active_domain(d) == {"a", NULL}

    def test_lookup_buckets_are_slices_of_the_predicate(self):
        # each atom once, in no promised order: a reader of order sorts
        # (`nullsem.in_order`, checked against `atom_sort_key` order in
        # test_nullsem)
        s = Schema({"R": 2, "S": 1})
        d = Instance({atom("R", a, b) for a in ("10", "9", "x", NULL)
                      for b in ("b", "a", "2")} | {atom("S", "a")}, s)
        rs = sorted((a for a in d.atoms if a.pred == "R"), key=atom_sort_key)
        assert sorted(d.lookup("R"), key=atom_sort_key) == rs
        for b in ("b", "a", "2", "c"):
            assert sorted(d.lookup("R", (1,), (b,)), key=atom_sort_key) == [
                a for a in rs if a.args[1] == b]
        assert list(d.lookup("R", (0, 1), ("9", "2"))) == [
            atom("R", "9", "2")]
        assert list(d.lookup("T")) == []

    def test_restrict_drops_other_preds(self):
        s = Schema({"R": 2, "S": 1})
        d = Instance({atom("R", "a", "b"), atom("S", "a")}, s)
        assert set(restrict(d, ["S"]).atoms) == {atom("S", "a")}


class TestRecords:
    """Value records are NamedTuples; `Instance`, `RepairSet` and
    `PdesSchema` are plain records whose caches and indexes stay outside
    ==, hash and repr."""

    SCHEMA = Schema({"R": 2})

    def test_instance_caches_its_domain_and_universes(self):
        d = Instance({atom("R", "a", "b")}, self.SCHEMA)
        assert d.domain is d.domain == {"a", "b"}
        assert d.universes is d.universes
        assert {"domain", "universes"} <= set(vars(d))

    def test_instance_index_is_outside_equality(self):
        d, e = (Instance({atom("R", "a", "b")}, self.SCHEMA)
                for _ in range(2))
        before = repr(d)
        assert d.lookup("R", (0,), ("a",)) == [atom("R", "a", "b")]
        assert d._index != e._index
        assert d == e and repr(d) == repr(e) == before
        assert repr(d) == "Instance(atoms=frozenset({Atom(pred='R', " \
            "args=('a', 'b'))}), schema=Schema(arities={'R': 2}))"
        assert d != Instance(set(), self.SCHEMA)
        assert d != (d.atoms, d.schema) and (d.atoms, d.schema) != d
        with pytest.raises(TypeError):  # its schema holds a dict
            hash(d)

    def test_repair_set_caches_repairs_and_leaves_budget_out(self):
        states = (frozenset({atom("R", "a", "b")}), frozenset())
        r, s = (RepairSet(frozenset(), (states,), self.SCHEMA, budget_of(n))
                for n in (1, 99))
        assert r == s and repr(r) == repr(s)
        assert "budget" not in repr(r)
        assert r.repairs is r.repairs
        assert [set(d.atoms) for d in r.repairs] == [
            {atom("R", "a", "b")}, set()]
        assert r != RepairSet(frozenset(), (states[:1],), self.SCHEMA,
                              budget_of(1))

    def test_pdes_schema_indexes_are_outside_equality(self):
        text = ("peer P : R/1\npeer Q : S/1\ntrust P less Q\n"
                "dec P Q : forall x : S(x) -> R(x)\n")
        a, b = (parse_definition(text).system for _ in range(2))
        assert a._succ == {"P": {"Q"}, "Q": frozenset()}
        assert a._kind == {("P", "Q"): "less"}
        b._succ, b._kind = {}, {}
        assert a == b and repr(a) == repr(b)
        assert "_succ" not in repr(a) and "_kind" not in repr(a)
        assert a != PdesSchema(a.peers, a.schemas, a.sigma, a.trust, "delta")

    def test_records_refuse_assignment(self):
        records = [(atom("R", "a"), "pred"), (PcaResult("P", frozenset(),
                                                         False), "answers")]
        for rec, name in records:
            hash(rec)
            with pytest.raises(AttributeError):
                setattr(rec, name, "x")
        for rec, name in [(self.SCHEMA, "arities"), (SolutionResult(
                "P", (), Instance(set(), self.SCHEMA), False), "core")]:
            with pytest.raises(AttributeError):
                setattr(rec, name, "x")


def test_cap_exceeded_carries_numbers():
    e = CapExceeded(10, 1000)
    assert e.cap == 10 and e.needed == 1000
    assert "10" in str(e)


def test_capped_sets_the_cap_for_its_block_only():
    assert Budget().cap == DEFAULT_CAP
    with capped(5):
        with capped(3):
            assert Budget().cap == 3
        assert Budget().cap == 5
    with pytest.raises(CapExceeded), capped(7):
        Budget().charge(8)
    assert Budget().cap == DEFAULT_CAP


class TestPartition:
    def test_item_never_joined_is_its_own_group(self):
        assert Partition().find("x") == "x"

    @pytest.mark.parametrize("unions", [
        [("d", "c"), ("c", "b"), ("e", "a"), ("b", "e")],
        [("a", "e"), ("b", "c"), ("d", "c"), ("e", "d")],
        [("e", "d", "c", "b", "a")],
    ])
    def test_group_is_named_by_its_least_item(self, unions):
        part = Partition()
        for items in unions:
            part.union(items)
        part.union(["y", "z"])
        assert {x: part.find(x) for x in "abcdeyz"} == {
            **dict.fromkeys("abcde", "a"), "y": "y", "z": "y"}


class TestChoices:
    def test_first_part_varies_slowest(self):
        parts = [(frozenset("a"), frozenset("b")),
                 (frozenset("c"), frozenset("d"))]
        assert list(budget_of(4).choices(parts, frozenset("s"))) == [
            frozenset("sac"), frozenset("sad"), frozenset("sbc"),
            frozenset("sbd")]

    def test_no_part_is_the_base_alone(self):
        budget = budget_of(0)
        assert list(budget.choices([], frozenset("s"))) == [frozenset("s")]
        assert budget.used == 0

    def test_one_part_charges_nothing(self):
        budget = budget_of(0)
        states = (frozenset("a"), frozenset("b"), frozenset("c"))
        assert list(budget.choices([states])) == list(states)
        assert budget.used == 0

    def test_two_parts_charge_their_product_once(self):
        budget = budget_of(6)
        parts = [(frozenset("a"), frozenset("b")),
                 (frozenset("c"), frozenset("d"), frozenset("e"))]
        assert len(list(budget.choices(parts))) == 6
        assert budget.used == 6

    def test_cap_is_exceeded_before_the_first_choice(self):
        budget = budget_of(5)
        parts = [(frozenset("a"), frozenset("b")),
                 (frozenset("c"), frozenset("d"), frozenset("e"))]
        with pytest.raises(CapExceeded) as e:
            next(budget.choices(parts))
        assert (e.value.needed, budget.used) == (6, 0)
