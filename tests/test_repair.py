"""Repairs of a single instance under the two minimality preorders."""

import random

import pytest

from pdes.core import NULL, Atom, CapExceeded, Instance, Schema, atom
from pdes.chase import split_sigma
from pdes.lang import parse_constraint
from pdes.nullsem import n_holds
from pdes.repair import (closer_leq, closer_lt, delta_lt, delta_repairs,
                         exhaustive_null_repairs, info_leq, null_repairs)


class TestInformationOrder:
    def test_null_below_constant(self):
        assert info_leq(NULL, "a")
        assert not info_leq("a", NULL)

    def test_distinct_constants_incomparable(self):
        assert not info_leq("a", "b")

    def test_pointwise_on_tuples(self):
        assert info_leq((NULL, "b"), ("a", "b"))
        assert not info_leq((NULL, "b"), ("a", "c"))
        assert not info_leq(("a", "b"), (NULL, "b"))
        assert info_leq(("a", "b"), ("a", "b"))


class TestDeltaPreorder:
    SCHEMA = Schema({"R": 1})

    def mk(self, *consts):
        return Instance({atom("R", c) for c in consts}, self.SCHEMA)

    def test_reflexive_and_monotone(self):
        base = self.mk("a", "b")
        assert not delta_lt(base, base, base)
        assert delta_lt(self.mk("a"), self.mk(), base)
        assert not delta_lt(self.mk(), self.mk("a"), base)

    def test_incomparable_changes(self):
        base = self.mk("a", "b")
        assert not delta_lt(self.mk("a"), self.mk("b"), base)
        assert not delta_lt(self.mk("b"), self.mk("a"), base)


class TestDeletionOnlyRepairs:
    SIGMA = tuple(parse_constraint(t) for t in (
        "forall x,y,z : T(x,y), T(x,z) -> y = z",
        "forall x,y : T(x,y), S(x,y) -> false"))
    SCHEMA = Schema({"T": 2, "S": 2})
    BASE = Instance({atom("T", "a", "b"), atom("T", "a", "c"),
                     atom("S", "a", "c")}, SCHEMA)

    def test_null_repairs_resolve_both_violations(self):
        rs = null_repairs(self.BASE, self.SIGMA)
        sets = {frozenset(map(str, r.atoms)) for r in rs.repairs}
        assert {"T(a,b)", "S(a,c)"} in sets
        for r in rs.repairs:
            assert all(n_holds(r, c) for c in self.SIGMA)

    def test_matches_exhaustive_oracle(self):
        rs = null_repairs(self.BASE, self.SIGMA)
        oracle = exhaustive_null_repairs(self.BASE, self.SIGMA)
        assert {r.atoms for r in rs.repairs} == \
            {r.atoms for r in oracle.repairs}


class TestProblematicExistential:
    SIGMA = (parse_constraint("forall x : R(x) -> exists y : T(x,y), S(y)"),)
    SCHEMA = Schema({"R": 1, "T": 2, "S": 1})

    def test_only_repair_is_empty(self):
        base = Instance({atom("R", "a")}, self.SCHEMA)
        rs = null_repairs(base, self.SIGMA)
        assert [r.atoms for r in rs.repairs] == [frozenset()]

    def test_satisfied_base_untouched(self):
        base = Instance({atom("R", "a"), atom("T", "a", "b"),
                         atom("S", "b")}, self.SCHEMA)
        rs = null_repairs(base, self.SIGMA)
        assert [r.atoms for r in rs.repairs] == [base.atoms]


class TestDeltaRepairs:
    def test_fd_gives_two_deletion_repairs(self):
        schema = Schema({"T": 2})
        base = Instance({atom("T", "a", "b"), atom("T", "a", "c")}, schema)
        sigma = (parse_constraint("forall x,y,z : T(x,y), T(x,z) -> y = z"),)
        rs = delta_repairs(base, sigma)
        assert {r.atoms for r in rs.repairs} == {
            frozenset({atom("T", "a", "b")}),
            frozenset({atom("T", "a", "c")})}

    def test_insertion_repairs_found(self):
        schema = Schema({"R2": 2, "R1": 2})
        base = Instance({atom("R2", "a", "b")}, schema)
        sigma = (parse_constraint("forall x,y : R2(x,y) -> R1(x,y)"),)
        rs = delta_repairs(base, sigma, frozen_preds=["R2"])
        assert {r.atoms for r in rs.repairs} == {
            frozenset({atom("R2", "a", "b"), atom("R1", "a", "b")})}

    def test_frozen_atoms_cannot_be_deleted(self):
        schema = Schema({"T": 2})
        base = Instance({atom("T", "a", "b"), atom("T", "a", "c")}, schema)
        sigma = (parse_constraint("forall x,y,z : T(x,y), T(x,z) -> y = z"),)
        keep = atom("T", "a", "c")
        rs = delta_repairs(base, sigma, frozen_atoms=[keep])
        assert all(keep in r.atoms for r in rs.repairs)


_SHAPES = ("forall x,y,z : T(x,y), T(x,z) -> y = z",
           "forall x,y : T(x,y), S(x,y) -> false",
           "forall x,y : T(x,y) -> S(x,y)",
           "forall x,y : S(x,y) -> exists z : T(x,z)")
# copies out of U, which the frozen cross-check may freeze
_COPY_SHAPES = ("forall x,y : U(x,y) -> S(x,y)",
                "forall x,y : U(x,y) -> exists z : T(x,z)")


def _random_case(rng, preds="TS", shapes=_SHAPES):
    schema = Schema({p: 2 for p in preds})
    dom = ["a", "b", "c", NULL]
    atoms = {Atom(rng.choice(preds),
                  (rng.choice(dom), rng.choice(dom)))
             for _ in range(rng.randint(0, 4))}
    sigma = tuple(parse_constraint(t)
                  for t in rng.sample(shapes, rng.randint(1, 2)))
    return Instance(atoms, schema), sigma


class TestOracleCrossCheck:
    def test_branch_search_matches_exhaustive_enumeration(self):
        rng = random.Random(4242)
        for _ in range(100):
            base, sigma = _random_case(rng)
            got = null_repairs(base, sigma)
            want = exhaustive_null_repairs(base, sigma)
            assert {r.atoms for r in got.repairs} == \
                {r.atoms for r in want.repairs}, \
                (sorted(map(str, base)), [str(c) for c in sigma])

    def test_branch_search_matches_frozen_aware_oracle(self):
        rng = random.Random(777)
        for _ in range(200):
            base, sigma = _random_case(rng, "TSU", _SHAPES + _COPY_SHAPES)
            preds = [p for p in "TSU" if rng.random() < 0.4]
            pinned = [a for a in base if rng.random() < 0.3]
            got = null_repairs(base, sigma, preds, frozen_atoms=pinned)
            want = exhaustive_null_repairs(base, sigma, preds,
                                           frozen_atoms=pinned)
            assert {r.atoms for r in got.repairs} == \
                {r.atoms for r in want.repairs}, \
                (sorted(map(str, base)), [str(c) for c in sigma], preds,
                 list(map(str, pinned)))

    def test_oracle_keeps_frozen_atoms(self):
        schema = Schema({"T": 2, "U": 2})
        base = Instance({atom("T", "a", "b"), atom("T", "a", "c"),
                         atom("U", "b", "c")}, schema)
        sigma = (parse_constraint("forall x,y,z : T(x,y), T(x,z) -> y = z"),
                 parse_constraint("forall x,y : U(x,y) -> T(x,y)"))
        keep = atom("T", "a", "c")
        rs = exhaustive_null_repairs(base, sigma, ["U"], frozen_atoms=[keep])
        assert [r.atoms for r in rs.repairs] == [frozenset({
            keep, atom("U", "b", "c"), atom("T", "b", "c")})]


class TestSearchCap:
    SIGMA = (parse_constraint("forall x,y,z : T(x,y), T(x,z) -> y = z"),)
    BASE = Instance({atom("T", k, v) for k in "abcd" for v in "01"},
                    Schema({"T": 2}))

    def test_fd_over_four_keys_exceeds_a_small_cap(self):
        with pytest.raises(CapExceeded):
            null_repairs(self.BASE, self.SIGMA, cap=8)
        assert len(null_repairs(self.BASE, self.SIGMA).repairs) == 16


class TestClosenessPreorder:
    SIGMA = (parse_constraint("forall x,y : T(x,y) -> S(x,y)"),)
    SCHEMA = Schema({"T": 2, "S": 2})

    def split(self):
        return split_sigma(self.SIGMA)

    def test_reflexive(self):
        base = Instance({atom("T", "a", "b")}, self.SCHEMA)
        assert closer_leq(base, base, base, self.split())
        assert not closer_lt(base, base, base, self.split())

    def test_fewer_changes_is_closer(self):
        base = Instance({atom("T", "a", "b")}, self.SCHEMA)
        fixed = base.with_atoms({atom("S", "a", "b")})
        swapped = Instance({atom("S", "a", "b")}, self.SCHEMA)
        assert closer_lt(fixed, swapped, base, self.split())

    def test_changes_of_different_preds_incomparable(self):
        base = Instance({atom("T", "a", "b")}, self.SCHEMA)
        fixed = base.with_atoms({atom("S", "a", "b")})
        emptied = Instance(set(), self.SCHEMA)
        assert not closer_leq(fixed, emptied, base, self.split())
        assert not closer_leq(emptied, fixed, base, self.split())

    def test_out_of_bound_instance_never_preferred(self):
        base = Instance({atom("T", "a", "b")}, self.SCHEMA)
        stray = Instance({atom("S", "c", "c")}, self.SCHEMA)
        assert closer_leq(base, stray, base, self.split())
