"""Repairs of a single instance under the two minimality preorders."""

import random

import pytest

from pdes import repair
from pdes.core import (NULL, Atom, CapExceeded, Instance, Schema, SchemaError,
                       atom, capped)
from pdes.chase import r_chase
from pdes.lang import Constraint, parse_constraint
from pdes.nullsem import n_holds, working_universe
from pdes.repair import (closeness_profile, closer_leq, closer_lt, delta_lt,
                         delta_repairs, exhaustive_null_repairs, info_leq,
                         null_repairs)
from reference import exhaustive_delta_repairs


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
    BASE = frozenset({atom("R", "a"), atom("R", "b")})

    def delta(self, *consts):
        """The changes of the instance R(consts) against BASE."""
        return self.BASE ^ {atom("R", c) for c in consts}

    def test_reflexive_and_monotone(self):
        assert not delta_lt(self.delta("a", "b"), self.delta("a", "b"))
        assert delta_lt(self.delta("a"), self.delta())
        assert not delta_lt(self.delta(), self.delta("a"))

    def test_incomparable_changes(self):
        assert not delta_lt(self.delta("a"), self.delta("b"))
        assert not delta_lt(self.delta("b"), self.delta("a"))


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


    def test_six_atom_input_has_its_one_repair(self):
        # no T atom can stand beside the S atom that T(x,y) -> S(x,y)
        # demands, so the one repair deletes the four U atoms
        base = Instance({atom("S", "2", "a"), atom("S", "3", "b"),
                         atom("U", "1", NULL), atom("U", "2", "b"),
                         atom("U", "2", NULL), atom("U", "3", "b")},
                        Schema({"S": 2, "T": 2, "U": 2}))
        sigma = tuple(parse_constraint(t) for t in (
            "forall x,y : T(x,y), S(x,y) -> false",
            "forall x,y : U(x,y) -> exists z : T(x,z)",
            "forall x,y : T(x,y) -> S(x,y)"))
        with capped(4_000):
            rs = delta_repairs(base, sigma)
            assert [r.atoms for r in rs.repairs] == [
                frozenset({atom("S", "2", "a"), atom("S", "3", "b")})]


# null_repairs and r_chase widened the schema by R, delta_repairs refused
# it through the per-state instance check
@pytest.mark.parametrize("route", [null_repairs, delta_repairs, r_chase])
def test_constraint_outside_the_base_schema_is_refused(route):
    base = Instance({atom("T", "a", "b")}, Schema({"T": 2}))
    sigma = (parse_constraint("forall x,y : T(x,y) -> R(x,y)"),)
    with pytest.raises(SchemaError, match="unknown predicate 'R' in forall"):
        route(base, sigma)


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


# a head-only universal beside a problematic constraint's constant k
_PROBLEMATIC_CONSTANT = (
    Instance({atom("T", "a")}, Schema({"T": 1, "U": 2, "W": 2})),
    (parse_constraint("forall x,y : T(x) -> U(x,y)"),
     parse_constraint("forall x : T(x) -> exists z : W(z,z) or x != k")))


# each keeps the null search on the join: an existential in no atom (not
# anchored), and two constraints with an empty body, which the parser
# does not write
_FALLBACK_SHAPES = (
    parse_constraint("forall x,y : T(x,y) -> exists z : S(x,y)"),
    Constraint((), (), parse_constraint("forall x : S(x,x) -> S(a,b)").head),
    Constraint((), (), parse_constraint(
        "forall x : S(x,x) -> exists z : T(a,z)").head))


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
            got = null_repairs(base, sigma, preds)
            want = exhaustive_null_repairs(base, sigma, preds)
            assert {r.atoms for r in got.repairs} == \
                {r.atoms for r in want.repairs}, \
                (sorted(map(str, base)), [str(c) for c in sigma], preds)

    def test_join_fallback_matches_frozen_aware_oracle(self, monkeypatch):
        joined = []
        real = repair._Search.parts

        def parts(self, state):
            got = real(self, state)
            joined.extend(rows is None for _, rows in got)
            return got
        monkeypatch.setattr(repair._Search, "parts", parts)
        rng = random.Random(3232)
        for _ in range(150):
            base, sigma = _random_case(rng, "TSU", _SHAPES + _COPY_SHAPES)
            sigma += (rng.choice(_FALLBACK_SHAPES),)
            preds = [p for p in "TSU" if rng.random() < 0.3]
            got = null_repairs(base, sigma, preds)
            want = exhaustive_null_repairs(base, sigma, preds)
            assert {r.atoms for r in got.repairs} == \
                {r.atoms for r in want.repairs}, \
                (sorted(map(str, base)), [str(c) for c in sigma], preds)
        assert len(joined) >= 30 and all(joined), joined

    @pytest.mark.xfail(
        strict=True,
        reason="y occurs only in the head, so the search ranges it over "
        "the chase's universe {1, 2, null}; the oracle reads each candidate "
        "over its own active domain and also keeps {T(1,1), U(1,1)}, which "
        "needs V(2,2) deleted, and no move deletes an atom that only "
        "widens the domain")
    def test_head_only_universal_matches_oracle(self):
        base = Instance({atom("T", "1", "1"), atom("V", "2", "2")},
                        Schema({"T": 2, "U": 2, "V": 2}))
        sigma = (parse_constraint("forall x,y : T(x,1) -> U(y,y)"),)
        got = {r.atoms for r in null_repairs(base, sigma).repairs}
        want = {r.atoms for r in exhaustive_null_repairs(base, sigma).repairs}
        assert len(got) == 2
        assert frozenset({atom("T", "1", "1"), atom("U", "1", "1")}) in want
        assert got == want

    @pytest.mark.xfail(
        strict=True,
        reason="y occurs only in the head, so the search ranges it over "
        "its universe, which holds k, the constant of a problematic "
        "constraint; the chase leaves that constraint out, so its universe "
        "lacks k and its pool lacks U(a,k): the forced insert has no "
        "grounding and the search finds no repair, while the oracle keeps "
        "{T(a), U(a,a), U(a,null)}")
    def test_problematic_constant_matches_oracle(self):
        base, sigma = _PROBLEMATIC_CONSTANT
        got = {r.atoms for r in null_repairs(base, sigma, {"T"}).repairs}
        want = {r.atoms for r in
                exhaustive_null_repairs(base, sigma, {"T"}).repairs}
        assert want == {frozenset({atom("T", "a"), atom("U", "a", "a"),
                                   atom("U", "a", NULL)})}
        assert got == want


_DELTA_SHAPES = tuple(parse_constraint(t) for t in (
    "forall x,y,z : T(x,y), T(x,z) -> y = z",
    "forall x,y : T(x,y) -> T(y,x)",
    "forall x,y : T(x,y) -> exists z : T(y,z)",
    "forall x : T(x,x) -> false",
    "forall x,y : T(x,y) -> S(x)",
    "forall x,y : T(x,y) -> S(x) or S(y)"))


class TestDeltaOracleCrossCheck:
    def test_drawn_tiny_cases_match_the_enumeration(self, monkeypatch):
        # a universe of at most three values, null among them, so the
        # Herbrand base of T/2 and S/1 holds at most 12 atoms
        seen = _spy_parts(monkeypatch)
        rng = random.Random(5)
        for _ in range(400):
            vals = rng.sample(["1", "2", NULL], rng.randint(1, 3))
            atoms = {Atom("T", (rng.choice(vals), rng.choice(vals)))
                     for _ in range(rng.randint(1, 5))}
            atoms |= {Atom("S", (rng.choice(vals),))
                      for _ in range(rng.randint(0, 2))}
            base = Instance(atoms, Schema({"T": 2, "S": 1}))
            sigma = tuple(rng.sample(_DELTA_SHAPES, rng.randint(1, 3)))
            preds = [p for p in "TS" if rng.random() < 0.2]
            with capped(5_000):
                got = {r.atoms for r in delta_repairs(base, sigma,
                                                      preds).repairs}
            assert got == exhaustive_delta_repairs(base, sigma, preds), \
                (sorted(map(str, base)), [str(c) for c in sigma], preds)
        assert sum(n >= 2 for n in seen) >= 5, seen


class TestChaseBound:
    """The search chases only when it reads the chase: to ground a
    violated head, to split or to profile. Every repair it finds lies
    inside the chase, and the chase adds no value to the universe the
    search ranges over."""

    @staticmethod
    def _check(base, sigma, preds=()):
        bound = r_chase(base, sigma)
        for r in null_repairs(base, sigma, preds).repairs:
            assert r.atoms <= bound.atoms, \
                (sorted(map(str, base)), [str(c) for c in sigma], preds,
                 sorted(map(str, r)))
        assert working_universe(bound, *sigma) == \
            working_universe(base, *sigma)

    def test_drawn_repairs_lie_inside_the_chase(self):
        rng = random.Random(909)
        for _ in range(300):
            base, sigma = _random_case(rng, "TSU", _SHAPES + _COPY_SHAPES)
            preds = [p for p in "TSU" if rng.random() < 0.4]
            self._check(base, sigma, preds)

    def test_a_head_only_universal_is_not_grounded_unbounded(self):
        # the copy rule's y ranges over k, which the chase never reaches
        base, sigma = _PROBLEMATIC_CONSTANT
        self._check(base, sigma, {"T"})


def _multi_part_case(rng):
    """Several keys, each a conflict of its own under the key-joined
    shapes, with nulls in the data."""
    schema = Schema({"T": 2, "S": 2, "U": 2})
    atoms = {Atom(rng.choice("TSU"), (rng.choice("123"),
                                     rng.choice(["a", "b", NULL])))
             for _ in range(rng.randint(3, 6))}
    sigma = tuple(parse_constraint(t) for t in
                  rng.sample(_SHAPES + _COPY_SHAPES, rng.randint(1, 3)))
    return Instance(atoms, schema), sigma


def _spy_parts(monkeypatch):
    """Record the number of parts of every split search."""
    seen = []
    real = repair._Search.parts

    def spy(self, state):
        parts = real(self, state)
        seen.append(len(parts))
        return parts
    monkeypatch.setattr(repair._Search, "parts", spy)
    return seen


class TestConflictParts:
    def test_multi_part_cases_match_frozen_aware_oracle(self, monkeypatch):
        seen = _spy_parts(monkeypatch)
        rng = random.Random(2024)
        for _ in range(150):
            base, sigma = _multi_part_case(rng)
            preds = [p for p in "TSU" if rng.random() < 0.3]
            got = null_repairs(base, sigma, preds)
            want = exhaustive_null_repairs(base, sigma, preds)
            assert {r.atoms for r in got.repairs} == \
                {r.atoms for r in want.repairs}, \
                (sorted(map(str, base)), [str(c) for c in sigma], preds)
        assert sum(n >= 2 for n in seen) >= 30, seen
        assert any(n >= 3 for n in seen), seen

    def test_comparable_atoms_across_parts_share_one_part(self, monkeypatch):
        # T(null,null) witnesses the chased U(1,null) in one instantiation
        # part; the chase's T(null,2) witnesses U(null,2) in the other,
        # and T(null,null) is below T(null,2) in the information order,
        # so the two are searched and minimised as one part
        seen = _spy_parts(monkeypatch)
        schema = Schema({"T": 2, "U": 2, "V": 2})
        base = Instance({atom("T", NULL, NULL), atom("U", NULL, "2"),
                         atom("V", "1", "2")}, schema)
        sigma = tuple(parse_constraint(t) for t in (
            "forall x,y : U(x,y) -> exists z : T(z,y)",
            "forall x,y : V(x,y) -> exists z : U(x,z)"))
        got = null_repairs(base, sigma)
        assert seen == [1]
        want = exhaustive_null_repairs(base, sigma)
        assert {r.atoms for r in got.repairs} == \
            {r.atoms for r in want.repairs}
        assert len(got.repairs) == 4

    def test_independent_keys_cost_linear_checks(self, monkeypatch):
        checks = []
        real = repair.holds_instantiation

        def counted(*args):
            checks.append(1)
            return real(*args)
        monkeypatch.setattr(repair, "holds_instantiation", counted)
        sigma = (parse_constraint("forall x,y,z : T(x,y), T(x,z) -> y = z"),)
        counts = {}
        for k in (4, 8):
            base = Instance({atom("T", "k%d" % i, v)
                             for i in range(k) for v in "01"},
                            Schema({"T": 2}))
            checks.clear()
            assert len(null_repairs(base, sigma).repairs) == 2 ** k
            counts[k] = len(checks)
        assert counts[8] <= 2.5 * counts[4], counts


class TestForcedBatch:
    """A forced violation leaves the batched child's violation list only
    when its insert makes it hold there; otherwise the child re-checks it
    and, finding no move left, ends as a dead end."""

    def test_null_witness_of_a_relevant_existential_is_rechecked(self):
        # the pool's one witness for y is null, which a relevant y rejects
        base = Instance({atom("R2", "a"), atom("R1", "a", NULL)},
                        Schema({"R2": 1, "R1": 2, "S1": 1}))
        sigma = (
            parse_constraint("forall x : R2(x) -> exists y : R1(x,y), S1(y)"),
            parse_constraint("forall x : R2(x) -> exists z : S1(z)"))
        for route in (null_repairs, exhaustive_null_repairs):
            assert route(base, sigma, frozen_preds={"R2"}).repairs == ()

    def test_builtin_only_existential_is_rechecked(self):
        # after T(2) goes, no value of the state's universe exceeds 1
        base = Instance({atom("R", "1"), atom("T", "2")},
                        Schema({"R": 1, "S": 1, "T": 1}))
        sigma = (parse_constraint("forall x : T(x) -> false"),
                 parse_constraint("forall x : R(x) -> exists y : S(x), y > x"))
        assert delta_repairs(base, sigma, frozen_preds={"R"}).repairs == ()


class TestSearchCap:
    SIGMA = (parse_constraint("forall x,y,z : T(x,y), T(x,z) -> y = z"),)
    BASE = Instance({atom("T", k, v) for k in "abcd" for v in "01"},
                    Schema({"T": 2}))

    def test_fd_over_four_keys_exceeds_a_small_cap(self):
        with capped(8), pytest.raises(CapExceeded):
            null_repairs(self.BASE, self.SIGMA)
        assert len(null_repairs(self.BASE, self.SIGMA).repairs) == 16

    def test_oracle_refuses_more_subsets_than_the_cap(self):
        # eight free atoms, so 2^8 subsets
        with capped(255), pytest.raises(CapExceeded) as err:
            exhaustive_null_repairs(self.BASE, self.SIGMA)
        assert (err.value.cap, err.value.needed) == (255, 256)
        with capped(256):
            rs = exhaustive_null_repairs(self.BASE, self.SIGMA)
        assert len(rs.repairs) == 16

    def test_split_delta_search_charges_states_then_product(self):
        # the delta search splits through its closure: its parts reach 8
        # states, and listing the 10 repairs charges their product, so
        # they fit a cap of 18 and not 17
        base = Instance({atom("T", "a", "b"), atom("T", "a", "c"),
                         atom("S", "b", "c")}, Schema({"T": 2, "S": 2}))
        sigma = self.SIGMA + (
            parse_constraint("forall x,y : S(x,y) -> exists z : T(x,z)"),)
        with capped(18):
            rs = delta_repairs(base, sigma)
            assert rs.budget.used == 8 and list(map(len, rs.parts)) == [5, 2]
            assert len(rs.repairs) == 10
        with capped(17), pytest.raises(CapExceeded):
            delta_repairs(base, sigma).repairs


class TestClosenessPreorder:
    SIGMA = (parse_constraint("forall x,y : T(x,y) -> S(x,y)"),)
    BASE = frozenset({atom("T", "a", "b")})

    def profile(self, *atoms):
        bound = r_chase(Instance(self.BASE, Schema({"T": 2, "S": 2})),
                        self.SIGMA).atoms
        return closeness_profile(frozenset(atoms), self.BASE, bound)

    def test_reflexive(self):
        base = self.profile(*self.BASE)
        assert closer_leq(base, base)
        assert not closer_lt(base, base)

    def test_fewer_changes_is_closer(self):
        fixed = self.profile(atom("T", "a", "b"), atom("S", "a", "b"))
        swapped = self.profile(atom("S", "a", "b"))
        assert closer_lt(fixed, swapped)

    def test_changes_of_different_preds_incomparable(self):
        fixed = self.profile(atom("T", "a", "b"), atom("S", "a", "b"))
        emptied = self.profile()
        assert not closer_leq(fixed, emptied)
        assert not closer_leq(emptied, fixed)

    def test_out_of_bound_instance_never_preferred(self):
        stray = self.profile(atom("S", "c", "c"))
        assert closer_leq(self.profile(*self.BASE), stray)
