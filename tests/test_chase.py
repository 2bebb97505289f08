"""The restricted chase: which constraints are enforced, and how."""

import random

from pdes.core import NULL, Atom, Instance, Schema, atom
from pdes.chase import head_options, r_chase
from pdes.lang import parse_constraint
from pdes.nullsem import (holds_instantiation, instantiations, n_holds,
                          working_universe)

SIGMA_TEXT = [
    "forall x,y : T(x,y) -> R(x,y)",
    "forall x,y,z : R(x,y), S(y,z) -> Q(x,y,z) or T(x,z)",
    "forall x,y,z : Q(x,y,z) -> S(x,y), R(y,z)",
    "forall x,y,z : T(x,y), T(x,z) -> y = z",
    "forall x,y : T(x,y), S(x,y) -> false",
    "forall x,y : R(x,y) -> exists z : Q(x,y,z), x != y",
    "forall x,y,z : Q(x,y,z) -> exists w : R(x,z), S(x,w)",
]
SIGMA = tuple(parse_constraint(t) for t in SIGMA_TEXT)
SCHEMA = Schema({"T": 2, "R": 2, "S": 2, "Q": 3})


def chase(atoms, sigma=SIGMA):
    return r_chase(Instance(set(atoms), SCHEMA), sigma)


class TestSplit:
    def test_non_existential_constraints_kept(self):
        assert [c.is_existential for c in SIGMA] == [False] * 5 + [True] * 2
        assert not any(c.problematic for c in SIGMA)

    def test_problematic_existential_detection(self):
        c = parse_constraint("forall x : R0(x) -> exists y : T(x,y), S0(y)")
        assert c.problematic
        d = Instance({atom("R0", "a")}, Schema({"R0": 1, "T": 2, "S0": 1}))
        assert r_chase(d, (c,)).atoms == d.atoms
        simple = parse_constraint("forall x,y : R(x,y) -> exists z : Q(x,y,z)")
        assert not simple.problematic


class TestChaseSteps:
    def test_null_in_relevant_position_blocks_firing(self):
        out = chase([atom("T", "a", NULL)], SIGMA[:1])
        assert atom("R", "a", NULL) not in out

    def test_non_null_tuple_fires(self):
        out = chase([atom("T", "a", "b")], SIGMA[:1])
        assert atom("R", "a", "b") in out

    def test_builtin_in_consequent_blocks_generation(self):
        out = chase([atom("R", "a", "a")], (SIGMA[5],))
        assert set(out.atoms) == {atom("R", "a", "a")}

    def test_existential_fires_with_null_witness(self):
        out = chase([atom("R", "a", "b")], (SIGMA[5],))
        assert atom("Q", "a", "b", NULL) in out

    def test_disjunctive_head_generates_both_disjuncts(self):
        out = chase([atom("R", "a", "b"), atom("S", "b", "c")], (SIGMA[1],))
        assert atom("Q", "a", "b", "c") in out
        assert atom("T", "a", "c") in out

    def test_null_witness_does_not_retrigger_relevant_constraint(self):
        out = chase([atom("Q", "a", "b", NULL)], (SIGMA[2],))
        assert set(out.atoms) == {atom("Q", "a", "b", NULL)}

    def test_unenforced_fd_violation_survives(self):
        out = chase([atom("T", "a", "b"), atom("T", "a", "c")])
        assert not n_holds(out, SIGMA[3])

    def test_unenforced_denial_violation_survives(self):
        out = chase([atom("T", "a", "b"), atom("S", "a", "b")])
        assert not n_holds(out, SIGMA[4])


def random_instance(rng):
    dom = ["a", "b", "c", NULL]
    atoms = set()
    for _ in range(rng.randint(0, 6)):
        pred = rng.choice(["T", "R", "S", "Q"])
        k = 3 if pred == "Q" else 2
        atoms.add(Atom(pred, tuple(rng.choice(dom) for _ in range(k))))
    return Instance(atoms, SCHEMA)


class TestChaseLaws:
    # Constraints whose head can always be materialized; equalities,
    # denials and builtin-constrained disjuncts may stay violated.
    GENERATING = tuple(SIGMA[i] for i in (0, 1, 2, 6))

    def test_laws_on_random_instances(self):
        rng = random.Random(20240817)
        for _ in range(200):
            d = random_instance(rng)
            out = r_chase(d, SIGMA)
            # inflationary
            assert d.atoms <= out.atoms
            # fixpoint: a second pass adds nothing
            assert r_chase(out, SIGMA).atoms == out.atoms
            # generating constraints hold in the result
            for c in self.GENERATING:
                assert n_holds(out, c), (sorted(map(str, d)), str(c))

    def test_semi_naive_rounds_match_a_naive_fixpoint(self):
        rng = random.Random(20240817)
        for _ in range(200):
            d = random_instance(rng)
            assert r_chase(d, SIGMA).atoms == naive_chase(d, SIGMA), \
                sorted(map(str, d))


def naive_chase(d, sigma):
    """The restricted chase as a naive fixpoint: each round re-checks
    every instantiation of the enforced constraints."""
    sigma = [c for c in sigma if not c.problematic]
    universe = sorted(working_universe(d, *sigma))
    cur = d.atoms
    while True:
        inst = Instance(cur, d.schema)
        new = set()
        for c in sigma:
            for s in instantiations(inst, c, universe):
                if not holds_instantiation(inst, c, s, False):
                    for atoms in head_options(c, s, [NULL]):
                        new |= atoms
        if new <= cur:
            return cur
        cur = cur | new
