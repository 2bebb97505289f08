"""The import case: classification, least-model solving, local repair."""

import os

import pytest

from pdes.asp import asp_parts
from pdes.core import DEFAULT_CAP, SchemaError
from pdes.deffile import parse_definition
from pdes.importmode import (GENERAL, RESTRICTED, UNRESTRICTED, classify,
                             import_program, import_solve, least_model,
                             restricted_import_solve)
from pdes.system import _solve, peer_consistent_answers, solutions

from conftest import FIXTURES, load

# every fixture but the one refused at load time for its cycle
LOADABLE = sorted(n for n in os.listdir(FIXTURES) if n != "cyclic_graph.pdes")


def atoms_of(inst) -> set[str]:
    return set(map(str, inst.atoms))


def solution_sets(res) -> set[frozenset[str]]:
    return {frozenset(map(str, s.atoms)) for s in res.solutions}


class TestClassification:
    def test_copy_constraint_is_unrestricted(self):
        flags = classify(load("ex_6_1.pdes").system)
        assert set(flags.values()) == {UNRESTRICTED}

    def test_local_constraints_make_it_restricted(self):
        flags = classify(load("ex_5_12.pdes").system)
        assert flags["P1"] == RESTRICTED
        assert GENERAL not in flags.values()

    def test_denial_between_peers_is_general(self):
        assert classify(load("ex_2_2.pdes").system)["P2"] == GENERAL

    def test_head_variable_the_body_does_not_bind_is_general(self):
        # x occurs only in the head: no Datalog rule can bind it, and the
        # import fixpoint used to raise on it
        defn = parse_definition(
            "peer P1 : R1/2\npeer P2 : R2/2\ntrust P1 less P2\n"
            "dec P1 P2 : forall x,y : R2(a,y) -> R1(x,y)\n"
            "instance P2 : R2(a,b)\n")
        assert classify(defn.system)["P1"] == GENERAL
        with pytest.raises(SchemaError):
            import_solve(defn.system, "P1", defn.instance)


class TestUnrestrictedImport:
    def setup_method(self):
        self.defn = load("ex_6_1.pdes")

    def test_least_model_is_the_unique_solution(self):
        inst = import_solve(self.defn.system, "P1", self.defn.instance)
        assert atoms_of(inst) == {"R1(a,2)", "R1(d,5)"}

    def test_agrees_with_general_solver(self):
        res = solutions(self.defn.system, "P1", self.defn.instance)
        assert solution_sets(res) == {frozenset({"R1(a,2)", "R1(d,5)"})}

    def test_import_program_shape(self):
        from pdes.core import Instance
        dbar = Instance(
            self.defn.instance.of("P1").atoms
            | self.defn.instance.of("P2").atoms,
            self.defn.system.neighborhood_schema("P1"))
        prog = import_program(self.defn.system, "P1", dbar)
        assert len(prog.rules) == 1
        fixpoint = least_model(prog)
        assert atoms_of(fixpoint) >= {"R1(a,2)", "R1(d,5)"}


class TestExistentialImport:
    def test_null_witness_only_where_no_atom_witnesses(self):
        # R1(a,b) already witnesses the head for a; only c needs a null
        defn = parse_definition(
            "peer P1 : R1/2\npeer P2 : R2/1\ntrust P1 less P2\n"
            "dec P1 P2 : forall x : R2(x) -> exists z : R1(x,z)\n"
            "instance P1 : R1(a,b)\ninstance P2 : R2(a), R2(c)\n")
        sysm, d = defn.system, defn.instance
        want = {frozenset({"R1(a,b)", "R1(c,null)"})}
        assert {frozenset(atoms_of(import_solve(sysm, "P1", d)))} == want
        assert solution_sets(solutions(sysm, "P1", d)) == want
        assert solution_sets(
            _solve(sysm, "P1", d, asp_parts, DEFAULT_CAP, {})) == want

    def test_more_informative_null_atom_witnesses_first(self):
        # R1(a,null,b) witnesses both heads, R1(a,null,null) only one
        defn = parse_definition(
            "peer P1 : R1/3\npeer P2 : S/1\npeer P3 : T/1\n"
            "trust P1 less P2\ntrust P1 less P3\n"
            "dec P1 P2 : forall x : S(x) -> exists z : R1(x,z,b)\n"
            "dec P1 P3 : forall x : T(x) -> exists z,w : R1(x,z,w)\n"
            "instance P2 : S(a)\ninstance P3 : T(a)\n")
        sysm, d = defn.system, defn.instance
        want = {frozenset({"R1(a,null,b)"})}
        assert {frozenset(atoms_of(import_solve(sysm, "P1", d)))} == want
        assert solution_sets(solutions(sysm, "P1", d)) == want


class TestRestrictedImport:
    def test_conflicting_imports_leave_no_solution(self):
        defn = load("ex_5_12.pdes")
        res = restricted_import_solve(defn.system, "P1", defn.instance)
        assert res.inconsistent and not res.solutions
        general = solutions(defn.system, "P1", defn.instance)
        assert general.inconsistent

    def test_width_two_dependency_gives_two_solutions(self):
        defn = load("ex_5_13.pdes")
        res = restricted_import_solve(defn.system, "P", defn.instance)
        assert solution_sets(res) == {
            frozenset({"P0(a,d)", "P0(a,b)"}),
            frozenset({"P0(a,d)", "P0(a,c)"})}

    def test_general_peer_downstream_is_refused(self):
        # P1 imports from P2, which trusts P3 as much as itself: the
        # fixpoint would only insert R2(a), where a repair may also
        # delete R3(a)
        defn = parse_definition(
            "peer P1 : R1/1\npeer P2 : R2/1\npeer P3 : R3/1\n"
            "trust P1 less P2\ntrust P2 same P3\n"
            "dec P1 P2 : forall x : R2(x) -> R1(x)\n"
            "dec P2 P3 : forall x : R3(x) -> R2(x)\n"
            "instance P3 : R3(a)\n")
        assert classify(defn.system)["P1"] == UNRESTRICTED
        with pytest.raises(SchemaError, match="'P2' is not of the import"):
            restricted_import_solve(defn.system, "P1", defn.instance)

    def test_agrees_with_general_solver(self):
        defn = load("ex_5_13.pdes")
        res = restricted_import_solve(defn.system, "P", defn.instance)
        general = solutions(defn.system, "P", defn.instance)
        assert solution_sets(res) == solution_sets(general)


class TestInconsistentNeighbor:
    # P1 is ex_5_12's P1, whose two imports conflict under its local FD,
    # so P0 drops its exchange constraint toward P1
    TEXT = ("preorder %s\npeer P0 : S0/2\npeer P1 : R1/2\npeer P2 : R2/2\n"
            "peer P3 : R3/2\n"
            "trust P0 less P1\ntrust P1 less P2\ntrust P1 less P3\n"
            "dec P0 P1 : %s\n"
            "dec P1 P2 : forall x,y : R2(x,y) -> R1(x,y)\n"
            "dec P1 P3 : forall x,y : R3(x,y) -> R1(x,y)\n"
            "dec P1 P1 : forall x,y,z : R1(x,y), R1(x,z) -> y = z\n"
            "instance P0 : S0(k,l)\ninstance P2 : R2(a,b)\n"
            "instance P3 : R3(a,c)\n")
    COPY = "forall x,y : R1(x,y) -> S0(x,y)"
    # kept, this one would delete S0(k,l): R1(k,l) cannot be inserted
    GENERAL = "forall x,y : S0(x,y) -> R1(x,y)"

    @pytest.mark.parametrize("preorder", ["null", "delta"])
    @pytest.mark.parametrize("dec", [COPY, GENERAL], ids=["copy", "general"])
    def test_routes_agree_and_the_exchange_is_dropped(self, preorder, dec):
        defn = parse_definition(self.TEXT % (preorder, dec))
        sysm, d = defn.system, defn.instance
        assert solutions(sysm, "P1", d).inconsistent
        assert restricted_import_solve(sysm, "P1", d).inconsistent
        general = solutions(sysm, "P0", d)
        assert solution_sets(general) == {frozenset({"S0(k,l)"})}
        assert not general.inconsistent
        if dec == self.COPY:
            assert solution_sets(restricted_import_solve(sysm, "P0", d)) \
                == solution_sets(general)
        if preorder == "null":
            via_asp = _solve(sysm, "P0", d, asp_parts, DEFAULT_CAP, {})
            assert solution_sets(via_asp) == solution_sets(general)
            assert _solve(sysm, "P1", d, asp_parts, DEFAULT_CAP,
                          {}).inconsistent


class TestConsistentAnswersThroughImports:
    def test_three_peer_chain(self):
        defn = load("ex_6_5.pdes")
        res = peer_consistent_answers(defn.system, "P1", defn.instance,
                                      defn.queries["P1"])
        assert res.answers == {("a", "2"), ("d", "5")}


@pytest.mark.parametrize("name", LOADABLE)
def test_import_routes_agree_with_general_solver(name):
    """Wherever every accessible peer is of the import kind, the import
    routes and the general solver give the same solutions, including an
    inc_ marker spread from an inconsistent neighbor."""
    defn = load(name)
    sysm, d = defn.system, defn.instance
    flags = classify(sysm)
    checked = 0
    for p in sorted(sysm.peers):
        reached = {flags[q] for q in sysm.accessible(p)}
        if GENERAL in reached:
            continue
        checked += 1
        general = solutions(sysm, p, d)
        restricted = restricted_import_solve(sysm, p, d)
        assert solution_sets(restricted) == solution_sets(general), p
        assert restricted.inconsistent == general.inconsistent, p
        if reached == {UNRESTRICTED}:
            unique = import_solve(sysm, p, d)
            assert solution_sets(general) == {frozenset(atoms_of(unique))}, p
    assert checked
