"""The import case: classification, least-model solving, local repair."""

import os
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from pdes.asp import asp_parts
from pdes import importmode
from pdes.cli import main
from pdes.core import DEFAULT_CAP, Instance, SchemaError
from pdes.deffile import parse_definition
from pdes.importmode import (GENERAL, RESTRICTED, UNRESTRICTED, classify,
                             import_solve, least_model,
                             restricted_import_solve)
from pdes.repair import preorder_repairs
from pdes.system import (_solve, core_instance, peer_consistent_answers,
                         solutions)

from conftest import FIXTURES, HERE, load, solution_sets

sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
import families  # noqa: E402

# every fixture but the one refused at load time for its cycle
LOADABLE = sorted(n for n in os.listdir(FIXTURES) if n != "cyclic_graph.pdes")


def atoms_of(inst) -> set[str]:
    return set(map(str, inst.atoms))


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

    # the fixpoint cannot say "no solution" when the builtin fails
    BUILTIN_IN_HEAD = (
        "peer P1 : R/2\npeer P2 : S/1\ntrust P1 less P2\n"
        "dec P1 P2 : forall x : S(x) -> exists z : R(x,z), x > 3\n"
        "instance P2 : S(5), S(d)\n")

    def test_builtin_in_the_database_disjunct_is_general(self, tmp_path,
                                                          capsys):
        defn = parse_definition(self.BUILTIN_IN_HEAD)
        assert classify(defn.system)["P1"] == GENERAL
        res = solutions(defn.system, "P1", defn.instance)
        assert solution_sets(res.solutions) \
            == {frozenset({"R(5,null)", "R(d,null)"})}
        path = tmp_path / "builtin.pdes"
        path.write_text(self.BUILTIN_IN_HEAD, encoding="utf-8")
        assert main(["import-solve", str(path), "--peer", "P1"]) == 1
        assert "not of the import kind" in capsys.readouterr().err

    # under the delta preorder the witness may be any universe value, so
    # the import has several solutions, not one least model
    DELTA_EXISTENTIAL = (
        "preorder delta\npeer P1 : R/2\npeer P2 : S/2\ntrust P1 less P2\n"
        "dec P1 P2 : forall x,y : S(x,y) -> exists z : R(x,z)\n"
        "instance P2 : S(1,b)\n")

    def test_existential_import_under_delta_is_general(self, tmp_path,
                                                       capsys):
        defn = parse_definition(self.DELTA_EXISTENTIAL)
        res = solutions(defn.system, "P1", defn.instance)
        assert solution_sets(res.solutions) \
            == {frozenset({"R(1,1)"}), frozenset({"R(1,b)"}),
                frozenset({"R(1,null)"})}
        path = tmp_path / "delta.pdes"
        path.write_text(self.DELTA_EXISTENTIAL, encoding="utf-8")
        assert main(["check", str(path)]) == 0
        assert "import-kind P1: general" in capsys.readouterr().out
        assert main(["import-solve", str(path), "--peer", "P1"]) == 1
        assert capsys.readouterr().err == \
            "error: system is not of the import kind for peer 'P1'\n"
        with pytest.raises(SchemaError):
            least_model(defn.system, "P1", defn.instance.of("P2"))


class TestUnrestrictedImport:
    def setup_method(self):
        self.defn = load("ex_6_1.pdes")

    def test_least_model_is_the_unique_solution(self):
        inst = import_solve(self.defn.system, "P1", self.defn.instance)
        assert atoms_of(inst) == {"R1(a,2)", "R1(d,5)"}

    def test_agrees_with_general_solver(self):
        res = solutions(self.defn.system, "P1", self.defn.instance)
        assert solution_sets(res.solutions) == {
            frozenset({"R1(a,2)", "R1(d,5)"})}

    def test_least_model_over_the_neighborhood_instance(self):
        dbar = Instance(
            self.defn.instance.of("P1").atoms
            | self.defn.instance.of("P2").atoms,
            self.defn.system.neighborhood_schema("P1"))
        fixpoint = least_model(self.defn.system, "P1", dbar)
        assert atoms_of(fixpoint) >= {"R1(a,2)", "R1(d,5)"}

    def test_an_escape_holds_only_when_all_its_builtins_do(self):
        # S(a,c) meets x = a but not y = b, so it is copied
        defn = parse_definition(
            "peer P1 : R/2\npeer P2 : S/2\ntrust P1 less P2\n"
            "dec P1 P2 : forall x,y : S(x,y) -> x = a, y = b or R(x,y)\n"
            "instance P2 : S(a,b), S(a,c)\n")
        sysm, d = defn.system, defn.instance
        want = {frozenset({"R(a,c)"})}
        assert {frozenset(atoms_of(import_solve(sysm, "P1", d)))} == want
        assert solution_sets(solutions(sysm, "P1", d).solutions) == want


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
        assert solution_sets(solutions(sysm, "P1", d).solutions) == want
        assert solution_sets(_solve(sysm, "P1", d, asp_parts, DEFAULT_CAP,
                                    {}).solutions) == want

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
        assert solution_sets(solutions(sysm, "P1", d).solutions) == want

    def test_each_body_is_joined_once(self, monkeypatch):
        # two bodies, and one witness check per null head
        defn = parse_definition(
            "peer P1 : R1/3\npeer P2 : S/1\npeer P3 : T/1\n"
            "trust P1 less P2\ntrust P1 less P3\n"
            "dec P1 P2 : forall x : S(x) -> exists z : R1(x,z,b)\n"
            "dec P1 P3 : forall x : T(x) -> exists z,w : R1(x,z,w)\n"
            "instance P2 : S(a), S(c)\ninstance P3 : T(a), T(d)\n")
        sysm = defn.system
        dbar = Instance(defn.instance.of("P2").atoms
                        | defn.instance.of("P3").atoms,
                        sysm.neighborhood_schema("P1"))
        calls, checks = [], []
        join, holds = importmode.join, importmode.holds_instantiation

        def counted(d, atoms, *starts):
            calls.append(tuple(atoms))
            return join(d, atoms, *starts)

        def checked(d, c, s, classical):
            checks.append(s)
            return holds(d, c, s, classical)

        monkeypatch.setattr(importmode, "join", counted)
        monkeypatch.setattr(importmode, "holds_instantiation", checked)
        fixpoint = least_model(sysm, "P1", dbar)
        assert atoms_of(fixpoint) - atoms_of(dbar) == {
            "R1(a,null,b)", "R1(c,null,b)", "R1(d,null,null)"}
        bodies = {c.body for c in sysm.sigma_of("P1")}
        assert Counter(a for a in calls if a in bodies) == \
            dict.fromkeys(bodies, 1)
        assert len(calls) == len(bodies)
        assert len(checks) == 4


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
        assert solution_sets(res.solutions) == {
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

    def test_repair_keeps_the_exchange_constraints(self, tmp_path, capsys):
        # any R(1,z) breaks x != 1, so P1 has no solution; a repair
        # against the local constraint alone deletes R(1,c) and leaves
        # S(1,b) without a witness
        text = ("peer P1 : R/2\npeer P2 : S/2\ntrust P1 less P2\n"
                "dec P1 P2 : forall x,y : S(x,y) -> exists z : R(x,z)\n"
                "dec P1 P1 : forall x,y : R(x,y) -> x != 1\n"
                "instance P1 : R(1,c)\ninstance P2 : S(1,b)\n")
        defn = parse_definition(text)
        res = restricted_import_solve(defn.system, "P1", defn.instance)
        assert res.inconsistent and not res.solutions
        assert solutions(defn.system, "P1", defn.instance).inconsistent
        path = tmp_path / "local.pdes"
        path.write_text(text, encoding="utf-8")
        assert main(["import-solve", str(path), "--peer", "P1"]) == 0
        assert capsys.readouterr().out == "inconsistent: inc_P1()\n"

    def test_agrees_with_general_solver(self):
        defn = load("ex_5_13.pdes")
        res = restricted_import_solve(defn.system, "P", defn.instance)
        general = solutions(defn.system, "P", defn.instance)
        assert solution_sets(res.solutions) == solution_sets(general.solutions)


# under delta a null satisfies no copy vacuously: R1(a,null) is owed
DELTA_COPY = ("preorder delta\npeer P1 : R1/2\npeer P2 : R2/2\n"
              "trust P1 less P2\n"
              "dec P1 P2 : forall x,y : R2(x,y) -> R1(x,y)\n"
              "instance P2 : R2(a,null)\n")


def _count_searches(monkeypatch) -> list:
    """The calls the peer recursion makes to the repair search."""
    calls: list = []

    def counted(*args, **kwargs):
        calls.append(args)
        return preorder_repairs(*args, **kwargs)

    monkeypatch.setattr("pdes.system.preorder_repairs", counted)
    return calls


class TestFixpointUnderThePreorder:
    def test_delta_fixpoint_holds_every_import(self):
        defn = parse_definition(DELTA_COPY)
        sysm = defn.system
        dbar = core_instance(sysm, "P1", defn.instance)
        assert "R1(a,null)" in atoms_of(least_model(sysm, "P1", dbar))

    @pytest.mark.parametrize("text", [
        Path(FIXTURES, "ex_6_1.pdes").read_text(encoding="utf-8"),
        families.copy_chain(1).text,
        DELTA_COPY,
    ], ids=["ex_6_1", "copy_chain", "delta"])
    def test_unrestricted_route_runs_no_search(self, monkeypatch, text):
        defn = parse_definition(text)
        sysm, d = defn.system, defn.instance
        calls = _count_searches(monkeypatch)
        unique = import_solve(sysm, "P1", d)
        assert calls == []
        want = solution_sets(solutions(sysm, "P1", d).solutions)
        assert want == {frozenset(atoms_of(unique))}

    def test_restricted_route_searches_local_constraints(self, monkeypatch):
        defn = load("ex_5_13.pdes")
        calls = _count_searches(monkeypatch)
        res = restricted_import_solve(defn.system, "P", defn.instance)
        assert len(res.solutions) == 2
        assert [tuple(args[2]) for args in calls] == [
            defn.system.sigma_of("P")]


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
        want = solution_sets(general.solutions)
        assert want == {frozenset({"S0(k,l)"})}
        assert not general.inconsistent
        if dec == self.COPY:
            restricted = restricted_import_solve(sysm, "P0", d)
            assert solution_sets(restricted.solutions) == want
        if preorder == "null":
            via_asp = _solve(sysm, "P0", d, asp_parts, DEFAULT_CAP, {})
            assert solution_sets(via_asp.solutions) == want
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
        want = solution_sets(general.solutions)
        assert solution_sets(restricted.solutions) == want, p
        assert restricted.inconsistent == general.inconsistent, p
        if reached == {UNRESTRICTED}:
            unique = import_solve(sysm, p, d)
            assert want == {frozenset(atoms_of(unique))}, p
    assert checked


# exchange shapes from the source's S toward the importer's R: copies,
# existentials, a join, escapes, a database disjunct with a builtin
# (general) and constants
_SHAPES = (
    "forall x,y : S(x,y) -> R(x,y)",
    "forall x,y : S(x,y) -> exists z : R(x,z)",
    "forall x,y,z : S(x,y), S(y,z) -> R(x,z)",
    "forall x,y : S(x,y) -> x = y or R(x,y)",
    "forall x,y : S(x,y) -> x = a or exists z : R(y,z)",
    "forall x,y : S(x,y) -> y > 1 or R(y,x)",
    "forall x,y : S(x,y) -> isnull(x) or R(x,y)",
    "forall x,y : S(x,y) -> x = a, y = b or R(x,y)",
    "forall x,y : S(x,y) -> exists z : R(x,z), y > 1",
    "forall x : S(x,a) -> R(b,x)",
)
_IMPORTER_LOCAL = ("forall x,y,z : R(x,y), R(x,z) -> y = z",
                   "forall x,y : R(x,y) -> x != 1")
_DOM = ("a", "b", "1", "2", "null")


def _import_system(rng) -> str:
    """A two-peer import system P1 -less-> P2 with one or two exchange
    shapes and maybe a local constraint on P1. In some draws P2 copies T
    from a third peer under a local FD, so that P2 can be inconsistent
    and spread its marker to P1."""
    lines = ["peer P1 : R/2", "peer P2 : S/2", "trust P1 less P2"]
    lines += ["dec P1 P2 : " + shape
              for shape in rng.sample(_SHAPES, rng.randint(1, 2))]
    if rng.random() < 0.5:
        lines.append("dec P1 P1 : " + rng.choice(_IMPORTER_LOCAL))
    peers = [("P1", "R"), ("P2", "S")]
    if rng.random() < 0.3:
        lines += ["peer P3 : T/2", "trust P2 less P3",
                  "dec P2 P3 : forall x,y : T(x,y) -> S(x,y)",
                  "dec P2 P2 : forall x,y,z : S(x,y), S(x,z) -> y = z"]
        peers.append(("P3", "T"))
    for p, r in peers:
        facts = sorted({"%s(%s,%s)" % (r, rng.choice(_DOM), rng.choice(_DOM))
                        for _ in range(rng.randint(0, 3))})
        if facts:
            lines.append("instance %s : %s" % (p, ", ".join(facts)))
    return "\n".join(lines) + "\n"


def _drawn_agreement(preorder: str) -> tuple[int, int, int]:
    """Over 400 drawn import systems under preorder, wherever classify
    admits a peer: the routes compared (the restricted one, and the
    unrestricted one where it applies), those that disagree with the
    general solutions (an inc_ marker included), and the inconsistent
    P1s."""
    rng = random.Random(19)
    compared = disagree = inconsistent = 0
    for trial in range(400):
        defn = parse_definition("preorder %s\n" % preorder
                                + _import_system(rng))
        sysm, d = defn.system, defn.instance
        flags = classify(sysm)
        for p in sorted(sysm.peers):
            reached = {flags[q] for q in sysm.accessible(p)}
            if GENERAL in reached:
                continue
            general = solutions(sysm, p, d)
            want = (solution_sets(general.solutions), general.inconsistent)
            res = restricted_import_solve(sysm, p, d)
            routes = [(solution_sets(res.solutions), res.inconsistent)]
            if reached == {UNRESTRICTED}:
                routes.append(({frozenset(atoms_of(
                    import_solve(sysm, p, d)))}, False))
            compared += len(routes)
            disagree += sum(r != want for r in routes)
            inconsistent += p == "P1" and general.inconsistent
    return compared, disagree, inconsistent


def test_import_routes_agree_on_drawn_import_systems():
    compared, disagree, inconsistent = _drawn_agreement("null")
    assert (compared, disagree) == (1364, 0)
    assert inconsistent


def test_import_routes_agree_on_drawn_delta_import_systems():
    compared, disagree, inconsistent = _drawn_agreement("delta")
    assert (compared, disagree) == (1212, 0)
    assert inconsistent
