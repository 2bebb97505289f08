"""Disjunctive logic programs whose stable models are the solutions."""

import pytest

from pdes.asp import (TA, asp_solutions, build_solution_program,
                      emit_text, extract_instance, ground, pca_via_asp,
                      stable_models)
from pdes.core import Atom, CapExceeded, Instance, SchemaError, atom
from pdes.deffile import parse_definition
from pdes.lang import parse_constraint
from pdes.system import (PdesSchema, inc_atom, peer_consistent_answers,
                         solutions)

from conftest import load


def neighborhood(defn, p):
    atoms = set(defn.instance.of(p).atoms)
    for q in sorted(defn.system.strict_neighbors(p)):
        atoms |= defn.instance.of(q).atoms
    return Instance(atoms, defn.system.neighborhood_schema(p))


def program_for(name, p):
    defn = load(name)
    dbar = neighborhood(defn, p)
    return defn, dbar, build_solution_program(defn.system, p, dbar)


def solution_sets(insts) -> set[frozenset[str]]:
    return {frozenset(map(str, i.atoms)) for i in insts}


class TestCopyConstraintProgram:
    def setup_method(self):
        self.defn, self.dbar, self.prog = program_for("ex_6_1.pdes", "P1")

    def test_less_trusted_source_reads_plainly(self):
        text = emit_text(self.prog)
        assert ("r1(X,Y,ta) :- r2(X,Y), r1(X,Y,fs), "
               "X != null, Y != null." in text)

    def test_single_stable_model(self):
        models = stable_models(ground(self.prog))
        assert len(models) == 1
        assert models[0] == {Atom("R1_", ("d", "5", TA))}

    def test_extraction(self):
        models = stable_models(ground(self.prog))
        inst = extract_instance(self.prog, models[0])
        assert set(map(str, inst.atoms)) == {"R1(a,2)", "R1(d,5)"}


class TestInconsistencyMarker:
    def test_marker_guards_the_import_rule(self):
        defn = load("ex_6_1.pdes")
        dbar = Instance(
            defn.instance.of("P1").atoms | {inc_atom("P2")},
            defn.system.neighborhood_schema("P1"))
        prog = build_solution_program(defn.system, "P1", dbar)
        assert "not inc_p2" in emit_text(prog)
        models = stable_models(ground(prog))
        assert len(models) == 1
        inst = extract_instance(prog, models[0])
        assert set(map(str, inst.atoms)) == {"R1(a,2)"}


class TestFunctionalDependencyProgram:
    def setup_method(self):
        self.defn, self.dbar, self.prog = program_for("ex_6_2.pdes", "P1")

    def test_two_stable_models(self):
        models = stable_models(ground(self.prog))
        assert len(models) == 2

    def test_extractions(self):
        insts = asp_solutions(self.defn.system, "P1", self.dbar)
        assert solution_sets(insts) == {
            frozenset({"R1(a,null)", "R1(s,t)", "R1(c,null)"}),
            frozenset({"R1(a,null)", "R1(s,t)"})}

    def test_agrees_with_general_solver(self):
        res = solutions(self.defn.system, "P1", self.defn.instance)
        assert solution_sets(res.solutions) == \
            solution_sets(asp_solutions(self.defn.system, "P1", self.dbar))

    def test_cap_respected(self):
        with pytest.raises(CapExceeded):
            stable_models(ground(self.prog), cap=1)


class TestUnsupportedShapes:
    def build(self, text):
        from pdes.core import Schema
        sysm = PdesSchema(
            peers=frozenset({"P", "Q"}),
            schemas={"P": Schema({"R": 2}), "Q": Schema({"S": 2, "T": 2})},
            sigma={("P", "Q"): (parse_constraint(text, ("P", "Q")),)},
            trust=frozenset({("P", "less", "Q")}))
        dbar = Instance(set(), sysm.neighborhood_schema("P"))
        return build_solution_program(sysm, "P", dbar)

    def test_joined_existential_rejected(self):
        with pytest.raises(SchemaError):
            self.build("forall x,y : S(x,y) -> exists z : R(x,z), R(z,x)")

    def test_conjunctive_disjunct_rejected(self):
        with pytest.raises(SchemaError):
            self.build("forall x,y : S(x,y) -> R(x,y), R(y,x)")


class TestReferenceCycles:
    def test_equal_trust_needs_post_filter(self):
        defn, dbar, prog = program_for("cyclic_same.pdes", "P1")
        assert prog.warnings
        models = stable_models(ground(prog))
        assert len(models) == 2
        raw = solution_sets(extract_instance(prog, m) for m in models)
        assert raw == {frozenset({"R1(a,b)"}), frozenset()}
        filtered = asp_solutions(defn.system, "P1", dbar)
        assert solution_sets(filtered) == {frozenset({"R1(a,b)"})}

    def test_lower_self_trust_is_already_exact(self):
        defn, dbar, prog = program_for("cyclic_less.pdes", "P1")
        models = stable_models(ground(prog))
        assert len(models) == 1
        insts = asp_solutions(defn.system, "P1", dbar)
        assert solution_sets(insts) == {frozenset({"R1(a,b)"})}


class TestEmitAndParse:
    def test_deterministic(self):
        _, _, p1 = program_for("ex_6_2.pdes", "P1")
        _, _, p2 = program_for("ex_6_2.pdes", "P1")
        assert emit_text(p1) == emit_text(p2)


class TestAnswersThroughPrograms:
    def test_three_peer_chain(self):
        defn = load("ex_6_5.pdes")
        res = pca_via_asp(defn.system, "P1", defn.instance,
                          defn.queries["P1"])
        assert res.answers == {("a", "2"), ("d", "5")}

    def test_delta_preorder_refused(self):
        # the program's != null guards are the null semantics; under the
        # delta preorder R2(a,null) is copied like any other tuple
        defn = parse_definition(
            "peer P1 : R1/2\npeer P2 : R2/2\npreorder delta\n"
            "trust P1 less P2\n"
            "dec P1 P2 : forall x,y : R2(x,y) -> R1(x,y)\n"
            "instance P2 : R2(a,null), R2(b,c)\nquery P1 : R1(x,y)\n")
        q = defn.queries["P1"]
        direct = peer_consistent_answers(defn.system, "P1", defn.instance, q)
        assert direct.answers == {("a", "null"), ("b", "c")}
        with pytest.raises(SchemaError):
            pca_via_asp(defn.system, "P1", defn.instance, q)
