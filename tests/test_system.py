"""Peer systems: neighborhoods, recursive solutions, consistent answers."""

import pytest

from pdes.core import Instance, Schema, SchemaError, atom
from pdes.lang import parse_constraint, parse_query
from pdes.system import (PdesInstance, PdesSchema, inc_atom,
                         neighborhood_solutions, peer_consistent_answers,
                         solutions)

from conftest import load


def atoms_of(inst: Instance) -> set[str]:
    return set(map(str, inst.atoms))


def solution_sets(res) -> set[frozenset[str]]:
    return {frozenset(map(str, s.atoms)) for s in res.solutions}


class TestSchemaValidation:
    def test_accessibility_cycle_rejected(self):
        with pytest.raises(SchemaError):
            load("cyclic_graph.pdes")

    def test_missing_peer_schema_rejected(self):
        with pytest.raises(SchemaError):
            PdesSchema(peers=frozenset({"P", "Q"}),
                       schemas={}, sigma={}, trust=frozenset())

    @pytest.mark.parametrize("pred", ["dom", "aux", "aux1", "inc_Q"])
    def test_generated_predicate_names_rejected(self, pred):
        with pytest.raises(SchemaError, match="predicate %r of 'P'" % pred):
            PdesSchema(peers=frozenset({"P"}),
                       schemas={"P": Schema({pred: 1})}, sigma={},
                       trust=frozenset())

    @pytest.mark.parametrize("text,msg", [
        ("forall x : R(x) -> S(x)", "'R' has arity 2, not 1, in dec P P"),
        ("forall x,y : R(x,y) -> S(x,y)",
         "'S' has arity 1, not 2, in dec P P"),
        ("forall x,y : R(x,y) -> T(x,y)", "unknown predicate 'T' in dec P P"),
    ], ids=["body", "head", "unknown"])
    def test_constraint_atoms_must_fit_the_schemas(self, text, msg):
        c = parse_constraint(text)
        with pytest.raises(SchemaError, match=msg):
            PdesSchema(peers=frozenset({"P"}),
                       schemas={"P": Schema({"R": 2, "S": 1})},
                       sigma={("P", "P"): (c,)}, trust=frozenset())

    def test_instance_atoms_must_fit_the_peer_schema(self):
        sysm = PdesSchema(peers=frozenset({"P"}),
                          schemas={"P": Schema({"R": 2})}, sigma={},
                          trust=frozenset())
        inst = Instance({atom("R", "a")}, Schema({"R": 1}))
        with pytest.raises(SchemaError, match="'R' has arity 2, not 1, in "
                           "the instance of 'P'"):
            PdesInstance(sysm, {"P": inst})

    def test_two_trust_kinds_for_one_pair_rejected(self):
        with pytest.raises(SchemaError, match="two trust kinds"):
            PdesSchema(peers=frozenset({"P", "Q"}),
                       schemas={"P": Schema({"R": 1}), "Q": Schema({"S": 1})},
                       sigma={}, trust=frozenset({("P", "less", "Q"),
                                                  ("P", "same", "Q")}))


class TestTopology:
    def setup_method(self):
        self.sys = load("ex_2_2.pdes").system

    def test_neighbors(self):
        assert self.sys.neighbors("P1") == {"P1", "P2"}
        assert self.sys.neighbors("P4") == {"P2", "P3", "P4"}

    def test_accessible(self):
        assert self.sys.accessible("P1") == {"P1", "P2", "P3"}
        assert self.sys.accessible("P4") == {"P2", "P3", "P4"}

    def test_trust_kind(self):
        assert self.sys.trust_kind("P1", "P2") == "less"
        assert self.sys.trust_kind("P2", "P3") == "same"
        assert self.sys.trust_kind("P1", "P3") is None

    def test_less_trusted_neighbor_preds_frozen(self):
        assert "R2" in self.sys.frozen_preds("P1")
        assert "R1" not in self.sys.frozen_preds("P1")
        # equally trusted neighbors stay changeable
        assert "R3" not in self.sys.frozen_preds("P2")


class TestLessTrustedNeighbor:
    def setup_method(self):
        self.defn = load("ex_1_1.pdes")

    def test_single_neighborhood_solution(self):
        dbar = Instance(
            self.defn.instance.of("P1").atoms
            | self.defn.instance.of("P2").atoms,
            self.defn.system.neighborhood_schema("P1"))
        ns = neighborhood_solutions(self.defn.system, "P1", dbar)
        assert len(ns) == 1
        assert atoms_of(ns[0]) == {
            "R1(c,4,2)", "R1(f,3,5)", "R1(d,5,3)", "S1(3)",
            "R2(c,4)", "R2(d,5)", "S2(4,2)", "S2(5,3)"}

    def test_consistent_answers(self):
        res = peer_consistent_answers(
            self.defn.system, "P1", self.defn.instance,
            self.defn.queries["P1"])
        assert res.answers == {("c",), ("f",), ("d",)}


class TestEquallyTrustedNeighbor:
    def setup_method(self):
        self.defn = load("ex_3_2.pdes")

    def test_six_neighborhood_solutions(self):
        dbar = Instance(
            self.defn.instance.of("P1").atoms
            | self.defn.instance.of("P2").atoms,
            self.defn.system.neighborhood_schema("P1"))
        ns = neighborhood_solutions(self.defn.system, "P1", dbar)
        assert len(ns) == 6

    def test_consistent_answers_shrink(self):
        res = peer_consistent_answers(
            self.defn.system, "P1", self.defn.instance,
            self.defn.queries["P1"])
        assert res.answers == {("c",), ("f",)}


class TestNoSolutions:
    def test_marker_answer(self):
        defn = load("ex_3_4.pdes")
        res = solutions(defn.system, "P", defn.instance)
        assert res.inconsistent and not res.solutions
        pca = peer_consistent_answers(defn.system, "P", defn.instance,
                                      defn.queries["P"])
        assert pca.inconsistent and pca.marker == inc_atom("P")


class TestTransitiveSystem:
    def setup_method(self):
        self.defn = load("ex_3_6.pdes")

    def test_intermediate_peer_solutions(self):
        res = solutions(self.defn.system, "P2", self.defn.instance)
        assert solution_sets(res) == {
            frozenset({"R2(c,4)", "R2(d,5)", "S2(5,3)"}),
            frozenset({"R2(c,4)", "R2(d,5)", "S2(4,2)", "S2(5,3)"})}
        assert atoms_of(res.core) == {"R2(c,4)", "R2(d,5)", "S2(5,3)"}

    def test_top_peer_single_solution(self):
        res = solutions(self.defn.system, "P1", self.defn.instance)
        assert solution_sets(res) == {
            frozenset({"R1(c,4,2)", "R1(f,3,5)", "R1(d,5,3)", "S1(3)"})}

    def test_consistent_answers_through_core(self):
        res = peer_consistent_answers(
            self.defn.system, "P1", self.defn.instance,
            self.defn.queries["P1"])
        assert res.answers == {("f",)}


class TestNullPreorderSolutions:
    def test_empty_instance_is_only_neighborhood_solution(self):
        defn = load("ex_5_6.pdes")
        dbar = Instance(
            defn.instance.of("P1").atoms | defn.instance.of("P2").atoms,
            defn.system.neighborhood_schema("P1"))
        ns = neighborhood_solutions(defn.system, "P1", dbar)
        assert [s.atoms for s in ns] == [frozenset()]

    def test_transitive_cores(self):
        defn = load("ex_5_7.pdes")
        res2 = solutions(defn.system, "P2", defn.instance)
        assert solution_sets(res2) == {
            frozenset({"R2(c,4)", "R2(d,5)"}), frozenset({"R2(d,5)"})}
        assert atoms_of(res2.core) == {"R2(d,5)"}
        res4 = solutions(defn.system, "P4", defn.instance)
        assert solution_sets(res4) == {
            frozenset({"R4(d,5,1)", "R4(c,4,null)"})}
