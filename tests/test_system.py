"""Peer systems: neighborhoods, recursive solutions, consistent answers."""

import subprocess
import sys

import pytest

from pdes.core import Instance, Schema, SchemaError, atom
from pdes.lang import parse_constraint, parse_query
from pdes.system import (PdesInstance, PdesSchema, inc_atom,
                         neighborhood_solutions, peer_consistent_answers,
                         solutions)

from conftest import child_env, load


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

    def test_trust_toward_undeclared_peer_rejected(self):
        # it used to be accepted, and read nowhere
        with pytest.raises(SchemaError, match="trust for unknown peer pair "
                           r"\('P', 'Q'\)"):
            PdesSchema(peers=frozenset({"P"}),
                       schemas={"P": Schema({"R": 1})}, sigma={},
                       trust=frozenset({("P", "less", "Q")}))


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


# three FD keys and two null witnesses: five conflict parts
PARTS = (
    "peer P1 : R1/2\npeer P2 : R2/2\ntrust P1 same P2\n"
    "dec P1 P1 : forall x,y,z : R1(x,y), R1(x,z) -> y = z\n"
    "dec P1 P2 : forall x,y : R2(x,y) -> exists z : R1(x,z)\n"
    "instance P1 : R1(k1,a), R1(k1,b), R1(k2,c), R1(k2,d), R1(k3,e), "
    "R1(k3,f), R1(k4,g)\n"
    "instance P2 : R2(w1,h), R2(w2,i)\n")

_ORDERS = """
import sys
from pdes.deffile import load_definition
from pdes.system import core_instance, neighborhood_solutions, solutions
d = load_definition(sys.argv[1])
dbar = core_instance(d.system, "P1", d.instance)
for insts in (neighborhood_solutions(d.system, "P1", dbar),
              solutions(d.system, "P1", d.instance).solutions):
    print([sorted(map(str, s.atoms)) for s in insts])
"""


def test_library_order_is_the_same_under_any_hash_seed(tmp_path):
    # the library lists in search order, which reads no set's order
    path = tmp_path / "parts.pdes"
    path.write_text(PARTS)
    outs = {subprocess.run(
        [sys.executable, "-c", _ORDERS, str(path)], capture_output=True,
        text=True, check=True,
        env=child_env(PYTHONHASHSEED=seed)).stdout
        for seed in ("1", "2", "3")}
    assert len(outs) == 1
    assert outs.pop().count("R1(k4,g)") == 2 * 2 ** 5
