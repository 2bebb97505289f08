"""Disjunctive logic programs whose stable models are the solutions."""

import contextlib
import io
import json
import os
import sys
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdes.asp import (TA, GroundRule, _ground_rule, asp_parts, asp_solutions,
                      build_solution_program, emit_text, extract_instance,
                      ground, pca_via_asp, stable_models)
from pdes.cli import main
from pdes.core import (DEFAULT_CAP, NULL, Atom, CapExceeded, Instance,
                       Schema, SchemaError, atom, atom_sort_key)
from pdes.deffile import parse_definition
from pdes.importmode import import_solve
from pdes.lang import Cst, parse_constraint, parse_query, term_vars
from pdes.system import (PdesSchema, _solve, core_instance, inc_atom,
                         peer_consistent_answers, solutions)

from conftest import FIXTURES, HERE, load

sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
import families  # noqa: E402


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


    # an atom of the wrong arity prefix-matched facts, or ended in a
    # KeyError when longer than the predicate
    @pytest.mark.parametrize("text,msg", [
        ("R1(x)", "'R1' has arity 2, not 1"),
        ("R1(x,y,z)", "'R1' has arity 2, not 3"),
        ("R2(x,y)", "unknown predicate 'R2'")])
    def test_query_atoms_must_fit_the_peer_schema(self, text, msg):
        defn = parse_definition(
            "peer P1 : R1/2\npeer P2 : R2/2\ntrust P1 less P2\n"
            "dec P1 P2 : forall x,y : R2(x,y) -> R1(x,y)\n"
            "instance P2 : R2(a,b)\n")
        q = parse_query(text, "P1")
        for route in (peer_consistent_answers, pca_via_asp):
            with pytest.raises(SchemaError, match=msg + ",? in query P1 : "):
                route(defn.system, "P1", defn.instance, q)


class TestRuleConstants:
    def test_constant_only_in_a_rule_is_grounded(self):
        # b occurs in no fact, only in the rule for S's head; grounding
        # over the facts alone lost the witness R1(a,null,b)
        defn = parse_definition(
            "peer P1 : R1/3\npeer P2 : S/1\npeer P3 : T/1\n"
            "trust P1 less P2\ntrust P1 less P3\n"
            "dec P1 P2 : forall x : S(x) -> exists z : R1(x,z,b)\n"
            "dec P1 P3 : forall x : T(x) -> exists z,w : R1(x,z,w)\n"
            "instance P2 : S(a)\ninstance P3 : T(a)\n")
        sysm, d = defn.system, defn.instance
        want = {frozenset({"R1(a,null,b)"})}
        assert solution_sets(solutions(sysm, "P1", d).solutions) == want
        assert solution_sets([import_solve(sysm, "P1", d)]) == want
        assert solution_sets(_solve(sysm, "P1", d, asp_parts,
                                    DEFAULT_CAP, {}).solutions) == want


# ----------------------------------------------------- reference pipeline
# The product grounder, the derivability trim, the 2^|atoms| mask loop and
# the all-subsets minimality check, kept as oracles for ground and
# stable_models.

def reference_ground(prog):
    uni = sorted({c for a in prog.facts for c in a.args} | {NULL}
                 | {t.value for r in prog.rules for item in (*r.head, *r.body)
                    for t in item.terms if isinstance(t, Cst)})
    out = {}
    for r in prog.rules:
        if r.derived:
            continue
        vs = sorted({v for lit in (*r.head, *r.body)
                     for v in term_vars(lit.terms)})
        for combo in product(uni, repeat=len(vs)):
            g = _ground_rule(r, dict(zip(vs, combo)), prog.facts)
            if g is not None:
                out.setdefault(g)
    return tuple(out)


def _satisfies(rules, m):
    return all(not set(r.pos) <= m or set(r.head) & m for r in rules)


def _is_stable(rules, m):
    red = [r for r in rules if not set(r.neg) & m]
    if not _satisfies(red, m):
        return False
    elems = sorted(m)
    return not any(
        _satisfies(red, frozenset(a for i, a in enumerate(elems)
                                  if mask >> i & 1))
        for mask in range(2 ** len(elems) - 1))


def _derivable(rules):
    derivable, changed = set(), True
    while changed:
        changed = False
        for r in rules:
            if set(r.pos) <= derivable and not set(r.head) <= derivable:
                derivable |= set(r.head)
                changed = True
    return derivable


def reference_stable_models(rules):
    derivable = _derivable(rules)
    trimmed = [GroundRule(r.head, r.pos,
                          tuple(a for a in r.neg if a in derivable))
               for r in rules if set(r.pos) <= derivable]
    atoms = sorted(derivable)
    subsets = (frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
               for mask in range(2 ** len(atoms)))
    return {m for m in subsets if _is_stable(trimmed, m)}


def _fixture_programs():
    for name in sorted(os.listdir(FIXTURES)):
        try:
            defn = load(name)
        except SchemaError:
            continue
        for p in sorted(defn.system.peers):
            try:
                yield name, p, build_solution_program(
                    defn.system, p, neighborhood(defn, p))
            except SchemaError:
                continue


class TestAgainstReferencePipeline:
    def test_every_fixture_program(self):
        seen = 0
        for name, p, prog in _fixture_programs():
            got = stable_models(ground(prog))
            assert len(set(got)) == len(got), (name, p)
            assert set(got) == reference_stable_models(
                reference_ground(prog)), (name, p)
            seen += 1
        assert seen >= 20

    def test_ground_keeps_exactly_the_derivable_rules(self):
        # the copy rule is ground first and needs fa S(a,b), which only
        # the denial after it derives: it waits for that atom
        defn = parse_definition(
            "peer P : T/2, S/2, U/2\n"
            "dec P P : forall x,y : T(x,y) -> S(x,y)\n"
            "dec P P : forall x,y : S(x,y), U(x,y) -> false\n"
            "instance P : T(a,b), S(a,b), U(a,b)\n")
        programs = [("waits", "P", build_solution_program(
            defn.system, "P", neighborhood(defn, "P")))]
        for name, p, prog in [*programs, *_fixture_programs()]:
            ref = reference_ground(prog)
            derivable = _derivable(ref)
            got = ground(prog)
            assert len(set(got)) == len(got), (name, p)
            assert set(got) == {r for r in ref
                                if set(r.pos) <= derivable}, (name, p)

    @given(st.data())
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_small_ground_programs(self, data):
        pool = [atom("a", str(i)) for i in
                range(data.draw(st.integers(1, 8), label="atoms"))]
        part = st.lists(st.sampled_from(pool), max_size=3, unique=True)
        rules = data.draw(st.lists(st.builds(
            lambda h, p, n: GroundRule(tuple(h), tuple(p), tuple(n)),
            part, part, part), max_size=10), label="rules")
        got = stable_models(rules)
        assert len(set(got)) == len(got)
        assert set(got) == reference_stable_models(rules)


class TestSearchScale:
    def test_long_copy_chain_solves(self, tmp_path):
        # one ta atom per tuple: the search and the minimality check are
        # as deep as the atom count
        fam = families.copy_chain(3, n=1200)
        path = tmp_path / "chain.pdes"
        path.write_text(fam.text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["asp", "solve", "--peer", "P1", str(path),
                         "--format", "json"])
        assert (code, err.getvalue()) == (0, "")
        defn = parse_definition(fam.text)
        want = import_solve(defn.system, "P1", defn.instance)
        assert len(want.atoms) == 1200
        assert json.loads(out.getvalue())["solutions"] == [
            [str(a) for a in sorted(want.atoms, key=atom_sort_key)]]

    def test_grounding_joins_each_binding_once(self, monkeypatch):
        # semi-naive rounds: each of the chain's 1,200 ground rules comes
        # from one binding, and the last round, which derives nothing,
        # grounds nothing
        import pdes.asp as asp_mod
        calls = []
        real = asp_mod._ground_rule

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(asp_mod, "_ground_rule", counted)
        defn = parse_definition(families.copy_chain(3, n=1200).text)
        dbar = core_instance(defn.system, "P1", defn.instance)
        rules = ground(build_solution_program(defn.system, "P1", dbar))
        assert len(rules) == 1200
        assert len(calls) <= 1.05 * len(rules)

    def test_cap_counts_search_nodes(self):
        fam = families.conflicts(1, k=3, m=2, c=0)
        defn = parse_definition(fam.text)
        sysm, d = defn.system, defn.instance
        dbar = Instance(d.of("P1").atoms | d.of("P2").atoms,
                        sysm.neighborhood_schema("P1"))
        rules = ground(build_solution_program(sysm, "P1", dbar))
        n = len({a for r in rules for a in r.head})
        assert n == 13
        assert len(stable_models(rules, cap=2 ** (n - 1))) == 32
        res = pca_via_asp(sysm, "P1", d, defn.queries["P1"])
        assert res.answers == {(a,) for a in fam.answers}

    def test_grounding_charges_unbound_variables(self):
        # y and z occur only in the head: each S fact leaves a product
        # over the whole universe, which the cap refuses
        sysm = PdesSchema(
            peers=frozenset({"P", "Q"}),
            schemas={"P": Schema({"R": 2}), "Q": Schema({"S": 1})},
            sigma={("P", "Q"): (parse_constraint(
                "forall x,y,z : S(x) -> R(y,z)", ("P", "Q")),)},
            trust=frozenset({("P", "less", "Q")}))
        dbar = Instance({atom("S", "c%d" % i) for i in range(40)},
                        sysm.neighborhood_schema("P"))
        prog = build_solution_program(sysm, "P", dbar)
        with pytest.raises(CapExceeded):
            ground(prog, cap=1000)
