"""Disjunctive logic programs whose stable models are the solutions."""

import contextlib
import io
import json
import os
import sys
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdes.asp import (TA, GroundRule, Lit, Rule, asp_parts, asp_solutions,
                      build_solution_program, emit_text, ground, pca_via_asp,
                      stable_models)
from pdes.cli import main
from pdes.core import (NULL, Atom, Budget, CapExceeded, Instance, Schema,
                       SchemaError, atom, atom_sort_key, capped)
from pdes.deffile import parse_definition
from pdes.importmode import import_solve
from pdes.lang import Builtin, Cst, Var, parse_constraint, parse_query
from pdes.system import (PdesSchema, _solve, core_instance, inc_atom,
                         peer_consistent_answers, solutions)

from conftest import FIXTURES, HERE, load, solution_sets
from reference import (derivable_atoms, extract_instance, reference_ground,
                       reference_stable_models)

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
        inst = extract_instance(self.prog, models[0],
                                self.defn.system.schemas["P1"].preds())
        assert set(map(str, inst.atoms)) == {"R1(a,2)", "R1(d,5)"}


class TestInconsistencyMarker:
    def test_marker_drops_the_import_rule(self):
        defn = load("ex_6_1.pdes")
        dbar = Instance(
            defn.instance.of("P1").atoms | {inc_atom("P2")},
            defn.system.neighborhood_schema("P1"))
        prog = build_solution_program(defn.system, "P1", dbar)
        assert not any(b.pred == "R2" for r in prog.rules for b in r.body
                       if isinstance(b, Lit))
        models = stable_models(ground(prog))
        assert len(models) == 1
        inst = extract_instance(prog, models[0],
                                defn.system.schemas["P1"].preds())
        assert set(map(str, inst.atoms)) == {"R1(a,2)"}


class TestDroppedSet:
    """P2 has no solution, so P1's core neighborhood holds P2's marker and
    none of P2's atoms, and P1's import from P2 no longer applies."""

    TEXT = ("peer P1 : R1/2\npeer P2 : R2/2\npeer P3 : R3/1\n"
            "trust P1 less P2\ntrust P2 less P3\n"
            "dec P1 P2 : forall x,y : R2(x,y) -> exists z : R1(x,z)\n"
            "dec P2 P3 : forall x : R3(x) -> false\n"
            "instance P1 : R1(a,null), R1(b,c)\n"
            "instance P2 : R2(a,e)\ninstance P3 : R3(k)\n")

    def setup_method(self):
        self.defn = parse_definition(self.TEXT)
        self.dbar = core_instance(self.defn.system, "P1", self.defn.instance)
        assert inc_atom("P2") in self.dbar
        self.prog = build_solution_program(self.defn.system, "P1", self.dbar)

    def test_routes_agree(self):
        res = solutions(self.defn.system, "P1", self.defn.instance)
        assert solution_sets(res.solutions) == solution_sets(
            asp_solutions(self.defn.system, "P1", self.dbar)) == {
            frozenset({"R1(a,null)", "R1(b,c)"})}

    def test_no_rule_reads_the_dropped_set(self):
        rules = [line for line in emit_text(self.prog).splitlines()
                 if ":-" in line]
        assert rules and not any("r2" in line or "inc_p2" in line
                                 for line in rules)

    def test_the_one_stable_model_is_empty(self):
        assert stable_models(ground(self.prog)) == (frozenset(),)

    def test_a_dropped_shape_the_generator_refuses_is_not_read(self):
        defn = parse_definition(self.TEXT.replace(
            "R1(x,z)", "R1(x,z), R1(z,x)"))
        dbar = core_instance(defn.system, "P1", defn.instance)
        assert solution_sets(asp_solutions(defn.system, "P1", dbar)) == {
            frozenset({"R1(a,null)", "R1(b,c)"})}


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
        rules = ground(self.prog)
        with capped(1), pytest.raises(CapExceeded):
            stable_models(rules)


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

    # a repeated existential is relevant, so no null fills it; one in no
    # atom is bound by no head atom, so its != null guard never holds
    @pytest.mark.parametrize("head", ["exists z : R(z,z)",
                                      "exists z : R(x,y)"])
    def test_unencodable_existential_rejected(self, head):
        with pytest.raises(SchemaError):
            self.build("forall x,y : S(x,y) -> " + head)

    def test_conjunctive_disjunct_rejected(self):
        with pytest.raises(SchemaError):
            self.build("forall x,y : S(x,y) -> R(x,y), R(y,x)")


class TestReferenceCycles:
    def test_equal_trust_needs_post_filter(self):
        defn, dbar, prog = program_for("cyclic_same.pdes", "P1")
        assert prog.warnings
        models = stable_models(ground(prog))
        assert len(models) == 2
        own = defn.system.schemas["P1"].preds()
        raw = solution_sets(extract_instance(prog, m, own) for m in models)
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

    def test_constants_the_solver_would_misread_are_quoted(self):
        # A and a stay distinct, and b-1 is a name, not arithmetic
        defn = parse_definition("peer P : R/1, S/1, T/1\n"
                                "instance P : R(A), S(a), T(b-1)\n")
        prog = build_solution_program(defn.system, "P",
                                      defn.instance.of("P"))
        assert emit_text(prog).splitlines()[:7] == [
            'r("A").', "s(a).", 't("b-1").',
            'dom("A").', "dom(a).", 'dom("b-1").', "dom(null)."]
        # a keyword and a non-canonical integer are names too
        defn = parse_definition("peer P : R/1\n"
                                "instance P : R(not), R(007), R(-3)\n")
        prog = build_solution_program(defn.system, "P",
                                      defn.instance.of("P"))
        assert emit_text(prog).splitlines()[:3] == [
            "r(-3).", 'r("007").', 'r("not").']

    @pytest.mark.parametrize("head, test", [("isnotnull", "X = null"),
                                            ("isnull", "X != null")])
    def test_null_tests_are_written_as_comparisons(self, head, test):
        # a solver reads isnull(X) as an atom that is never true
        defn = parse_definition(
            "peer P1 : S1/1\n"
            "dec P1 P1 : forall x : S1(x) -> %s(x)\n"
            "instance P1 : S1(null)\n" % head)
        prog = build_solution_program(defn.system, "P1",
                                      defn.instance.of("P1"))
        assert "s1(X,fa) :- s1(X,ts), %s." % test in \
            emit_text(prog).splitlines()

    @pytest.mark.parametrize("preds", ["Dom/1, R/1", "R/2, r/3"])
    def test_names_written_alike_are_refused(self, preds):
        defn = parse_definition("peer P : %s\n" % preds)
        prog = build_solution_program(defn.system, "P",
                                      defn.instance.of("P"))
        with pytest.raises(SchemaError, match="are both written"):
            emit_text(prog)


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
        assert solution_sets(
            _solve(sysm, "P1", d, asp_parts).solutions) == want


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
            derivable = derivable_atoms(ref)
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

    @given(st.data())
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_programs_over_disjoint_pools(self, data):
        # each rule reads one pool only, so the program splits into at
        # least as many components as pools that its rules touch
        rules = []
        for j in range(data.draw(st.integers(2, 3), label="pools")):
            pool = [atom("p%d" % j, str(i)) for i in
                    range(data.draw(st.integers(1, 4), label="atoms"))]
            part = st.lists(st.sampled_from(pool), max_size=3, unique=True)
            rules += data.draw(st.lists(st.builds(
                lambda h, p, n: GroundRule(tuple(h), tuple(p), tuple(n)),
                part, part, part), max_size=5), label="rules")
        rules = data.draw(st.permutations(rules), label="order")
        got = stable_models(rules)
        assert len(set(got)) == len(got)
        assert set(got) == reference_stable_models(rules)


def _conflict_rules(k):
    fam = families.conflicts(1, k=k, m=2, c=0)
    defn = parse_definition(fam.text)
    dbar = core_instance(defn.system, "P1", defn.instance)
    return ground(build_solution_program(defn.system, "P1", dbar))


class TestSplitAndSupport:
    def test_cap_charges_per_model_stay_flat(self, monkeypatch):
        # k conflicts and m witnesses are k + m components of two models
        # each: the search and its minimality checks charge a few nodes
        # per component, the product one per model
        charged = []
        real = Budget.charge

        def counted(self, n=1):
            charged.append(n)
            return real(self, n)

        monkeypatch.setattr(Budget, "charge", counted)
        per_model = []
        for k in range(3, 9):
            rules = _conflict_rules(k)
            charged.clear()
            models = stable_models(rules)
            assert len(models) == 2 ** (k + 2)
            per_model.append(sum(charged) / len(models))
        assert per_model == sorted(per_model, reverse=True)
        assert per_model[-1] < 1.1

    def test_search_reaches_only_supported_leaves(self, monkeypatch):
        # every true atom of a leaf is the one true head atom of a rule
        # whose body holds, so few leaves fail the minimality check
        import pdes.asp as asp_mod
        leaves = []
        real = asp_mod._has_smaller_model

        def counted(rules, m, budget):
            leaves.append(m)
            assert all(any(a in r.head and m.issuperset(r.pos)
                           and m.isdisjoint(r.neg)
                           and m.intersection(r.head) == {a} for r in rules)
                       for a in m)
            return real(rules, m, budget)

        monkeypatch.setattr(asp_mod, "_has_smaller_model", counted)
        assert len(stable_models(_conflict_rules(3))) == 32
        assert len(leaves) == 10


class TestReductBranch:
    """Leaves whose minimality check must branch on a disjunctive head
    of the reduct: chaining from the empty set meets a | b first."""
    A, B = atom("a"), atom("b")

    def solve(self, monkeypatch, rules):
        # the stable models, and the verdict of each leaf's check
        import pdes.asp as asp_mod
        verdicts = {}
        real = asp_mod._has_smaller_model

        def recorded(rules, m, budget):
            verdicts[m] = real(rules, m, budget)
            return verdicts[m]

        monkeypatch.setattr(asp_mod, "_has_smaller_model", recorded)
        got = stable_models(rules)
        assert set(got) == reference_stable_models(rules)
        return set(got), verdicts

    def test_branch_confirms_a_stable_model(self, monkeypatch):
        # a | b.  a :- b.  b :- a.
        a, b = self.A, self.B
        got, verdicts = self.solve(monkeypatch, [
            GroundRule((a, b), (), ()), GroundRule((a,), (b,), ()),
            GroundRule((b,), (a,), ())])
        assert got == {frozenset({a, b})}
        assert verdicts == {frozenset({a, b}): False}

    def test_branch_finds_a_smaller_model(self, monkeypatch):
        # a | b.  a :- b.  b :- b.  {a, b} is supported, but the branch
        # on a | b stops at {a}
        a, b = self.A, self.B
        got, verdicts = self.solve(monkeypatch, [
            GroundRule((a, b), (), ()), GroundRule((a,), (b,), ()),
            GroundRule((b,), (b,), ())])
        assert got == {frozenset({a})}
        assert verdicts[frozenset({a, b})] is True


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
        with capped(2 ** (n - 1)):
            assert len(stable_models(rules)) == 32
        res = pca_via_asp(sysm, "P1", d, defn.queries["P1"])
        assert res.answers == {(a,) for a in fam.answers}

    def test_one_component_is_not_charged_again(self, monkeypatch):
        # a | b.  one component with two stable models: its search nodes
        # paid for them, so a cap of exactly the search's and the
        # minimality checks' charges solves it
        import pdes.asp as asp_mod
        a, b = atom("a"), atom("b")
        rules = [GroundRule((a, b), (), ())]
        used = []
        real = asp_mod._component_models

        def recorded(rules, budget):
            models = real(rules, budget)
            used.append(budget.used)
            return models

        monkeypatch.setattr(asp_mod, "_component_models", recorded)
        assert len(stable_models(rules)) == 2
        assert len(used) == 1
        with capped(used[0]):
            assert set(stable_models(rules)) == {
                frozenset({a}), frozenset({b})}

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
        with capped(1000), pytest.raises(CapExceeded):
            ground(prog)


class TestRecords:
    """Program records are NamedTuples: values that hash as tuples and
    refuse assignment."""

    def test_a_literal_never_equals_a_builtin_in_one_body(self):
        terms = (Var("x"), Cst(NULL))
        lit, b = Lit("neq", terms), Builtin("neq", terms)
        rule = Rule((Lit("R", terms, TA),), (lit, b))
        assert lit != b and b != lit and len(set(rule.body)) == 2
        assert rule.body.index(b) == 1 and rule == Rule(rule.head, (lit, b))

    def test_ground_rules_are_hashed_values(self):
        def g():
            return GroundRule((atom("a"),), (atom("b"),), (atom("c"),))
        assert g() == g() and hash(g()) == hash(g())
        assert len({g(), g(), g()._replace(neg=())}) == 2
        for rec, name in [(g(), "neg"), (Lit("R", ()), "neg"),
                          (Rule((), ()), "derived")]:
            hash(rec)
            with pytest.raises(AttributeError):
                setattr(rec, name, True)
