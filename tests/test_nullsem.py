"""Query answering and constraint satisfaction under SQL-style nulls."""

import glob
import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdes import core
from pdes.core import NULL, Atom, Instance, Schema, atom
from pdes.lang import (Builtin, Cst, Var, n_rewrite_query, parse_constraint,
                       parse_query)
from pdes.nullsem import (classical_answers, eval_builtin, ground_atom,
                          instantiations, n_answers, n_holds, n_holds_direct,
                          working_universe)

from conftest import FIXTURES


def inst(schema: dict, atoms) -> Instance:
    return Instance(set(atoms), Schema(schema))


class TestBuiltinEvaluation:
    def test_comparisons_fail_on_null(self):
        for op in ("eq", "neq", "lt", "leq", "gt", "geq"):
            b = Builtin(op, (Var("x"), Var("y")))
            assert not eval_builtin(b, {"x": NULL, "y": "1"})
            assert not eval_builtin(b, {"x": "1", "y": NULL})

    def test_classical_eq_treats_null_as_constant(self):
        eq = Builtin("eq", (Var("x"), Var("y")))
        neq = Builtin("neq", (Var("x"), Var("y")))
        assert eval_builtin(eq, {"x": NULL, "y": NULL}, classical=True)
        assert eval_builtin(neq, {"x": NULL, "y": "1"}, classical=True)

    def test_classical_order_ops_fail_on_null(self):
        lt = Builtin("lt", (Var("x"), Var("y")))
        assert not eval_builtin(lt, {"x": NULL, "y": "1"}, classical=True)

    def test_numeric_comparison(self):
        gt = Builtin("gt", (Var("x"), Cst("5")))
        assert eval_builtin(gt, {"x": "7"})
        assert not eval_builtin(gt, {"x": "5"})

    def test_geq_numeric(self):
        geq = Builtin("geq", (Var("x"), Var("y")))
        assert eval_builtin(geq, {"x": "10", "y": "9"})  # not "10" < "9"
        assert eval_builtin(geq, {"x": "5", "y": "5"})
        assert not eval_builtin(geq, {"x": "9", "y": "10"})
        assert eval_builtin(geq, {"x": "7", "y": "5"}, classical=True)

    def test_geq_lexicographic(self):
        geq = Builtin("geq", (Var("x"), Cst("b")))
        assert eval_builtin(geq, {"x": "c"})
        assert eval_builtin(geq, {"x": "b"})
        assert not eval_builtin(geq, {"x": "a"})
        assert not eval_builtin(geq, {"x": "10"})  # "10" < "b"

    def test_null_guards(self):
        isnull = Builtin("isnull", (Var("x"),))
        isnotnull = Builtin("isnotnull", (Var("x"),))
        assert eval_builtin(isnull, {"x": NULL})
        assert not eval_builtin(isnull, {"x": "a"})
        assert eval_builtin(isnotnull, {"x": "a"})


class TestQueryAnswers:
    def test_comparison_through_null_answers_null(self):
        d = inst({"R": 3, "S": 1},
                 [atom("R", "1", "1", "1"), atom("R", "2", NULL, NULL),
                  atom("R", NULL, "3", "3"),
                  atom("S", NULL), atom("S", "1"), atom("S", "3")])
        q = parse_query("exists y,z : R(x,y,z), S(y), y > 2")
        assert n_answers(d, q) == {(NULL,)}

    def test_join_through_null_fails(self):
        d = inst({"R": 2, "S": 2},
                 [atom("R", "a", "b"), atom("R", "c", "d"),
                  atom("R", "e", NULL),
                  atom("S", "b", "f"), atom("S", "d", "g"),
                  atom("S", NULL, "j")])
        q = parse_query("exists y : R(x,y), S(y,z)")
        assert classical_answers(d, q) == {("a", "f"), ("c", "g"), ("e", "j")}
        assert n_answers(d, q) == {("a", "f"), ("c", "g")}

    def test_non_relevant_free_variable_may_be_null(self):
        d = inst({"P0": 2},
                 [atom("P0", "f", "7"), atom("P0", "f", "5"),
                  atom("P0", NULL, "8"), atom("P0", "b", NULL)])
        q = parse_query("exists y : P0(x,y), y > 5")
        assert n_answers(d, q) == {("f",), (NULL,)}


class TestConstraintSatisfaction:
    C = parse_constraint("forall x : R(x) -> exists y : T(x,y), S(y)")
    SCHEMA = {"R": 1, "T": 2, "S": 1}

    def cases(self):
        return [
            ([atom("R", "a")], False),
            ([atom("R", "a"), atom("T", "a", NULL), atom("S", NULL)], False),
            ([atom("R", "a"), atom("T", "a", "b"), atom("S", "b")], True),
            ([atom("R", NULL)], True),
            ([], True),
        ]

    def test_existential_witness_must_be_non_null(self):
        for atoms, expected in self.cases():
            assert n_holds(inst(self.SCHEMA, atoms), self.C) is expected

    def test_direct_evaluation_agrees(self):
        for atoms, expected in self.cases():
            d = inst(self.SCHEMA, atoms)
            assert n_holds_direct(d, self.C) is expected

    def test_fd_with_null_key_not_violated(self):
        c = parse_constraint("forall x,y,z : T(x,y), T(x,z) -> y = z")
        assert n_holds(inst({"T": 2}, [atom("T", "a", NULL),
                                       atom("T", "a", "b")]), c)
        assert not n_holds(inst({"T": 2}, [atom("T", "a", "c"),
                                           atom("T", "a", "b")]), c)

    def test_unanchored_check_builds_the_active_domain_once(self,
                                                            monkeypatch):
        # y occurs in no atom, so each of the 400 instantiations reads the
        # working universe; the instance builds its active domain once
        c = parse_constraint("forall x : R(x) -> exists y : S(x), y > x")
        d = inst({"R": 1, "S": 1}, [atom(p, str(i)) for i in range(400)
                                    for p in ("R", "S")])
        calls = []

        def counted(arg, real=core.active_domain):
            calls.append(arg)
            return real(arg)

        monkeypatch.setattr(core, "active_domain", counted)
        assert not n_holds_direct(d, c)  # 399 has no greater value
        assert len(calls) == 1 and calls[0] is d

    def test_denial_applies_to_null_tuples(self):
        c = parse_constraint("forall x,y : T(x,y), S(x,y) -> false")
        assert not n_holds(inst({"T": 2, "S": 2},
                                [atom("T", "a", "b"), atom("S", "a", "b")]), c)


def _all_instances(schema, preds, domain, max_atoms):
    tuples = []
    for p, k in preds:
        tuples += [Atom(p, t) for t in itertools.product(domain, repeat=k)]
    for r in range(max_atoms + 1):
        for combo in itertools.combinations(tuples, r):
            yield Instance(set(combo), schema)


REWRITE_SOUNDNESS_CONSTRAINTS = [
    "forall x,y,z : R(x,y), R(x,z) -> y = z",
    "forall x,y : R(x,y) -> R(y,x)",
    "forall x,y : R(x,y) -> exists z : R(y,z)",
    "forall x,y : R(x,y), R(y,x) -> false",
    "forall x,y : R(x,y) -> x = y or isnull(x)",
    "forall x,y : R(x,x) -> R(x,y)",
]


class TestRewritingSoundnessSmall:
    @pytest.mark.parametrize("text", REWRITE_SOUNDNESS_CONSTRAINTS)
    def test_rewritten_classical_matches_direct(self, text):
        c = parse_constraint(text)
        schema = Schema({"R": 2})
        for d in _all_instances(schema, [("R", 2)], ["a", "b", NULL], 3):
            assert n_holds(d, c) == n_holds_direct(d, c), sorted(map(str, d))


ATOM2 = st.tuples(st.sampled_from(["a", "b", NULL]),
                  st.sampled_from(["a", "b", NULL]))


# Constraint shapes for the differential check of the two satisfaction
# routes; {p}, {q} are drawn predicates, {t}, {u} drawn terms (a
# universal variable or a constant, "c" outside the instances' values)
# and {op} a drawn comparison.
_ROUTE_SHAPES = {
    "existential": [
        "forall x,y : {p}(x,y) -> exists z : {q}({t},z)",
        "forall x,y : {p}(x,y) -> exists z : {q}(z,z)",
        "forall x,y : {p}(x,y) -> exists z : {q}({t},z), {p}(z,{u})",
        "forall x,y : {p}(x,y) -> exists z : {q}(z,{t}), z {op} {u}",
        "forall x,y : {p}(x,y) -> exists z,w : {q}(z,w)",
    ],
    "denial": [
        "forall x,y : {p}(x,y), {q}(y,x) -> false",
        "forall x,y : {p}(x,{t}), {q}(x,y) -> false",
        "forall x : {p}(x,x) -> false",
    ],
    "fd": [
        "forall x,y,z : {p}(x,y), {p}(x,z) -> y = z",
        "forall x,y,z : {p}(y,x), {p}(z,x) -> y = z",
    ],
    "disjunctive builtin": [
        "forall x,y : {p}(x,y) -> {q}({t},{u}) or x {op} y",
        "forall x,y : {p}(x,y) -> x {op} {t} or isnull(y)",
        "forall x,y : {p}(x,y), {q}(y,{t}) -> x {op} {u} or isnotnull(x)",
    ],
    "builtin-only existential": [
        "forall x,y : {p}(x,y) -> exists z : z {op} {t}",
        "forall x,y : {p}(x,y) -> exists z : z {op} x, z {op} {t}",
        "forall x,y : {p}(x,y) -> {q}(y,x) or exists z : z {op} {u}",
    ],
    "head-only universal": [
        "forall x,y : {p}(x,{t}) -> {q}(y,y)",
        "forall x,y : {p}(x,x) -> {q}(x,y) or y {op} {t}",
        "forall x,y : {p}(x,{t}) -> y {op} {u}",
    ],
}
_TERMS = ["x", "y", "1", "c"]
_OPS = ["=", "!=", "<", "<=", ">", ">="]


@st.composite
def _route_constraints(draw):
    shape = draw(st.sampled_from(sorted(_ROUTE_SHAPES)))
    text = draw(st.sampled_from(_ROUTE_SHAPES[shape]))
    c = parse_constraint(text.format(
        p=draw(st.sampled_from("RS")), q=draw(st.sampled_from("RS")),
        t=draw(st.sampled_from(_TERMS)), u=draw(st.sampled_from(_TERMS)),
        op=draw(st.sampled_from(_OPS))))
    assert c.anchored is (shape != "builtin-only existential")
    return c


@st.composite
def _route_instances(draw):
    """Up to six R and S atoms over a drawn set of values, so that few
    distinct values (a small universe) come up as often as many."""
    values = sorted(draw(st.sets(st.sampled_from(["a", "b", "1", "2", NULL]),
                                 min_size=1)))
    value = st.sampled_from(values)
    atoms = draw(st.frozensets(st.builds(Atom, st.sampled_from("RS"),
                                         st.tuples(value, value)),
                               max_size=6))
    return Instance(atoms, Schema({"R": 2, "S": 2}))


class TestSatisfactionProperties:
    @given(_route_constraints(), _route_instances())
    @example(parse_constraint("forall x,y : R(x,y) -> exists z : z != x"),
             inst({"R": 2, "S": 2}, [atom("R", "1", "1")]))
    @example(parse_constraint(
        "forall x,y : R(x,y) -> S(y,x) or exists z : z != y"),
        inst({"R": 2, "S": 2}, [atom("R", "2", "2")]))
    @settings(max_examples=400, deadline=None)
    def test_rewritten_and_direct_routes_agree(self, c, d):
        assert n_holds(d, c) == n_holds_direct(d, c), sorted(map(str, d))

    @given(st.frozensets(ATOM2, max_size=5))
    @settings(max_examples=60)
    def test_empty_body_match_is_vacuous(self, tuples):
        c = parse_constraint("forall x,y : T(x,y) -> false")
        d = inst({"T": 2, "R": 2}, [Atom("R", t) for t in tuples])
        assert n_holds(d, c)

    @given(st.frozensets(ATOM2, max_size=5))
    @settings(max_examples=60)
    def test_n_satisfies_closed_query(self, tuples):
        d = inst({"R": 2}, [Atom("R", t) for t in tuples])
        q = parse_query("exists x,y : R(x,y), x = y")
        expected = any(t[0] == t[1] and NULL not in t for t in tuples)
        assert (n_answers(d, q) == {()}) is expected


SQL_SAFE_QUERIES = [
    "R(x,y)",
    "R(x,x)",
    "R(x,1)",
    "R(x,y), S(y,z)",
    "exists y : R(x,y), S(y,z)",
    "exists y : R(x,y), R(y,x)",
    "exists x,y : R(x,y), S(y,x)",
    "R(x,y), x = y",
    "R(x,y), x != y",
    "R(x,y), x < y",
    "R(x,y), y = 1",
    "R(x,y), S(x,z), y <= z",
    "exists y,z : R(x,y), S(y,z), z > 1",
    "R(x,y), isnull(y)",
    "exists y : R(x,y), isnotnull(y), S(x,w)",
]


def _random_instance(rng, schema):
    tuples = list(itertools.product(["a", "b", "1", "2", NULL], repeat=2))
    return Instance({Atom(p, t) for p in schema
                     for t in rng.sample(tuples, rng.randint(0, 5))},
                    Schema(schema))


class TestQueryRewritingRoute:
    """Classical evaluation of the rewritten query is a second route to
    the null-semantics answers, for queries that never compare a term
    with null directly."""

    @pytest.mark.parametrize("text", SQL_SAFE_QUERIES)
    def test_rewritten_classical_matches_direct(self, text):
        q = parse_query(text)
        assert q.sql_safe
        rewritten = n_rewrite_query(q)
        rng = random.Random(text)
        for _ in range(400):
            d = _random_instance(rng, {"R": 2, "S": 2})
            assert classical_answers(d, rewritten) == n_answers(d, q), \
                sorted(map(str, d))

    @pytest.mark.parametrize("text,fact", [
        ("R(x,y), y = null", ("a", NULL)),
        ("R(x,y), y != null", ("a", "b")),
    ])
    def test_null_comparisons_diverge(self, text, fact):
        q = parse_query(text)
        assert not q.sql_safe
        d = inst({"R": 2}, [Atom("R", fact)])
        assert n_answers(d, q) == frozenset()
        assert classical_answers(d, n_rewrite_query(q)) == {fact}


# ------------------------------------------- delta-driven instantiations

def _fixture_constraints():
    """Every constraint declared in a fixture, with the schema of its
    own atoms."""
    out = []
    for path in sorted(glob.glob(FIXTURES + "/*.pdes")):
        with open(path, encoding="utf-8") as f:
            for line in f:
                if line.startswith("dec "):
                    c = parse_constraint(line)
                    out.append((c, Schema({a.pred: len(a.terms)
                                           for a in c.atoms()})))
    assert len(out) > 30
    return out


_FD = parse_constraint("forall x,y,z : T(x,y), T(x,z) -> y = z")
_SHAPES = [
    # a constant in the body, and a repeated variable
    parse_constraint("forall x,y : T(x,1), R(x,y) -> S(y,x)"),
    parse_constraint("forall x,y : T(x,x), R(x,y) -> S(y,y)"),
    # both body atoms may lie in the delta: one instantiation, once
    _FD,
    # an empty body matches nothing in a delta
    replace(_FD, body=()),
    # a universal variable of the head only
    parse_constraint("forall x,y : T(x,1) -> R(y,y)"),
]


def _random_split(rng, schema, consts):
    """A random instance over schema and the part of it taken as delta."""
    dom = sorted({"a", "b", "1", NULL} | consts)
    atoms = {Atom(p, tuple(rng.choice(dom) for _ in range(k)))
             for p, k in schema.arities.items()
             for _ in range(rng.randint(0, 4))}
    d = Instance(atoms, schema)
    return d, frozenset(a for a in atoms if rng.random() < 0.4)


def _delta_agrees(c, d, delta):
    universe = working_universe(d, c)
    want = [s for s in instantiations(d, c, universe)
            if any(ground_atom(a, s) in delta for a in c.body)]
    assert list(instantiations(d, c, universe, delta)) == want, (
        str(c), sorted(map(str, d)), sorted(map(str, delta)))
    return want


class TestDeltaInstantiations:
    """With a delta, the enumerator yields the full enumeration filtered
    to the instantiations with a body atom in the delta, in its order."""

    def test_fixture_constraints_on_random_splits(self):
        rng = random.Random(20261018)
        for c, schema in _fixture_constraints():
            consts = {t.value for a in c.atoms() for t in a.terms
                      if isinstance(t, Cst)}
            for _ in range(20):
                _delta_agrees(c, *_random_split(rng, schema, consts))

    def test_shapes_on_random_splits(self):
        rng = random.Random(14)
        schema = Schema({"T": 2, "R": 2, "S": 2})
        for c in _SHAPES:
            for _ in range(100):
                _delta_agrees(c, *_random_split(rng, schema, {"1"}))

    def test_two_delta_atoms_yield_once(self):
        d = inst({"T": 2}, [atom("T", "a", "1"), atom("T", "a", "2"),
                            atom("T", "b", "1")])
        delta = frozenset({atom("T", "a", "1"), atom("T", "a", "2")})
        got = _delta_agrees(_FD, d, delta)
        assert [(s["y"], s["z"]) for s in got if s["x"] == "a"] == [
            ("1", "1"), ("1", "2"), ("2", "1"), ("2", "2")]

    def test_empty_body_and_head_only_universal(self):
        d = inst({"T": 2, "R": 2, "S": 2}, [atom("T", "a", "1")])
        assert _delta_agrees(_SHAPES[3], d, d.atoms) == []
        got = _delta_agrees(_SHAPES[4], d, d.atoms)
        assert [s["y"] for s in got] == sorted(working_universe(
            d, _SHAPES[4]))
