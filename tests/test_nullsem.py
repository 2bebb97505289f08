"""Query answering and constraint satisfaction under SQL-style nulls."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdes.core import NULL, Atom, Instance, Schema, atom
from pdes.lang import (Builtin, Cst, Var, n_rewrite_query, parse_constraint,
                       parse_query)
from pdes.nullsem import (classical_answers, eval_builtin, n_answers, n_holds,
                          n_holds_direct)


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


class TestSatisfactionProperties:
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
