"""Parsing, relevant variables, null-aware rewriting, ref-acyclicity."""


import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdes.core import Atom
from pdes.lang import (Builtin, Constraint, Cst, Disjunct, ParseError,
                       PredAtom, SafetyError, Var, n_rewrite_constraint,
                       n_rewrite_query, parse_constraint, parse_query,
                       ref_acyclic, relevant_vars)


class TestParseConstraint:
    def test_simple_copy(self):
        c = parse_constraint("forall x,y : R2(x,y) -> R1(x,y)")
        assert c.univ_vars == ("x", "y")
        assert [a.pred for a in c.body] == ["R2"]
        assert len(c.head) == 1 and not c.is_existential

    def test_owner_prefix(self):
        c = parse_constraint("dec P1 P2 : forall x,y : R2(x,y) -> R1(x,y)")
        assert c.owner == ("P1", "P2")

    def test_implicit_universals_appended(self):
        c = parse_constraint("forall x,y : R2(x,y), S2(y,z) -> R1(x,y,z)")
        assert c.univ_vars == ("x", "y", "z")

    def test_existential_head(self):
        c = parse_constraint("forall x : R(x) -> exists y : T(x,y), S(y)")
        assert c.is_existential
        assert c.head[0].exist_vars == ("y",)
        assert [a.pred for a in c.head[0].atoms] == ["T", "S"]

    def test_disjunctive_head(self):
        c = parse_constraint(
            "forall x,y,z : R(x,y), S(y,z) -> Q(x,y,z) or T(x,z)")
        assert len(c.head) == 2

    def test_equality_consequent(self):
        c = parse_constraint("forall x,y,z : T(x,y), T(x,z) -> y = z")
        assert c.head[0].builtins[0].op == "eq"

    def test_denial(self):
        c = parse_constraint("forall x,y : T(x,y), S(x,y) -> false")
        assert c.head[0].builtins[0].op == "false"

    def test_constants_allowed(self):
        c = parse_constraint("forall x : S1(x) -> S2(5,x)")
        assert c.head[0].atoms[0].terms[0] == Cst("5")

    def test_builtin_in_antecedent_rejected(self):
        with pytest.raises(ParseError):
            parse_constraint("forall x,y : R(x,y), x = y -> S(x)")

    def test_explicit_null_rejected(self):
        with pytest.raises(ParseError):
            parse_constraint("forall x : R(x,null) -> S(x)")

    def test_undeclared_head_identifier_is_a_constant(self):
        c = parse_constraint("forall x : R(x) -> S(x,w)")
        assert c.head[0].atoms[0].terms[1] == Cst("w")

    def test_unsafe_head_variable_rejected(self):
        from pdes.lang import Disjunct, validate_constraint
        c = Constraint(("x",), (PredAtom("R", (Var("x"),)),),
                       (Disjunct((), (PredAtom("S", (Var("w"),)),), ()),))
        with pytest.raises(SafetyError):
            validate_constraint(c)

    def test_existential_shadowing_rejected(self):
        with pytest.raises(ParseError):
            parse_constraint("forall x : R(x) -> exists x : S(x)")

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_constraint("forall x : R(x) ->")

    def test_universal_declared_twice_rejected(self):
        with pytest.raises(ParseError, match="variable 'x' declared twice"):
            parse_constraint("forall x,x : R(x,x), R(x,y) -> S(x)")

    def test_existential_declared_twice_rejected(self):
        with pytest.raises(ParseError, match="variable 'y' declared twice"):
            parse_constraint("forall x : R(x) -> exists y,y : S(x,y)")

    def test_arity_0_atom(self):
        c = parse_constraint("forall x : S(x) -> F()")
        assert c.head[0].atoms == (PredAtom("F", ()),)
        assert str(c) == "forall x: S(x) -> F()"

    @pytest.mark.parametrize("text", [
        "forall x : R(x) -> isnull()", "forall x : R(x) -> isnull(x,x)",
        "forall x : R(x) -> isnull = x", "forall x : R(x) -> S(x/)"])
    def test_malformed_builtin_or_term_rejected(self, text):
        with pytest.raises(ParseError):
            parse_constraint(text)


class TestParseQuery:
    def test_free_and_existential_vars(self):
        q = parse_query("query P1 : exists y,z : R1(x,y,z)")
        assert q.peer == "P1"
        assert q.free_vars == ("x",)
        assert q.exist_vars == ("y", "z")

    def test_boolean_query(self):
        q = parse_query("exists x : R(x,x)")
        assert q.free_vars == ()

    def test_comparison(self):
        q = parse_query("exists y : P0(x,y), y > 5")
        assert q.builtins[0].op == "gt"

    def test_unsafe_builtin_rejected(self):
        with pytest.raises(SafetyError):
            parse_query("exists y : R(x,y), w > 5")

    def test_existential_declared_twice_rejected(self):
        with pytest.raises(ParseError, match="variable 'y' declared twice"):
            parse_query("exists y,y : R(x,y), S(y)")

    def test_sql_safe_flags_null_comparisons(self):
        assert parse_query("R(x,y)").sql_safe
        assert not parse_query("R(x,y), x = null").sql_safe


class TestRelevantVars:
    def test_repeated_and_compared_vars(self):
        c = parse_constraint("forall x : R(x) -> exists y : T(x,y), S(y)")
        assert relevant_vars(c) == {"x", "y"}

    def test_functional_dependency(self):
        c = parse_constraint(
            "forall x,y,z1,z2 : R(x,y,z1), R(x,y,z2) -> z1 = z2")
        assert relevant_vars(c) == {"x", "y", "z1", "z2"}

    def test_null_guards_do_not_count(self):
        c = parse_constraint("forall x,y,z : R(x,y,z) -> isnotnull(x)")
        assert relevant_vars(c) == frozenset()

    def test_comparison_with_null_does_not_count(self):
        q = parse_query("R(x,y), y != null")
        assert relevant_vars(q) == frozenset()

    def test_query_join_variable(self):
        q = parse_query("exists y : R(x,y), S(y,z)")
        assert relevant_vars(q) == {"y"}


class TestCachedAnalysis:
    """`Constraint.relevant`, `anchored` and `constants` are cached on the
    object, outside the fields that make its ==, hash and repr."""

    TEXT = "forall x,y : R(x,y) -> exists z : S(x,z) or exists w : w > y"

    def test_reading_leaves_identity_unchanged(self):
        c, fresh = parse_constraint(self.TEXT), parse_constraint(self.TEXT)
        before = (hash(c), repr(c), str(c))
        assert c.relevant == relevant_vars(c) == {"x", "y"}
        assert not c.anchored
        assert (hash(c), repr(c), str(c)) == before
        assert c == fresh and hash(c) == hash(fresh)
        assert "relevant" not in repr(c) and "anchored" not in repr(c)

    def test_rewritten_constraint_has_its_own(self):
        c = parse_constraint("forall x,y : R(x,y) -> exists z : S(y,z)")
        assert c.relevant == {"y"} and c.anchored
        rewritten = n_rewrite_constraint(c)
        assert rewritten != c
        assert "relevant" not in vars(rewritten)  # nothing carried over
        assert rewritten.relevant == relevant_vars(rewritten)
        # a replaced body changes the relevant variables
        joined = Constraint(c.univ_vars,
                            (PredAtom("R", (Var("x"), Var("x"))),
                             PredAtom("R", (Var("y"), Var("x")))),
                            c.head, c.owner)
        assert joined.relevant == {"x", "y"} != c.relevant


class TestRecords:
    """Terms, atoms and formulas are NamedTuples, which as tuples would
    compare equal across kinds; terms and atoms equal only their own kind."""

    def test_a_variable_is_not_the_constant_of_its_name(self):
        x, k = Var("x"), Cst("x")
        assert x != k and k != x and not (x == k or k == x)
        assert len({x, k, Var("x"), Cst("x")}) == 2
        assert x not in (k, "x", ("x",)) and k not in (x, "x", ("x",))
        assert x == Var("x") and hash(x) == hash(Var("x"))
        # z is existential, and its disjunct holds only the constant z
        c = Constraint(("x",), (PredAtom("R", (Var("x"),)),), (Disjunct(
            ("z",), (PredAtom("S", (Var("x"), Cst("z"))),), ()),))
        assert not c.anchored

    def test_atoms_builtins_and_ground_atoms_stay_apart(self):
        # the parser keeps atoms and builtins in one list before it sorts
        # them, and a constraint's constants read both
        terms = (Var("x"), Var("y"))
        a, b = PredAtom("eq", terms), Builtin("eq", terms)
        assert a != b and b != a and len({a, b}) == 2
        # ground_atom maps a PredAtom to an Atom: Cst and str differ
        pattern = PredAtom("R", (Cst("a"),))
        assert pattern != Atom("R", ("a",)) and Atom("R", ("a",)) != pattern
        assert PredAtom("R", (Cst("a"),)) == pattern

    def test_cached_analyses_are_read_once(self):
        text = "forall x,y : R(x,y) -> S(y,c) or x = d"
        c = parse_constraint(text)
        for name in ("relevant", "anchored", "problematic", "constants"):
            assert name not in vars(c)
            assert getattr(c, name) is getattr(c, name)
            assert name in vars(c)
        assert c.constants == {"c", "d"}
        assert c == parse_constraint(text)
        assert hash(c) == hash(parse_constraint(text))

    def test_a_hashed_record_refuses_assignment(self):
        c = parse_constraint("forall x : R(x) -> S(x)")
        q = parse_query("query P : R(x)")
        before = hash(c)
        for rec, name in [(c, "body"), (c, "relevant"), (Var("x"), "name"),
                          (Cst("a"), "value"), (c.body[0], "terms"),
                          (Builtin("false"), "op"), (c.head[0], "atoms"),
                          (q, "peer")]:
            hash(rec)
            with pytest.raises(AttributeError):
                setattr(rec, name, ())
        assert hash(c) == before and c.body == (PredAtom("R", (Var("x"),)),)

    def test_a_disjunct_derives_a_changed_copy(self):
        d = Disjunct(("z",), (PredAtom("S", (Var("z"),)),), ())
        e = d._replace(builtins=(Builtin("isnotnull", (Var("z"),)),))
        assert str(d) == "exists z: S(z)"
        assert str(e) == "exists z: S(z), isnotnull(z)"
        assert d.builtins == ()


class TestRewriting:
    def test_fd_gains_null_escapes(self):
        c = parse_constraint(
            "forall x,y,z1,z2 : R(x,y,z1), R(x,y,z2) -> z1 = z2")
        assert str(n_rewrite_constraint(c)) == (
            "forall x,y,z1,z2: R(x,y,z1), R(x,y,z2) -> "
            "isnull(x) or isnull(y) or isnull(z1) or isnull(z2) or z1=z2")

    def test_pure_null_constraint_unchanged(self):
        c = parse_constraint("forall x,y,z : R(x,y,z) -> isnotnull(x)")
        assert n_rewrite_constraint(c) == c

    def test_existential_gets_isnotnull_guard(self):
        c = parse_constraint("forall x : R(x) -> exists y : T(x,y), S(y)")
        assert str(n_rewrite_constraint(c)) == (
            "forall x: R(x) -> isnull(x) or "
            "exists y: T(x,y), S(y), isnotnull(y)")

    def test_query_gains_neq_null(self):
        q = parse_query("exists y : P0(x,y), y > 5")
        assert str(n_rewrite_query(q)) == "exists y: P0(x,y), y>5, y!=null"

    def test_join_query_gains_neq_null(self):
        q = parse_query("exists y,z : R(x,y,z), S(y), y > 2")
        assert str(n_rewrite_query(q)) == (
            "exists y,z: R(x,y,z), S(y), y>2, y!=null")

    def test_query_without_relevant_vars_unchanged(self):
        q = parse_query("R(x,y)")
        assert n_rewrite_query(q) == q


class TestRefAcyclic:
    def test_plain_cycle_is_fine(self):
        sigma = (parse_constraint("forall x,y : R(x,y) -> T(x,y)"),
                 parse_constraint("forall x,y : T(x,y) -> R(x,y)"))
        ok, witness = ref_acyclic(sigma)
        assert ok and witness is None

    def test_existential_self_loop(self):
        sigma = (parse_constraint("forall x,y : R(x,y) -> exists z : R(x,z)"),)
        ok, witness = ref_acyclic(sigma)
        assert not ok and witness == ["R", "R"]

    def test_existential_two_cycle(self):
        sigma = (
            parse_constraint("forall x,z : R1(x,z) -> exists y : R2(x,y)"),
            parse_constraint("forall x,z : R2(x,z) -> exists y : R1(x,y)"))
        ok, witness = ref_acyclic(sigma)
        assert not ok and witness is not None

    def test_existential_edge_off_cycle_is_fine(self):
        sigma = (parse_constraint("forall x,y : R(x,y) -> exists z : S(x,z)"),
                 parse_constraint("forall x,y : S(x,y) -> T(x,y)"))
        ok, _ = ref_acyclic(sigma)
        assert ok


_PRED = st.sampled_from(["R", "S", "T"])
_VAR = st.sampled_from(["x", "y", "z"])


@st.composite
def constraint_text(draw):
    body = ["%s(%s,%s)" % (draw(_PRED), draw(_VAR), draw(_VAR))
            for _ in range(draw(st.integers(1, 2)))]
    used = sorted({v for a in body for v in ("x", "y", "z") if v in a})
    kind = draw(st.sampled_from(["copy", "exist", "eq", "false"]))
    if kind == "copy":
        head = "Q(%s)" % ",".join(used) if used else "Q(c)"
    elif kind == "exist":
        head = "exists w : Q(%s,w)" % used[0]
    elif kind == "eq" and len(used) >= 2:
        head = "%s = %s" % (used[0], used[1])
    else:
        head = "false"
    return "forall %s : %s -> %s" % (",".join(used), ", ".join(body), head)


class TestRoundTrip:
    @given(constraint_text())
    def test_constraint_print_parse_round_trip(self, text):
        c = parse_constraint(text)
        assert parse_constraint(str(c)) == c

    @given(st.sampled_from([
        "R(x,y)", "exists y : R(x,y), S(y,z)",
        "exists y : P0(x,y), y > 5", "exists y,z : R(x,y,z), S(y), y > 2"]))
    def test_query_print_parse_round_trip(self, text):
        q = parse_query(text)
        assert parse_query(str(q)) == q
