"""Query evaluation and constraint checking under SQL-null semantics and
under classical semantics (null as an ordinary constant).

Two independent evaluation routes are provided for cross-checking: a
direct evaluator that restricts relevant variables away from null, and
classical evaluation of the rewritten formula produced by
:mod:`pdes.lang`.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable

from .core import NULL, Atom, Instance, active_domain, const_leq
from .lang import (Builtin, Constraint, Cst, Query, n_rewrite_constraint,
                   relevant_vars)


def _term_value(t, s: dict[str, str]) -> str:
    if isinstance(t, Cst):
        return t.value
    if t.name not in s:
        raise ValueError("unassigned variable %r" % t.name)
    return s[t.name]


def _order_holds(op: str, v1: str, v2: str) -> bool:
    if op == "lt":
        return const_leq(v1, v2) and v1 != v2
    if op == "leq":
        return const_leq(v1, v2)
    if op == "gt":
        return const_leq(v2, v1) and v1 != v2
    return const_leq(v2, v1)  # geq


def eval_builtin(b: Builtin, s: dict[str, str],
                 classical: bool = False) -> bool:
    """Truth of a ground builtin. isnull/isnotnull inspect the value
    itself and order comparisons never hold on null (it has no place in
    the order). Under the null semantics = and != fail on a null operand
    too; classically they treat null as an ordinary constant."""
    if b.op == "false":
        return False
    if b.op == "isnull":
        return _term_value(b.terms[0], s) == NULL
    if b.op == "isnotnull":
        return _term_value(b.terms[0], s) != NULL
    v1, v2 = (_term_value(t, s) for t in b.terms)
    if NULL in (v1, v2) and not (classical and b.op in ("eq", "neq")):
        return False
    if b.op == "eq":
        return v1 == v2
    if b.op == "neq":
        return v1 != v2
    return _order_holds(b.op, v1, v2)


def _formula_constants(f: Constraint | Query) -> set[str]:
    out: set[str] = set()
    if isinstance(f, Query):
        groups = [(f.atoms, f.builtins)]
    else:
        groups = [(f.body, ())] + [(d.atoms, d.builtins) for d in f.head]
    for atoms, builtins in groups:
        for item in (*atoms, *builtins):
            out |= {t.value for t in item.terms if isinstance(t, Cst)}
    return out


def working_universe(d: Instance, f: Constraint | Query | None = None) -> set[str]:
    u = active_domain(d) | {NULL}
    if f is not None:
        u |= _formula_constants(f)
    return u


def _ground_atom(a, s: dict[str, str]) -> Atom:
    return Atom(a.pred, tuple(_term_value(t, s) for t in a.terms))


def _join(d: Instance, atoms, s: dict[str, str]) -> Iterable[dict[str, str]]:
    """All extensions of assignment s matching every database atom in d."""
    frontier = [s]
    for a in atoms:
        nxt = []
        for cur in frontier:
            for fact in d.by_pred(a.pred):
                ext = dict(cur)
                ok = True
                for t, v in zip(a.terms, fact.args):
                    if isinstance(t, Cst):
                        if t.value != v:
                            ok = False
                            break
                    elif ext.setdefault(t.name, v) != v:
                        ok = False
                        break
                if ok:
                    nxt.append(ext)
        frontier = nxt
    return frontier


# ------------------------------------------------------------ n_satisfies

def n_satisfies(d: Instance, f: Query | Constraint, s: dict[str, str]) -> bool:
    """Direct null-semantics satisfaction. For a query, s assigns the free
    variables; for a constraint, s assigns the universal variables and the
    ground implication is checked."""
    if isinstance(f, Query):
        return _n_satisfies_query(d, f, s)
    return _holds_instantiation(d, f, s, relevant_vars(f), classical=False)


def _n_satisfies_query(d: Instance, q: Query, s: dict[str, str]) -> bool:
    rel = relevant_vars(q)
    if any(s[v] == NULL for v in q.free_vars if v in rel):
        return False
    universe = sorted(working_universe(d, q))
    nonnull = [c for c in universe if c != NULL]
    ranges = [nonnull if v in rel else universe for v in q.exist_vars]
    for combo in product(*ranges):
        full = {**s, **dict(zip(q.exist_vars, combo))}
        if all(_ground_atom(a, full) in d for a in q.atoms) and \
                all(eval_builtin(b, full) for b in q.builtins):
            return True
    return False


def _holds_instantiation(d: Instance, c: Constraint, s: dict[str, str],
                         rel: frozenset[str], classical: bool) -> bool:
    """Truth of one ground body->head instantiation. Non-classical mode
    restricts relevant existential variables away from null and, for
    relevant universal variables, a null value satisfies vacuously."""
    if not classical and any(s[v] == NULL for v in c.univ_vars if v in rel):
        return True
    if not all(_ground_atom(a, s) in d for a in c.body):
        return True
    universe = sorted(working_universe(d, c))
    nonnull = [c_ for c_ in universe if c_ != NULL]
    for disj in c.head:
        if classical:
            ranges = [universe] * len(disj.exist_vars)
        else:
            ranges = [nonnull if v in rel else universe
                      for v in disj.exist_vars]
        for combo in product(*ranges):
            full = {**s, **dict(zip(disj.exist_vars, combo))}
            if all(_ground_atom(a, full) in d for a in disj.atoms) and \
                    all(eval_builtin(b, full, classical)
                        for b in disj.builtins):
                return True
    return False


# ---------------------------------------------------------- query answers

def _answers(d: Instance, q: Query, classical: bool) -> frozenset[tuple[str, ...]]:
    rel = () if classical else relevant_vars(q)
    out = set()
    for s in _join(d, q.atoms, {}):
        if not all(eval_builtin(b, s, classical) for b in q.builtins):
            continue
        if not classical and any(s[v] == NULL for v in rel):
            continue
        out.add(tuple(s[v] for v in q.free_vars))
    return frozenset(out)


def n_answers(d: Instance, q: Query) -> frozenset[tuple[str, ...]]:
    """All null-semantics answer tuples; a Boolean (closed) query answers
    {()} for yes and the empty set for no."""
    return _answers(d, q, classical=False)


def classical_answers(d: Instance, q: Query) -> frozenset[tuple[str, ...]]:
    return _answers(d, q, classical=True)


# ------------------------------------------------------ constraint checks

def classical_holds(d: Instance, c: Constraint) -> bool:
    """Classical satisfaction of c over d, null an ordinary constant."""
    rel: frozenset[str] = frozenset()
    for s in _join(d, c.body, {}):
        full = dict(s)
        universe = sorted(working_universe(d, c))
        for v in c.univ_vars:  # variables not bound by the body cannot
            full.setdefault(v, None)  # occur elsewhere (safety), but be safe
        if any(v is None for v in full.values()):
            missing = [v for v, val in full.items() if val is None]
            sat = all(
                _holds_instantiation(d, c, {**s, **dict(zip(missing, combo))},
                                     rel, classical=True)
                for combo in product(universe, repeat=len(missing)))
            if not sat:
                return False
            continue
        if not _holds_instantiation(d, c, full, rel, classical=True):
            return False
    return True


def n_holds(d: Instance, c: Constraint) -> bool:
    """Null-semantics satisfaction via classical evaluation of the
    rewritten constraint."""
    return classical_holds(d, n_rewrite_constraint(c))


def n_holds_direct(d: Instance, c: Constraint) -> bool:
    """Independent second route: direct evaluation with relevant-variable
    quantifier restriction on the unrewritten constraint."""
    rel = relevant_vars(c)
    for s in _join(d, c.body, {}):
        if not _holds_instantiation(d, c, s, rel, classical=False):
            return False
    return True


# Exported names used by the chase and repair machinery.
join = _join
holds_instantiation = _holds_instantiation
ground_atom = _ground_atom
