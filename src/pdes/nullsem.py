"""Query evaluation and constraint checking under SQL-null semantics and
under classical semantics (null as an ordinary constant).

`instantiations` is the one enumerator of a constraint's ground
instantiations: it joins the body against the instance and ranges the
universal variables the body leaves unbound over a universe.
`holds_instantiation` decides one of them. The restricted chase
(:mod:`pdes.chase`), the repair search (:mod:`pdes.repair`) and both
constraint checks here rest on that pair.

Two independent constraint checks are provided for cross-checking:
`n_holds_direct` restricts relevant variables away from null, and
`n_holds` evaluates classically the rewritten constraint produced by
:mod:`pdes.lang`.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator

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


def working_universe(d: Instance, *sigma: Constraint) -> set[str]:
    """The active domain of d, null and every constant of the constraints."""
    u = active_domain(d) | {NULL}
    for c in sigma:
        items = list(c.body)
        for disj in c.head:
            items += [*disj.atoms, *disj.builtins]
        for item in items:
            u |= {t.value for t in item.terms if isinstance(t, Cst)}
    return u


def ground_atom(a, s: dict[str, str]) -> Atom:
    return Atom(a.pred, tuple(_term_value(t, s) for t in a.terms))


def join(d: Instance, atoms, s: dict[str, str]) -> list[dict[str, str]]:
    """All extensions of assignment s matching every database atom in d."""
    frontier = [s]
    for a in atoms:
        facts = d.by_pred(a.pred)
        nxt = []
        for cur in frontier:
            for fact in facts:
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


def instantiations(d: Instance, c: Constraint,
                   universe: Iterable[str]) -> Iterator[dict[str, str]]:
    """Every assignment of c's universal variables whose body atoms are
    all in d: the body is joined against d, and the universal variables
    it leaves unbound (those that occur only in the head) range over the
    sorted universe."""
    universe = sorted(universe)
    for s in join(d, c.body, {}):
        missing = [v for v in c.univ_vars if v not in s]
        for combo in product(universe, repeat=len(missing)):
            yield {**s, **dict(zip(missing, combo))}


def holds_instantiation(d: Instance, c: Constraint, s: dict[str, str],
                        rel: frozenset[str], classical: bool,
                        universe: list[str]) -> bool:
    """Truth of one ground body->head instantiation, existential variables
    ranging over universe, the sorted working universe of (d, c).
    Non-classical mode restricts relevant existential variables away from
    null and, for relevant universal variables, a null value satisfies
    vacuously."""
    if not classical and any(s[v] == NULL for v in c.univ_vars if v in rel):
        return True
    if not all(ground_atom(a, s) in d for a in c.body):
        return True
    nonnull = None
    for disj in c.head:
        if classical or rel.isdisjoint(disj.exist_vars):
            ranges = [universe] * len(disj.exist_vars)
        else:
            if nonnull is None:
                nonnull = [c_ for c_ in universe if c_ != NULL]
            ranges = [nonnull if v in rel else universe
                      for v in disj.exist_vars]
        for combo in product(*ranges):
            full = {**s, **dict(zip(disj.exist_vars, combo))}
            if all(ground_atom(a, full) in d for a in disj.atoms) and \
                    all(eval_builtin(b, full, classical)
                        for b in disj.builtins):
                return True
    return False


# ---------------------------------------------------------- query answers

def _answers(d: Instance, q: Query, classical: bool) -> frozenset[tuple[str, ...]]:
    rel = () if classical else relevant_vars(q)
    out = set()
    for s in join(d, q.atoms, {}):
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

def _holds(d: Instance, c: Constraint, rel: frozenset[str],
           classical: bool) -> bool:
    universe = sorted(working_universe(d, c))
    return all(holds_instantiation(d, c, s, rel, classical, universe)
               for s in instantiations(d, c, universe))


def n_holds(d: Instance, c: Constraint) -> bool:
    """Null-semantics satisfaction via classical evaluation (null an
    ordinary constant) of the rewritten constraint."""
    return _holds(d, n_rewrite_constraint(c), frozenset(), classical=True)


def n_holds_direct(d: Instance, c: Constraint) -> bool:
    """Independent second route: direct evaluation with relevant-variable
    quantifier restriction on the unrewritten constraint."""
    return _holds(d, c, relevant_vars(c), classical=False)
