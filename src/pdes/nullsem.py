"""Query evaluation and constraint checking under SQL-null semantics and
under classical semantics (null as an ordinary constant).

`join` is the one body join, looking each atom up by the values at its
bound positions (`Instance.lookup`); `delta_join` is its semi-naive
form. They serve the checks, the chase, the repair search, grounding
(:mod:`pdes.asp`), the import fixpoint and query answers. `extensions`
is the one enumerator behind every quantifier: it joins atoms against
an instance from a partial assignment and ranges the variables the join
leaves unbound over a sorted universe.
`instantiations` is its use on a constraint's body (the ground
instantiations), `holds_instantiation` its use on each head disjunct
(the existential witnesses), and the chase's insert options
(:mod:`pdes.chase`) its use on a head against a pool instance. The
restricted chase, the repair search (:mod:`pdes.repair`) and both
constraint checks here rest on these. A check reads its own ranges:
`holds_instantiation` reads the relevant variables off the constraint
and builds the working universe only for an unanchored one, the one kind
whose witness join leaves an existential variable unbound.

Given a delta, `instantiations` evaluates semi-naively (Bancilhon &
Ramakrishnan, 1986) through `delta_join`: it yields only the
instantiations with a body atom in the delta, each joined once from its
first such atom, sorted into the order of the full enumeration. This is
sound wherever atoms are only added:
`holds_instantiation` is monotone under insertion (more atoms offer more
witnesses over a larger universe; builtins and null tests read the
assignment alone), so an instantiation that held still holds, and one
that touches no added atom is not new.

Two independent constraint checks are provided for cross-checking:
`n_holds_direct` restricts relevant variables away from null, and
`n_holds` evaluates classically the rewritten constraint produced by
:mod:`pdes.lang`.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator

from .core import NULL, Atom, Instance, atom_sort_key, const_leq
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


def working_universe(d: Instance, *sigma: Constraint) -> list[str]:
    """The sorted active domain of d, null and the constraints' constants."""
    u = {NULL}
    for c in sigma:
        for item in (*c.atoms(), *(b for e in c.head for b in e.builtins)):
            u |= {t.value for t in item.terms if isinstance(t, Cst)}
    return sorted(d.domain | u)


def ground_atom(a, s: dict[str, str]) -> Atom:
    return Atom(a.pred, tuple([_term_value(t, s) for t in a.terms]))


def join(d: Instance, atoms, *starts: dict[str, str]
         ) -> list[dict[str, str]]:
    """All extensions of the assignments starts, which bind the same
    variables, matching every database atom in d: by start, then in the
    order of d's sorted atoms. Each atom is looked up by the values the
    assignment gives its bound positions; one it grounds costs one
    membership test."""
    frontier = list(starts)
    for a in atoms:
        if not frontier:
            break
        # every assignment in the frontier binds the same variables
        bound = tuple([i for i, t in enumerate(a.terms)
                       if isinstance(t, Cst) or t.name in frontier[0]])
        if len(bound) == len(a.terms):
            frontier = [cur for cur in frontier if ground_atom(a, cur) in d]
            continue
        free = [(i, a.terms[i].name) for i in range(len(a.terms))
                if i not in bound]
        nxt = []
        for cur in frontier:
            key = tuple([_term_value(a.terms[i], cur) for i in bound])
            for fact in d.lookup(a.pred, bound, key):
                ext = dict(cur)
                for i, v in free:
                    if ext.setdefault(v, fact.args[i]) != fact.args[i]:
                        break  # a repeated variable
                else:
                    nxt.append(ext)
        frontier = nxt
    return frontier


def delta_join(d: Instance, atoms, new: Instance
               ) -> Iterator[dict[str, str]]:
    """The extensions of the empty assignment matching every atom in d
    with some atom in new, atoms of d, each once: joined from its first
    atom in new (semi-naive evaluation)."""
    if atoms and len(new) == len(d):  # new is all of d: one plain join
        yield from join(d, atoms, {})
        return
    for i, a in enumerate(atoms):
        starts = join(new, (a,), {})
        for s in join(d, (*atoms[:i], *atoms[i + 1:]), *starts):
            if not any(ground_atom(b, s) in new for b in atoms[:i]):
                yield s


def extensions(d: Instance | None, atoms, s: dict[str, str], free,
               universe: list[str]) -> Iterator[dict[str, str]]:
    """Every extension of assignment s that puts all atoms in d (joined
    in order), with the free variables the join leaves unbound ranging
    over the sorted universe. With no atoms, d is not read."""
    for t in join(d, atoms, s):
        missing = [v for v in free if v not in t]
        for combo in product(universe, repeat=len(missing)):
            yield {**t, **dict(zip(missing, combo))}


def instantiation_key(c: Constraint, s: dict[str, str]):
    """Where s, an instantiation of c or the body part of one, comes in
    `instantiations`: its body atoms' sort keys, then the values of the
    universal variables it binds (the universe is sorted)."""
    return ([atom_sort_key(ground_atom(a, s)) for a in c.body],
            [s[v] for v in c.univ_vars if v in s])


def instantiations(d: Instance, c: Constraint, universe: list[str],
                   delta: Iterable[Atom] | None = None
                   ) -> Iterator[dict[str, str]]:
    """Every assignment of c's universal variables whose body atoms are
    all in d: the extensions of the empty assignment by c's body over
    universe, which callers pass sorted. With delta, atoms of d, only
    those with a body atom in delta, in the same order (`delta_join`,
    sorted)."""
    if delta is None:
        return extensions(d, c.body, {}, c.univ_vars, universe)
    new = Instance._trusted(frozenset(delta), d.schema)
    hits = sorted(delta_join(d, c.body, new),
                  key=lambda s: instantiation_key(c, s))
    return (full for s in hits
            for full in extensions(None, (), s, c.univ_vars, universe))


def holds_instantiation(d: Instance, c: Constraint, s: dict[str, str],
                        classical: bool) -> bool:
    """Truth of one instantiation s of c drawn from `instantiations` over
    d (so its body is in d): some head disjunct extends s into d, its
    existential variables ranging over the working universe of (d, c),
    which only an unanchored c reads. Non-classical mode restricts c's
    relevant existential variables away from null and, for its relevant
    universal variables, a null value satisfies vacuously."""
    rel = frozenset() if classical else c.relevant
    if any(s[v] == NULL for v in c.univ_vars if v in rel):
        return True
    universe = [] if c.anchored else working_universe(d, c)
    for disj in c.head:
        for full in extensions(d, disj.atoms, s, disj.exist_vars, universe):
            if all(full[v] != NULL for v in disj.exist_vars if v in rel) \
                    and all(eval_builtin(b, full, classical)
                            for b in disj.builtins):
                return True
    return False


# ---------------------------------------------------------- query answers

Matches = dict[tuple[str, ...], set[frozenset[Atom]]]


def _answers(d: Instance, q: Query, classical: bool,
             matches: Matches | None) -> frozenset[tuple[str, ...]]:
    rel = () if classical else relevant_vars(q)
    out = set()
    for s in join(d, q.atoms, {}):
        if not all(eval_builtin(b, s, classical) for b in q.builtins):
            continue
        if not classical and any(s[v] == NULL for v in rel):
            continue
        t = tuple(s[v] for v in q.free_vars)
        out.add(t)
        if matches is not None:
            matches.setdefault(t, set()).add(
                frozenset(ground_atom(a, s) for a in q.atoms))
    return frozenset(out)


def n_answers(d: Instance, q: Query,
              matches: Matches | None = None) -> frozenset[tuple[str, ...]]:
    """All null-semantics answer tuples; a Boolean (closed) query answers
    {()} for yes and the empty set for no. When matches is given, the
    atoms of d that each match of an answer uses are added to
    matches[answer], one set per match."""
    return _answers(d, q, False, matches)


def classical_answers(d: Instance, q: Query, matches: Matches | None = None
                      ) -> frozenset[tuple[str, ...]]:
    return _answers(d, q, True, matches)


# ------------------------------------------------------ constraint checks

def _holds(d: Instance, c: Constraint, classical: bool) -> bool:
    return all(holds_instantiation(d, c, s, classical)
               for s in instantiations(d, c, working_universe(d, c)))


def n_holds(d: Instance, c: Constraint) -> bool:
    """Null-semantics satisfaction via classical evaluation (null an
    ordinary constant) of the rewritten constraint."""
    return _holds(d, n_rewrite_constraint(c), classical=True)


def n_holds_direct(d: Instance, c: Constraint) -> bool:
    """Independent second route: direct evaluation with relevant-variable
    quantifier restriction on the unrewritten constraint."""
    return _holds(d, c, classical=False)
