"""Query evaluation and constraint checking under SQL-null semantics and
under classical semantics (null as an ordinary constant).

`join` is the one body join, looking each atom up by the values at its
bound positions (`Instance.lookup`); `delta_join` is its semi-naive
form, over step plans computed once per formula (`_steps`). They
serve the checks, the chase, the repair search, grounding
(:mod:`pdes.asp`), the import fixpoint and query answers. `extensions`
is the one enumerator behind every quantifier: it joins atoms against
an instance from a partial assignment and ranges the variables the join
leaves unbound over a sorted universe.
`instantiations` is its use on a constraint's body (the ground
instantiations), `_witness_extensions` its use on each head disjunct
(the witnesses: `holds_instantiation` asks for one, `pool_witnesses`
lists them over a pool), and the chase's insert options
(:mod:`pdes.chase`) its use on a head against a pool instance. The
restricted chase, the repair search (:mod:`pdes.repair`) and both
constraint checks here rest on these. A check reads its own ranges:
`holds_instantiation` reads the relevant variables off the constraint
and builds the working universe only for an unanchored one, the one kind
whose witness join leaves an existential variable unbound; it tests a
disjunct without existentials by membership, with no join. Whether an
instantiation holds whatever the instance (a null relevant universal, a
builtin-only disjunct that holds) is `escapes`, which it asks first and
the import fixpoint asks alone of a head without existentials. Over
states inside a pool instance, an instantiation of an anchored
constraint holds iff it escapes or one of its pool witnesses lies in the
state (`pool_witnesses`): the split repair search decides its states so.

The joins and enumerators promise no order, as their lookups keep set
order. `in_order` is the one order, for its readers alone: the repair
search's violations and rows, the chase's insert options over a pool,
which the search's moves take, and the grounder's bindings
(:mod:`pdes.asp`).

Given a delta, `instantiations` evaluates semi-naively (Bancilhon &
Ramakrishnan, 1986) through `delta_join`: it yields only the
instantiations with a body atom in the delta, each joined once from its
first such atom, for the chase's rounds (`chase.saturate`). This is
sound wherever atoms are only added: `holds_instantiation` is monotone
under insertion (more atoms offer more witnesses over a larger universe;
builtins and null tests read the assignment alone), so an instantiation
that held still holds, and one that touches no added atom is not new.

`n_holds` is the exhaustive repair oracle's check: it evaluates the
rewritten constraint of :mod:`pdes.lang` classically (null an ordinary
constant), where the product's checks restrict the relevant variables
away from null.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator

from .core import NULL, Atom, Instance, _const_sort_key, const_leq
from .lang import (Builtin, Constraint, Cst, Query, n_rewrite_constraint,
                   relevant_vars, term_vars)


def _term_value(t, s: dict[str, str]) -> str:
    if isinstance(t, Cst):
        return t.value
    name = t.name
    if name not in s:
        raise ValueError("unassigned variable %r" % name)
    return s[name]


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
    return sorted(d.domain.union({NULL}, *(c.constants for c in sigma)))


def _universe(d: Instance, c: Constraint) -> list[str]:
    """`working_universe(d, c)`, built once per instance and constant
    set: a check of an unanchored c reads it per instantiation."""
    u = d.universes.get(c.constants)
    if u is None:
        u = d.universes[c.constants] = working_universe(d, c)
    return u


def ground_atom(a, s: dict[str, str]) -> Atom:
    return Atom(a.pred, tuple([t.value if isinstance(t, Cst) else s[t.name]
                               for t in a.terms]))


@lru_cache(maxsize=1024)  # keyed on the formula, so bounded per request
def _steps(atoms: tuple, bound: tuple[str, ...]) -> tuple:
    """`join`'s plan for atoms from assignments binding bound: per atom,
    its predicate, bound positions, their key slots (is a variable, name
    or constant), free variables' first positions, the position pairs a
    repeated free variable equates, and whether it is ground."""
    seen, steps = set(bound), []
    for a in atoms:
        pos, slots, first, same = [], [], {}, []
        for i, t in enumerate(a.terms):
            if isinstance(t, Cst) or t.name in seen:
                pos.append(i)
                slots.append((False, t.value) if isinstance(t, Cst)
                             else (True, t.name))
            elif first.setdefault(t.name, i) != i:
                same.append((first[t.name], i))
        steps.append((a.pred, tuple(pos), tuple(slots), tuple(first.items()),
                      tuple(same), len(pos) == len(a.terms)))
        seen.update(first)
    return tuple(steps)


def join(d: Instance, atoms: tuple, *starts: dict[str, str]
         ) -> list[dict[str, str]]:
    """All extensions of the assignments starts, which bind the same
    variables, matching every database atom in d: by start, and within a
    start in no promised order (`in_order` sorts them). Each atom is
    looked up by the values the assignment gives its bound positions
    (`_steps`); one it grounds costs one membership test."""
    frontier = list(starts)
    bound = tuple(starts[0]) if starts else ()
    for pred, pos, slots, free, same, ground in _steps(atoms, bound):
        nxt = []
        for cur in frontier:
            key = tuple([cur[x] if var else x for var, x in slots])
            if ground:
                if Atom(pred, key) in d.atoms:
                    nxt.append(cur)
                continue
            for fact in d.lookup(pred, pos, key):
                args = fact.args
                if same and any(args[i] != args[j] for i, j in same):
                    continue  # a repeated variable
                ext = dict(cur)
                for v, i in free:
                    ext[v] = args[i]
                nxt.append(ext)
        frontier = nxt
    return frontier


def delta_join(d: Instance, atoms, new: Instance
               ) -> Iterator[tuple[tuple, list[dict[str, str]]]]:
    """The extensions of the empty assignment matching every atom in d
    with some atom in new, atoms of d, each once: joined from its first
    atom in new (semi-naive evaluation). They come in groups, one per
    atom they are joined from, as (atoms with that one first, the
    group's extensions); `in_order` over those atoms orders a group."""
    if atoms and len(new) == len(d):  # new is all of d: one plain join
        yield atoms, join(d, atoms, {})
        return
    for i, a in enumerate(atoms):
        rest = (*atoms[:i], *atoms[i + 1:])
        yield (a, *rest), [
            s for s in join(d, rest, *join(new, (a,), {}))
            if not any(ground_atom(b, s) in new for b in atoms[:i])]


def extensions(d: Instance | None, atoms, s: dict[str, str], free,
               universe: list[str]) -> Iterator[dict[str, str]]:
    """Every extension of assignment s that puts all atoms in d (joined
    in order), with the free variables the join leaves unbound ranging
    over the universe. With no atoms, d is not read. An
    extension the join completes is yielded as the join gives it, which
    may be s itself: callers only read what they are given."""
    for t in join(d, atoms, s):
        missing = [v for v in free if v not in t]
        if not missing:
            yield t
            continue
        for combo in product(universe, repeat=len(missing)):
            yield {**t, **dict(zip(missing, combo))}


@lru_cache(maxsize=1024)  # keyed on the formula, so bounded per request
def _order_vars(atoms: tuple, tail: tuple) -> tuple:
    """`in_order`'s keys: the variables of atoms in first-occurrence
    order, and those of tail that atoms lack."""
    first = tuple(dict.fromkeys(v for a in atoms for v in term_vars(a.terms)))
    return first, tuple(v for v in tail if v not in first)


def in_order(assignments, atoms: tuple, tail: tuple = ()
             ) -> list[dict[str, str]]:
    """The assignments, each binding the variables of atoms and tail, in
    the one order that search and grounding read: by the constant order
    (`core._const_sort_key`) of atoms' variables in first-occurrence
    order, then by the values of tail's other variables, as text.

    It is the order of `join` from one start over atoms sorted by
    `core.atom_sort_key`, extended over a universe sorted as text
    (`working_universe`): a bucket's atoms agree on its bound positions
    and repeated variables, so their keys compare their first-occurring
    free variables, and `_const_sort_key` tells constants apart."""
    first, rest = _order_vars(atoms, tail)
    return sorted(assignments, key=lambda s: (
        [_const_sort_key(s[v]) for v in first], [s[v] for v in rest]))


def instantiations(d: Instance, c: Constraint, universe: list[str],
                   delta: Iterable[Atom] | None = None
                   ) -> Iterator[dict[str, str]]:
    """Every assignment of c's universal variables whose body atoms are
    all in d: the extensions of the empty assignment by c's body over
    universe, in no promised order (`in_order(_, c.body, c.univ_vars)`
    sorts them). With delta, atoms of d, only those with a body atom in
    delta (`delta_join`)."""
    if delta is None:
        return extensions(d, c.body, {}, c.univ_vars, universe)
    new = Instance._trusted(frozenset(delta), d.schema)
    return (full for _, hits in delta_join(d, c.body, new) for s in hits
            for full in extensions(None, (), s, c.univ_vars, universe))


def escapes(c: Constraint, s: dict[str, str], classical: bool) -> bool:
    """Whether the instantiation s of c holds whatever the instance: in
    non-classical mode a relevant universal variable is null (which
    satisfies vacuously), or the builtins of a disjunct with neither
    atoms nor existentials all hold on s."""
    if not classical:
        for v in c.relevant_universals:
            if s[v] == NULL:
                return True
    for builtins in c.escape_builtins:
        if all(eval_builtin(b, s, classical) for b in builtins):
            return True
    return False


def _witness_extensions(d: Instance, c: Constraint, s: dict[str, str],
                        classical: bool) -> Iterator[tuple]:
    """The witnesses of the instantiation s of c in d, lazily, as (head
    disjunct, its assignment): every extension of s putting the atoms of
    a disjunct with atoms or existentials into d, its existential
    variables ranging over the working universe of (d, c), which only an
    unanchored c reads, whose builtins hold and, in non-classical mode,
    whose relevant existential variables are not null. A disjunct
    without existentials is its one grounding by s, tested by
    membership; one with neither atoms nor existentials is left to
    `escapes`."""
    rel = frozenset() if classical else c.relevant
    universe = [] if c.anchored else _universe(d, c)
    for disj in c.head:
        exist_vars, atoms, builtins = disj
        if not exist_vars:  # s grounds it: membership, then builtins
            if atoms and all(ground_atom(a, s) in d.atoms for a in atoms) \
                    and (not builtins or all(eval_builtin(b, s, classical)
                                             for b in builtins)):
                yield disj, s
            continue  # one without atoms is read by escapes
        for full in extensions(d, atoms, s, exist_vars, universe):
            if all(full[v] != NULL for v in exist_vars if v in rel) \
                    and (not builtins or all(eval_builtin(b, full, classical)
                                             for b in builtins)):
                yield disj, full


def holds_instantiation(d: Instance, c: Constraint, s: dict[str, str],
                        classical: bool) -> bool:
    """Truth of one instantiation s of c drawn from `instantiations` over
    d (so its body is in d): it `escapes`, or it has a witness in d
    (`_witness_extensions`)."""
    return escapes(c, s, classical) or \
        any(_witness_extensions(d, c, s, classical))


def pool_witnesses(pool: Instance, c: Constraint, s: dict[str, str],
                   classical: bool) -> tuple[frozenset[Atom], ...] | None:
    """How the instantiation s of an anchored c holds in any instance d
    inside pool, decided without a join: None when s `escapes`, which
    reads s alone and so holds in every d; otherwise the atom sets of
    its witnesses in pool, and `holds_instantiation(d, c, s)` is true
    iff one of them lies in d.

    A witness in d is an extension of s that puts a disjunct's atoms in
    d and passes tests that read the extension alone (builtins, nulls of
    relevant existentials). c being anchored, the join binds every
    existential and no universe is read, so d and pool offer the same
    extensions up to where their atoms lie: one into d is one into pool,
    as d is inside pool, and one into pool whose atoms d holds is one
    into d. A disjunct without existentials is the case where the
    extension is s."""
    if escapes(c, s, classical):
        return None
    return tuple(frozenset(ground_atom(a, full) for a in disj.atoms)
                 for disj, full in _witness_extensions(pool, c, s, classical))


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

def n_holds(d: Instance, c: Constraint) -> bool:
    """Null-semantics satisfaction via classical evaluation (null an
    ordinary constant) of the rewritten constraint."""
    c = n_rewrite_constraint(c)
    return all(holds_instantiation(d, c, s, classical=True)
               for s in instantiations(d, c, _universe(d, c)))
