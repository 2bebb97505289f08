"""Repair enumeration: the information order on tuples, the null-aware
closeness preorder bounded by the restricted chase, null-based repairs,
and the symmetric-difference (delta) alternative.

The enumerator is a violation-driven branch search. From the base
instance, a state's first violated ground instantiation branches into
deleting one antecedent atom or inserting one consequent disjunct, unless
it is forced (its body frozen, one insert its only move): then the
inserts of every forced violation of the state are applied as one batch,
as the restricted chase fires a round; the join over the whole state
checks the batched child, as it checks every state before the split.
Every state lies in the search's closure (`_Search.closure`), built only
when read. At its first state that is not forced, the search splits into
the conflict parts of the closure (atoms that some ground instantiation
joins, through its body or a grounding of its head, or that lie in
violated parts with one below the other in the information order) and
searches each violated part alone, under either preorder. Splitting
grounds the closure once: per instantiation, its body, its head's
groundings and its witnesses (`nullsem.pool_witnesses`). From there
every state is decided by containment in those rows, with no join
(Gebser, Kaufmann & Schaub, IJCAI 2007, ground once and then search by
set operations). Each part's satisfying states are minimised alone, and
the minimal repairs come back factored (`RepairSet`): the unsplit atoms
plus one minimal state of every part, whether one part is violated or
several. Each part's search charges the cap with every state it reaches
but its start. The product is built only where `RepairSet.repairs` is
read, which lists the repairs; certain answers and cores
(:mod:`pdes.system`) work on the parts. Its violations, rows and head
groundings against the closure (`_Search.groundings`) come in
`nullsem.in_order`, whatever order the joins give. A check reads its own
ranges (`nullsem`).
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import Callable, Iterable

from .core import (NULL, Atom, Budget, Instance, Partition, Record, Schema,
                   atom_sort_key)
from .lang import Constraint
from .nullsem import (ground_atom, holds_instantiation, in_order,
                      instantiations, n_holds, pool_witnesses,
                      working_universe)
from .chase import check_fit, head_options, r_chase, saturate

NULL_BASED = "null"
SYMMETRIC_DELTA = "delta"


# ----------------------------------------------------- information order

def info_leq(s1, s2) -> bool:
    """c provides at most the information of d iff c is null or c = d;
    pointwise on equal-length sequences."""
    if isinstance(s1, str):
        return s1 == NULL or s1 == s2
    if len(s1) != len(s2):
        raise ValueError("length mismatch in information order")
    return all(c == NULL or c == d for c, d in zip(s1, s2))


# ----------------------------------------------------- closeness preorder

def closeness_profile(d: frozenset[Atom], base: frozenset[Atom],
                      bound: frozenset[Atom]):
    """What the closeness preorder reads of the atoms d: whether they lie
    inside bound (the atoms of base's restricted chase), their changes
    against base, and those changes grouped by (predicate, arity)."""
    delta = base ^ d
    groups: dict[tuple[str, int], list[Atom]] = {}
    for a in delta:
        groups.setdefault((a.pred, len(a.args)), []).append(a)
    return d <= bound, delta, groups


def closer_leq(p1, p2) -> bool:
    """The atoms profiled as p1 are at least as close to base as those
    profiled as p2: either p2's escape the chase bound, or every change
    in p1 is matched by an at-least-as-informative change in p2 that
    (when strictly more informative) is not itself a change of p1."""
    in_bound2, delta2, groups2 = p2
    if not in_bound2:
        return True
    _, delta1, groups1 = p1
    for key, changes in groups1.items():
        others = groups2.get(key, ())
        for a in changes:
            # a itself matches when p2 shares the change; any other match
            # must be strictly more informative and not a change of p1
            if a not in delta2 and not any(
                    b not in delta1 and info_leq(a.args, b.args)
                    for b in others):
                return False
    return True


def closer_lt(p1, p2) -> bool:
    """The closeness profile p1 is strictly closer than p2."""
    return closer_leq(p1, p2) and not closer_leq(p2, p1)


def delta_lt(delta1: frozenset[Atom], delta2: frozenset[Atom]) -> bool:
    """The symmetric difference delta1 is strictly inside delta2."""
    return delta1 < delta2


class RepairSet(Record):
    """Repairs in factored form: each is the shared atoms plus one state
    of every part. No two of shared and the parts' states hold a common
    atom, so distinct choices give distinct repairs. ``budget``, outside
    ==, is the cap of the search that found them, which multiplying out
    two parts or more is charged to."""

    _fields = ("shared", "parts", "schema")

    def __init__(self, shared: frozenset[Atom],
                 parts: tuple[tuple[frozenset[Atom], ...], ...],
                 schema: Schema, budget: Budget):
        self.shared, self.parts, self.schema = shared, parts, schema
        self.budget = budget

    @cached_property
    def repairs(self) -> tuple[Instance, ...]:
        """The product, in search order; a caller that lists it orders
        it."""
        return tuple(Instance._trusted(a, self.schema)
                     for a in self.budget.choices(self.parts, self.shared))


# ----------------------------------------------------- branch search core

class _Search:
    """One repair search from base over states (atom sets read over
    base's schema, which every constraint must fit): the moves they allow
    and the one budget charged with every state of every part and with
    every product of parts later built from its result. Its universe is
    base's working universe, and its closure holds every state."""

    def __init__(self, base: Instance, sigma, frozen_preds: Iterable[str],
                 classical: bool):
        self.base, self.schema = base, base.schema
        self.sigma = tuple(dict.fromkeys(sigma))  # each once, in order
        check_fit(self.schema, self.sigma)
        self.universe = working_universe(base, *self.sigma)
        self.frozen_preds = frozenset(frozen_preds)
        self.classical, self.budget = classical, Budget()

    @cached_property
    def closure(self) -> Instance:
        """Every atom a state can hold, built when first read: base's
        restricted chase (null-based), or under delta the least superset
        of base holding every grounding over the universe of the head of
        each instantiation over it. Uncharged like the chase: it holds at
        most sum(|universe| ** arity) atoms over the schema, a polynomial,
        where the cap bounds the states, exponential in it."""
        if not self.classical:
            return r_chase(self.base, self.sigma)
        return saturate(self.base, self.sigma, self.universe, lambda _, c, s:
                        head_options(c, s, self.universe, None, True))

    def groundings(self, c: Constraint, s) -> tuple[frozenset[Atom], ...]:
        """The groundings of the head of c's instantiation s against the
        closure, in `nullsem.in_order` (`chase.head_options`): the atom
        sets its inserts may add."""
        return tuple(head_options(c, s, self.universe, self.closure,
                                  self.classical))

    def violations(self, state: frozenset[Atom], rows=None):
        """The violated ground instantiations (c, s) of state, in search
        order, each as (c, s, options), options the head's groundings
        against the closure (`groundings`).

        With rows, from `parts` for a state inside the closure, they are
        the rows whose body state holds and none of whose witnesses it
        holds (`nullsem.pool_witnesses`), with no join. The rows list
        the closure's instantiations per constraint in `nullsem.in_order`.
        So do the violations found by the join over state, which finds
        the closure's instantiations whose body state holds, so the two
        lists agree in content and order, and with them the search
        order, the cap's charges and the order of found states.

        Without rows, each constraint's body is joined over state and
        its instantiations put in `nullsem.in_order`."""
        if rows is not None:
            for c, s, body, options, witnesses in rows:
                if body <= state and not any(w <= state for w in witnesses):
                    yield c, s, options
            return
        d = Instance._trusted(state, self.schema)
        for c in self.sigma:
            for s in in_order(instantiations(d, c, self.universe), c.body,
                              c.univ_vars):
                if not holds_instantiation(d, c, s, self.classical):
                    yield c, s, self.groundings(c, s)

    def moves(self, state: frozenset[Atom], c: Constraint, s, options):
        """The moves that may repair the violated instantiation s of c in
        state, as deltas: its deletable body atoms, all in state, and the
        nonempty atom sets its head options add, none of a frozen
        predicate."""
        dels = [ga for ga in (ground_atom(a, s) for a in c.body)
                if ga.pred not in self.frozen_preds]
        adds = [new for new in (atoms - state for atoms in options)
                if new and not any(a.pred in self.frozen_preds for a in new)]
        return dels, adds

    def step(self, state: frozenset[Atom], rows=None):
        """None when state satisfies every constraint; rows, when given,
        decide its violations. Otherwise its children and whether they
        branch. When the first violation branches, the children are its
        moves. When it is forced (no deletion, one distinct insert), the
        one child adds the inserts of every forced violation of state."""
        viols = self.violations(state, rows)
        first = next(viols, None)
        if first is None:
            return None
        dels, adds = self.moves(state, *first)
        if dels or len(set(adds)) != 1:
            return ([state - {a} for a in dels]
                    + [state | a for a in adds], True)
        batch = set(adds[0])
        for v in viols:
            dels, adds = self.moves(state, *v)
            if not dels and len(set(adds)) == 1:
                batch |= adds[0]
        return [state | batch], False

    def explore(self, start: frozenset[Atom], rows=None):
        """Every satisfying state reachable from start, depth first,
        charging each state reached but start; rows, when given, decide
        every state's violations."""
        seen = {start}
        stack = [start]
        found = []
        while stack:
            state = stack.pop()
            got = self.step(state, rows)
            if got is None:
                found.append(state)
                continue
            for n in got[0]:
                if n not in seen:
                    self.budget.charge()
                    seen.add(n)
                    stack.append(n)
        return found

    def parts(self, state: frozenset[Atom]) -> list[tuple]:
        """The parts of the closure that hold a violation of state,
        ordered by their least atom, each with its rows. Two closure atoms
        share a part when one ground instantiation over the closure holds
        both, in its body or in any grounding of its head against the
        closure, or when both lie in such parts and the first is below
        the second in the information order.

        A row is what grounding the closure keeps of one instantiation s
        of a constraint c that does not escape, in `nullsem.in_order` per
        constraint: (c, s, its body atoms, its head's groundings against
        the closure, its witnesses in the closure). The rows decide which
        parts hold a violation of state, and every later state's
        violations (`violations`). A part's rows are those whose body
        lies in it.

        The information-order union reads one index per null pattern: an
        atom a with nulls is below exactly the atoms of its predicate
        that agree with a off its nulls, which `Instance.lookup` finds
        over the atoms of the violated parts by a's other positions. The
        union-find's choice of a group's name moves nothing, since the
        parts are listed by their least atom, their atoms in closure
        order and their rows in row order, whatever atom names them.

        One part, all of state with no rows (the join decides), when some
        constraint has an empty body (no atom anchors its instantiations)
        or is not anchored (it reads values outside its atoms)."""
        if not all(c.body and c.anchored for c in self.sigma):
            return [(state, None)]
        part, rows = Partition(), []
        for c in self.sigma:
            for s in in_order(instantiations(self.closure, c, self.universe),
                              c.body, c.univ_vars):
                body = frozenset(ground_atom(a, s) for a in c.body)
                options = self.groundings(c, s)
                part.union(chain(body, *options))
                witnesses = pool_witnesses(self.closure, c, s, self.classical)
                if witnesses is not None:
                    rows.append((c, s, body, options, witnesses))
        violated = {part.find(ground_atom(c.body[0], s))
                    for c, s, _ in self.violations(state, rows)}
        hot = [a for a in self.closure if part.find(a) in violated]  # sorted
        among = Instance._trusted(frozenset(hot), self.schema)
        for a in hot:
            if NULL in a.args:  # only then below another atom
                known = tuple(i for i, v in enumerate(a.args) if v != NULL)
                part.union(among.lookup(a.pred, known,
                                        tuple(a.args[i] for i in known)))
        members: dict[Atom, list[Atom]] = {}
        for a in hot:
            members.setdefault(part.find(a), []).append(a)
        grouped: dict[Atom, list] = {root: [] for root in members}
        for row in rows:  # a row's body atoms share one part
            root = part.find(next(iter(row[2])))
            if root in grouped:
                grouped[root].append(row)
        return [(frozenset(m), grouped[root]) for root, m in members.items()]


def _branch_search(search: _Search):
    """The satisfying states reachable from the search's base by
    repairing moves, as the atoms they all share and, for each searched
    part, the part and its satisfying states. Every candidate is the
    shared atoms plus one state of each part.

    A state whose first violation has several moves branches on them. A
    state whose first violation is forced (no deletion, one distinct
    insert) gets one child instead: the state plus the inserts of every
    forced violation it has. This loses no satisfying leaf. A forced
    violation's body is frozen, so it stays in every descendant and must
    be satisfied by its head there. Its head can only become true through
    a closure grounding whose missing atoms some move inserts, and its one
    insert is the only such grounding. So every satisfying leaf below the
    state contains that insert.

    A batch adds no atom of a frozen predicate, so every violation it
    creates has a deletable body atom and branches.

    Forced batches run on the whole state, checked by the join. At the
    first state that is not forced, the search splits it into the parts
    of `_Search.parts` and searches each violated part alone, one part
    as several. Every state lies in the closure (`null_repairs`,
    `delta_repairs`), so a move inserts or deletes atoms of its
    violation's part, and whether an instantiation holds depends only on
    the atoms of its part: the reachable satisfying states are the
    products of each part's, the atoms outside the violated parts stay
    as they are, and the rows grounded while splitting decide every
    later state's violations by containment (`_Search.violations`).
    Each part's search charges every state it reaches but its start, a
    state the forced batches reached among them. Where the split keeps
    the join (a constraint with an empty body or not anchored), the one
    part is the whole state."""
    state = search.base.atoms
    search.budget.charge()
    while True:
        got = search.step(state)
        if got is None:
            return state, []
        nexts, branched = got
        if branched:
            break
        [state] = nexts
        search.budget.charge()
    parts = search.parts(state)
    return (state.difference(*(part for part, _ in parts)),
            [(part, search.explore(state & part, rows))
             for part, rows in parts])


def _minimal(candidates, profile: Callable, beats: Callable) -> list:
    """The candidates that no other candidate beats; profile is computed
    once per candidate and beats compares two profiles strictly."""
    profiles = [profile(c) for c in candidates]
    return [r for i, (r, pr) in enumerate(zip(candidates, profiles))
            if not any(j != i and beats(pc, pr)
                       for j, pc in enumerate(profiles))]


def _minimal_repairs(search: _Search, profile: Callable,
                     beats: Callable) -> RepairSet:
    """The minimal satisfying states reachable from the search's base,
    factored: the shared atoms, and each part's states that no other
    state of the part beats, profile(d, b) reading a state d against b,
    the atoms of base in the part."""
    shared, parts = _branch_search(search)
    base = search.base.atoms
    return RepairSet(shared, tuple(
        tuple(_minimal(states, lambda d, b=base & part: profile(d, b),
                       beats)) for part, states in parts),
        search.schema, search.budget)


# --------------------------------------------------------- entry points

def null_repairs(base: Instance, sigma,
                 frozen_preds: Iterable[str] = ()) -> RepairSet:
    """Null-semantics repairs minimal under the chase-bounded closeness
    preorder; insertions are confined to restricted-chase atoms.

    Every candidate lies inside the chase bound, so the preorder compares
    changes only. Each part's candidates share the changes of the other
    parts, and a shared change matches itself. No atom of one searched
    part is below an atom of another in the information order
    (`_Search.parts` joins such parts), so a change can only be matched
    within its own part, and d1 <= d2 holds iff it holds part by part.
    If e beats d, then e <= d in every part and not d <= e in some part,
    where e's state beats d's. So d is minimal iff each of its part
    states is minimal in its part, and the minimal candidates are the
    products of each part's minimal states: the factored form returned.

    The chase, the search's closure, runs only when the search reads it:
    to ground a violated head, to split into parts, or to profile
    candidates against the bound. Every state lies in the chase: base
    does, a deletion keeps a state there, and an insert is a grounding of
    a head against the chase. So the rows that splitting grounds over the
    chase decide every later state's violations by containment
    (`nullsem.pool_witnesses`), and their head groundings are its moves.
    The search's universe is base's (`_Search`): every value the chase
    adds is null, of base's domain or a constant of the constraints."""
    search = _Search(base, sigma, frozen_preds, False)
    return _minimal_repairs(
        search, lambda d, b: closeness_profile(d, b, search.closure.atoms),
        closer_lt)


def delta_repairs(base: Instance, sigma,
                  frozen_preds: Iterable[str] = ()) -> RepairSet:
    """Repairs minimal under set inclusion of the symmetric difference.
    A move inserts a grounding over the universe of a violated head,
    which the closure holds, so every state lies in it and grounding a
    head against it gives the same inserts. A candidate's difference with
    base is the shared one plus each part's, disjointly, so e's is
    strictly inside d's iff each part's is inside and one strictly: d is
    minimal iff each of its part states is minimal in its part."""
    return _minimal_repairs(_Search(base, sigma, frozen_preds, True),
                            lambda d, b: b ^ d, delta_lt)


def preorder_repairs(preorder: str, base: Instance, sigma,
                     frozen_preds: Iterable[str] = ()) -> RepairSet:
    """The repairs of base under the named preorder: `null_repairs` for
    the null-based one, `delta_repairs` otherwise."""
    route = null_repairs if preorder == NULL_BASED else delta_repairs
    return route(base, sigma, frozen_preds)


# ------------------------------------------------- exhaustive oracle

def exhaustive_null_repairs(base: Instance, sigma,
                            frozen_preds: Iterable[str] = ()) -> RepairSet:
    """Reference enumeration over every subset of the chase instance that
    keeps base's atoms of frozen predicates and adds no other atom of a
    frozen predicate, all charged to the cap up front; exponential, for
    cross-checking only."""
    sigma = tuple(sigma)
    chased = r_chase(base, sigma)
    frozen = frozenset(frozen_preds)
    kept = frozenset(a for a in base.atoms if a.pred in frozen)
    free = sorted((a for a in chased.atoms if a.pred not in frozen),
                  key=atom_sort_key)
    budget = Budget()
    budget.charge(2 ** len(free))
    sat = []
    for mask in range(2 ** len(free)):
        atoms = kept | {a for i, a in enumerate(free) if mask >> i & 1}
        inst = Instance(atoms, chased.schema)
        if all(n_holds(inst, c) for c in sigma):
            sat.append(inst.atoms)
    best = _minimal(sat, lambda d: closeness_profile(
        d, base.atoms, chased.atoms), closer_lt)
    return RepairSet(frozenset(), (tuple(best),), chased.schema, budget)
