"""Repair enumeration: the information order on tuples, the null-aware
closeness preorder bounded by the restricted chase, null-based repairs,
and the symmetric-difference (delta) alternative.

The enumerator is a violation-driven branch search. From the base
instance, a state's first violated ground instantiation branches into
deleting one antecedent atom or inserting one consequent disjunct, unless
it is forced (its body frozen, one insert its only move): then the
inserts of every forced violation of the state are applied as one batch,
as the restricted chase fires a round; the batched child re-examines
only its parent's violations and the instantiations the batch touches.
At its first state that is not forced, the search splits into the
conflict parts of the restricted chase (pool atoms that some ground
instantiation joins, through its body or a grounding of its head, or
that lie in violated parts with one below the other in the information
order) and searches each violated part alone. Each part's satisfying
states are minimised alone, and the minimal repairs come back factored
(`RepairSet`): the unsplit atoms plus one minimal state of every part.
The product is built only where `RepairSet.repairs` is read, which lists
the repairs; certain answers and cores (:mod:`pdes.system`) work on the
parts. The delta preorder's inserts range over the universe, so its
search keeps one part. A check reads its own ranges (`nullsem`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from math import prod
from typing import Callable, Iterable

from .core import (DEFAULT_CAP, NULL, Atom, Budget, CapExceeded, Instance,
                   Schema, atom_sort_key)
from .lang import Constraint
from .nullsem import (ground_atom, holds_instantiation, instantiation_key,
                      instantiations, n_holds, working_universe)
from .chase import check_fit, head_options, r_chase

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

def _closeness_profile(d: frozenset[Atom], base: frozenset[Atom],
                       bound: frozenset[Atom]):
    """What the closeness preorder reads of the atoms d: whether they lie
    inside the chase bound, their changes against base, and those changes
    grouped by (predicate, arity)."""
    delta = base ^ d
    groups: dict[tuple[str, int], list[Atom]] = {}
    for a in delta:
        groups.setdefault((a.pred, len(a.args)), []).append(a)
    return d <= bound, delta, groups


def _profile_leq(p1, p2) -> bool:
    in_bound2, delta2, groups2 = p2
    if not in_bound2:
        return True
    _, delta1, groups1 = p1
    for key, changes in groups1.items():
        others = groups2.get(key, ())
        for a in changes:
            # a itself matches when d2 shares the change; any other match
            # must be strictly more informative and not a change of d1
            if a not in delta2 and not any(
                    b not in delta1 and info_leq(a.args, b.args)
                    for b in others):
                return False
    return True


def _profile_lt(p1, p2) -> bool:
    return _profile_leq(p1, p2) and not _profile_leq(p2, p1)


def closer_leq(d1: Instance, d2: Instance, base: Instance,
               bound: frozenset[Atom]) -> bool:
    """d1 is at least as close to base as d2: either d2 escapes the chase
    bound (the atoms of base's restricted chase), or every change in d1
    is matched by an at-least-as-informative change in d2 that (when
    strictly more informative) is not itself a change of d1."""
    return _profile_leq(_closeness_profile(d1.atoms, base.atoms, bound),
                        _closeness_profile(d2.atoms, base.atoms, bound))


def closer_lt(d1: Instance, d2: Instance, base: Instance,
              bound: frozenset[Atom]) -> bool:
    return _profile_lt(_closeness_profile(d1.atoms, base.atoms, bound),
                       _closeness_profile(d2.atoms, base.atoms, bound))


def delta_lt(d1: Instance, d2: Instance, base: Instance) -> bool:
    return (base.atoms ^ d1.atoms) < (base.atoms ^ d2.atoms)


@dataclass(frozen=True)
class RepairSet:
    """Repairs in factored form: each is the shared atoms plus one state
    of every part. No two of shared and the parts' states hold a common
    atom, so distinct choices give distinct repairs. ``budget`` is the
    cap of the search that found them, which multiplying out two parts or
    more is charged to."""

    shared: frozenset[Atom]
    parts: tuple[tuple[frozenset[Atom], ...], ...]
    schema: Schema
    budget: Budget = field(compare=False, repr=False)

    @cached_property
    def repairs(self) -> tuple[Instance, ...]:
        """The product, in search order; a caller that lists it orders
        it."""
        if len(self.parts) > 1:
            self.budget.charge(prod(map(len, self.parts)))
        out = [self.shared]
        for states in self.parts:
            out = [d | s for d in out for s in states]
        return tuple(Instance._trusted(a, self.schema) for a in out)


def one_part(states: Iterable[frozenset[Atom]], schema: Schema,
             cap: int) -> RepairSet:
    """The atom sets states as the one part of a factored set."""
    return RepairSet(frozenset(), (tuple(states),), schema, Budget(cap))


# ----------------------------------------------------- branch search core

class _Search:
    """One repair search over states (atom sets read over schema, which
    every constraint must fit): the moves they allow and the one budget
    charged with every state of every part and with every product of
    parts later built from its result."""

    def __init__(self, schema, sigma, universe, pool: Instance | None,
                 frozen_preds: frozenset[str], frozen_atoms: frozenset[Atom],
                 classical: bool, cap: int):
        check_fit(schema, sigma)
        self.schema, self.universe, self.pool = schema, universe, pool
        self.sigma = tuple(dict.fromkeys(sigma))  # each once, in order
        # the constraints whose forced insert makes their instantiation
        # hold: the insert grounds every existential, none relevant
        self.settled = {c for c in self.sigma if c.anchored and (
            classical or not any(v in c.relevant
                                 for d in c.head for v in d.exist_vars))}
        self.frozen_preds, self.frozen_atoms = frozen_preds, frozen_atoms
        self.classical, self.budget = classical, Budget(cap)

    def violations(self, state: frozenset[Atom], batch=None, carried=None):
        """The violated ground instantiations (c, s) of state, in search
        order. With batch, the atoms state adds to a parent state, only
        the instantiations touching batch and the parent's violations in
        carried (constraint -> instantiations) are checked: the parent's
        other instantiations held there and still hold."""
        d = Instance._trusted(state, self.schema)
        for c in self.sigma:
            found = instantiations(d, c, self.universe, batch)
            if carried and c in carried:
                found = sorted(chain(carried[c], found),
                               key=lambda s, c=c: instantiation_key(c, s))
            for s in found:
                if not holds_instantiation(d, c, s, self.classical):
                    yield c, s

    def moves(self, state: frozenset[Atom], c: Constraint, s):
        """The moves that may repair the violated instantiation s of c in
        state, as deltas: its deletable body atoms, all in state, and the
        nonempty atom sets head options add, none of a frozen predicate."""
        dels = [ga for ga in (ground_atom(a, s) for a in c.body)
                if ga.pred not in self.frozen_preds
                and ga not in self.frozen_atoms]
        adds = [new for new in (atoms - state for atoms in head_options(
                    c, s, self.universe, self.pool, self.classical))
                if new and not any(a.pred in self.frozen_preds for a in new)]
        return dels, adds

    def step(self, state: frozenset[Atom], viols=None):
        """None when state satisfies every constraint; viols, when given,
        are its violations. Otherwise its children, each paired with its
        violations (None: enumerate them), and a rest. When the first
        violation branches, the children are its moves and the rest is
        state's violations from the first on, not yet read. When it is
        forced (no deletion, one distinct insert), the one child adds the
        inserts of every forced violation of state, and the rest is
        None."""
        viols = self.violations(state) if viols is None else viols
        first = next(viols, None)
        if first is None:
            return None
        dels, adds = self.moves(state, *first)
        if dels or len(set(adds)) != 1:
            return ([(state - {a}, None) for a in dels]
                    + [(state | a, None) for a in adds], chain([first], viols))
        batch, carried = set(), {}
        rest = ((v, self.moves(state, *v)) for v in viols)
        for (c, s), (dels, adds) in chain([(first, (dels, adds))], rest):
            if not dels and len(set(adds)) == 1:
                batch |= adds[0]
                if c in self.settled:
                    continue
            carried.setdefault(c, []).append(s)
        child = state | batch
        return [(child, self.violations(child, batch, carried))], None

    def explore(self, start: frozenset[Atom], nexts=None,
                seen: Iterable[frozenset[Atom]] = ()):
        """Every satisfying state reachable from start, depth first,
        charging each state reached but start and the states seen before;
        nexts, when given, are start's children as `step` gives them."""
        seen = {start, *seen}
        stack = [(start, None, nexts)]
        found = []
        while stack:
            state, viols, nexts = stack.pop()
            if nexts is None:
                got = self.step(state, viols)
                if got is None:
                    found.append(state)
                    continue
                nexts = got[0]
            for n, n_viols in nexts:
                if n not in seen:
                    self.budget.charge()
                    seen.add(n)
                    stack.append((n, n_viols, None))
        return found

    def parts(self, state: frozenset[Atom], viols) -> list[frozenset[Atom]]:
        """The parts of the pool that hold one of viols, the violations
        of state, ordered by their least atom. Two pool atoms share a part
        when one ground instantiation over the pool holds both, in its
        body or in any grounding of its head against the pool, or when
        both lie in such parts and the first is below the second in the
        information order. One part, all of state, when there is no pool,
        when some constraint has an empty body (no atom anchors its
        instantiations) or is not anchored (it reads values outside its
        atoms), or when the pool is one part or one part holds every
        violation."""
        if self.pool is None or not all(c.body and c.anchored
                                        for c in self.sigma):
            return [state]
        parent: dict[Atom, Atom] = {}

        def find(a: Atom) -> Atom:
            while parent.get(a, a) != a:
                parent[a] = a = parent.get(parent[a], parent[a])
            return a

        def union(atoms) -> None:
            root = find(atoms[0])
            for a in atoms[1:]:
                parent[find(a)] = root

        for c in self.sigma:
            for s in instantiations(self.pool, c, self.universe):
                atoms = [ground_atom(a, s) for a in c.body]
                for option in head_options(c, s, self.universe, self.pool,
                                           self.classical):
                    atoms.extend(option)
                union(atoms)
        if len({find(a) for a in self.pool}) == 1:
            return [state]  # no violation to list
        violated = {find(ground_atom(c.body[0], s)) for c, s in viols}
        hot = [a for a in self.pool if find(a) in violated]  # sorted
        groups: dict[tuple[str, int], list[Atom]] = {}
        for a in hot:
            groups.setdefault((a.pred, len(a.args)), []).append(a)
        for group in groups.values():
            for a in group:
                if NULL in a.args:  # only then below another atom
                    union([a, *(b for b in group if info_leq(a.args, b.args))])
        members: dict[Atom, list[Atom]] = {}
        for a in hot:
            members.setdefault(find(a), []).append(a)
        if len(members) == 1:
            return [state]
        return [frozenset(m) for m in members.values()]


def _branch_search(search: _Search, start: frozenset[Atom]):
    """The satisfying states reachable from start by repairing moves, as
    the atoms they all share and, for each searched part, the part and
    its satisfying states. Every candidate is the shared atoms plus one
    state of each part.

    A state whose first violation has several moves branches on them. A
    state whose first violation is forced (no deletion, one distinct
    insert) gets one child instead: the state plus the inserts of every
    forced violation it has. This loses no satisfying leaf. A forced
    violation's body is frozen, so it stays in every descendant and must
    be satisfied by its head there. Its head can only become true through
    a pool grounding whose missing atoms some move inserts, and its one
    insert is the only such grounding. So every satisfying leaf below the
    state contains that insert.

    A batch only inserts, so the child checks just the instantiations
    touching it and its parent's violations (the parent's other
    instantiations held and still hold), but not a forced violation of
    a settled constraint: its insert grounds every existential, in the
    child's universe, and no null witness is relevant. Branch children,
    deletions among them, are enumerated in full.

    Forced batches run on the whole state. At the first state that is
    not forced, the search splits it into the parts of `_Search.parts`
    and searches each violated part alone. A move inserts or deletes
    atoms of its violation's part, and whether an instantiation holds
    depends only on the atoms of its part, so the reachable satisfying
    states are the products of each part's, and parts without a
    violation stay as they are. With one part the search goes on from
    the moves already found, over the whole state."""
    state, viols = start, None
    seen = {start}
    search.budget.charge()
    while True:
        got = search.step(state, viols)
        if got is None:
            return state, []
        nexts, rest = got
        if rest is not None:
            break
        [(state, viols)] = nexts
        seen.add(state)
        search.budget.charge()
    parts = search.parts(state, rest)
    if len(parts) == 1:
        return frozenset(), [(state, search.explore(state, nexts, seen))]
    return (state.difference(*parts),
            [(part, search.explore(state & part)) for part in parts])


def _minimal(candidates, profile: Callable, beats: Callable) -> list:
    """The candidates that no other candidate beats; profile is computed
    once per candidate and beats compares two profiles strictly."""
    profiles = [profile(c) for c in candidates]
    return [r for i, (r, pr) in enumerate(zip(candidates, profiles))
            if not any(j != i and beats(pc, pr)
                       for j, pc in enumerate(profiles))]


def _minimal_repairs(search: _Search, base: frozenset[Atom],
                     profile: Callable, beats: Callable) -> RepairSet:
    """The minimal satisfying states reachable from base, factored: the
    shared atoms, and each part's states that no other state of the part
    beats, profile(d, b) reading a state d against b, the atoms of base
    in the part."""
    shared, parts = _branch_search(search, base)
    return RepairSet(shared, tuple(
        tuple(_minimal(states, lambda d, b=base & part: profile(d, b),
                       beats)) for part, states in parts),
        search.schema, search.budget)


# --------------------------------------------------------- entry points

def null_repairs(base: Instance, sigma,
                 frozen_preds: Iterable[str] = (),
                 cap: int = DEFAULT_CAP,
                 frozen_atoms: Iterable[Atom] = ()) -> RepairSet:
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
    products of each part's minimal states: the factored form returned."""
    sigma = tuple(sigma)
    chased = r_chase(base, sigma)
    bound = chased.atoms
    universe = working_universe(chased, *sigma)
    search = _Search(chased.schema, sigma, universe, chased,
                     frozenset(frozen_preds), frozenset(frozen_atoms),
                     False, cap)
    return _minimal_repairs(
        search, base.atoms,
        lambda d, b: _closeness_profile(d, b, bound), _profile_lt)


def delta_repairs(base: Instance, sigma,
                  frozen_preds: Iterable[str] = (),
                  cap: int = DEFAULT_CAP,
                  frozen_atoms: Iterable[Atom] = ()) -> RepairSet:
    """Repairs minimal under set inclusion of the symmetric difference;
    insertions range over the working universe, so the search has no
    pool to split and keeps one part."""
    sigma = tuple(sigma)
    universe = working_universe(base, *sigma)
    search = _Search(base.schema, sigma, universe, None,
                     frozenset(frozen_preds), frozenset(frozen_atoms),
                     True, cap)
    return _minimal_repairs(search, base.atoms, lambda d, b: b ^ d,
                            operator.lt)


def preorder_repairs(preorder: str, base: Instance, sigma,
                     frozen_preds: Iterable[str] = (), cap: int = DEFAULT_CAP,
                     frozen_atoms: Iterable[Atom] = ()) -> RepairSet:
    """The repairs of base under the named preorder: `null_repairs` for
    the null-based one, `delta_repairs` otherwise."""
    route = null_repairs if preorder == NULL_BASED else delta_repairs
    return route(base, sigma, frozen_preds, cap, frozen_atoms)


# ------------------------------------------------- exhaustive oracle

def exhaustive_null_repairs(base: Instance, sigma,
                            frozen_preds: Iterable[str] = (),
                            cap: int = DEFAULT_CAP,
                            frozen_atoms: Iterable[Atom] = ()) -> RepairSet:
    """Reference enumeration over every subset of the chase instance that
    keeps base's frozen atoms and atoms of frozen predicates and adds no
    other atom of a frozen predicate; exponential, for cross-checking
    only."""
    sigma = tuple(sigma)
    chased = r_chase(base, sigma)
    frozen, pinned = frozenset(frozen_preds), frozenset(frozen_atoms)
    kept = frozenset(a for a in base.atoms
                     if a.pred in frozen or a in pinned)
    free = sorted((a for a in chased.atoms
                   if a.pred not in frozen and a not in kept),
                  key=atom_sort_key)
    if 2 ** len(free) > cap:
        raise CapExceeded(cap, 2 ** len(free))
    sat = []
    for mask in range(2 ** len(free)):
        atoms = kept | {a for i, a in enumerate(free) if mask >> i & 1}
        inst = Instance(atoms, chased.schema)
        if all(n_holds(inst, c) for c in sigma):
            sat.append(inst.atoms)
    return one_part(_minimal(sat, lambda d: _closeness_profile(
        d, base.atoms, chased.atoms), _profile_lt), chased.schema, cap)
