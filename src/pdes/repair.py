"""Repair enumeration: the information order on tuples, the null-aware
closeness preorder bounded by the restricted chase, null-based repairs,
and the symmetric-difference (delta) alternative.

The enumerator is a violation-driven branch search. From the base
instance, a state's first violated ground instantiation branches into
deleting one antecedent atom or inserting one consequent disjunct, unless
it is forced (its body frozen, one insert its only move): then the
inserts of every forced violation of the state are applied as one batch,
as the restricted chase fires a round. Satisfying leaves are then
filtered for global minimality under the active preorder.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterable

from .core import (DEFAULT_CAP, NULL, Atom, CapExceeded, Instance,
                   atom_sort_key)
from .lang import Constraint, relevant_vars
from .nullsem import (ground_atom, holds_instantiation, instantiations,
                      n_holds, working_universe)
from .chase import SigmaSplit, head_options, r_chase, split_sigma

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

def _closeness_profile(d: Instance, base: Instance, bound: frozenset[Atom]):
    """What the closeness preorder reads of d: whether d lies inside the
    chase bound, its changes against base, and those changes grouped by
    (predicate, arity)."""
    delta = base.atoms ^ d.atoms
    groups: dict[tuple[str, int], list[Atom]] = {}
    for a in delta:
        groups.setdefault((a.pred, len(a.args)), []).append(a)
    return d.atoms <= bound, delta, groups


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
               split: SigmaSplit, bound: frozenset[Atom] | None = None) -> bool:
    """d1 is at least as close to base as d2: either d2 escapes the chase
    bound, or every change in d1 is matched by an at-least-as-informative
    change in d2 that (when strictly more informative) is not itself a
    change of d1."""
    if bound is None:
        bound = r_chase(base, split).atoms
    return _profile_leq(_closeness_profile(d1, base, bound),
                        _closeness_profile(d2, base, bound))


def closer_lt(d1: Instance, d2: Instance, base: Instance,
              split: SigmaSplit, bound: frozenset[Atom] | None = None) -> bool:
    if bound is None:
        bound = r_chase(base, split).atoms
    return _profile_lt(_closeness_profile(d1, base, bound),
                       _closeness_profile(d2, base, bound))


def delta_lt(d1: Instance, d2: Instance, base: Instance) -> bool:
    return (base.atoms ^ d1.atoms) < (base.atoms ^ d2.atoms)


@dataclass(frozen=True)
class RepairSet:
    repairs: tuple[Instance, ...]


def _sorted_instances(instances, base) -> tuple[Instance, ...]:
    def key(inst):
        delta = base.atoms ^ inst.atoms
        return (len(delta), tuple(sorted(map(atom_sort_key, inst.atoms))))
    return tuple(sorted(instances, key=key))


# ----------------------------------------------------- branch search core

def _violations(d: Instance, sigma, universe, classical: bool):
    """The violated ground instantiations (c, s) of d, in search order."""
    for c in sigma:
        rel = relevant_vars(c)
        wu = sorted(working_universe(d, c))
        for s in instantiations(d, c, universe):
            if not holds_instantiation(d, c, s, rel, classical, wu):
                yield c, s


def _children(state: frozenset[Atom], c: Constraint, s, universe, pool,
              frozen_preds: frozenset[str], frozen_atoms: frozenset[Atom],
              classical: bool) -> list[frozenset[Atom]]:
    """The states one move away from state that may repair the violated
    instantiation s of c: one per deletable body atom, then one per head
    option that adds atoms, none of a frozen predicate. A violation's
    body atoms are all in state."""
    out = [state - {ga} for ga in (ground_atom(a, s) for a in c.body)
           if ga.pred not in frozen_preds and ga not in frozen_atoms]
    for atoms in head_options(c, s, universe, pool, classical):
        new = atoms - state
        if new and not any(a.pred in frozen_preds for a in new):
            out.append(state | new)
    return out


def _forced(state: frozenset[Atom], children) -> frozenset[Atom] | None:
    """The atoms a violation forces into state: those of its one child,
    when that child is an insert; otherwise None."""
    if len(set(children)) == 1 and children[0] > state:
        return children[0] - state
    return None


def _branch_search(base: Instance, sigma, universe, pool,
                   frozen_preds: frozenset[str], classical: bool,
                   cap: int,
                   frozen_atoms: frozenset[Atom] = frozenset()) -> list[Instance]:
    """All satisfying instances reachable by repairing moves. Every state
    is read over base's schema, which must cover the pool's atoms.

    A state whose first violation has several moves branches on them. A
    state whose first violation is forced gets one child instead: the
    state plus the inserts of every forced violation it has. This loses
    no satisfying leaf. A forced violation's body is frozen, so it stays
    in every descendant and must be satisfied by its head there. Its head
    can only become true through a pool grounding whose missing atoms
    some move inserts, and its one insert is the only such grounding. So
    every satisfying leaf below the state contains that insert."""
    moves = (universe, pool, frozen_preds, frozen_atoms, classical)
    start = frozenset(base.atoms)
    seen = {start}
    stack = [start]
    found: list[Instance] = []
    while stack:
        state = stack.pop()
        inst = Instance(state, base.schema)
        viols = _violations(inst, sigma, universe, classical)
        first = next(viols, None)
        if first is None:
            found.append(inst)
            continue
        nexts = _children(state, *first, *moves)
        batch = _forced(state, nexts)
        if batch is not None:
            for viol in viols:
                more = _forced(state, _children(state, *viol, *moves))
                if more is not None:
                    batch |= more
            nexts = [state | batch]
        for n in nexts:
            if n not in seen:
                if len(seen) >= cap:
                    raise CapExceeded(cap, len(seen) + 1)
                seen.add(n)
                stack.append(n)
    return found


def _minimal(candidates, profile: Callable, beats: Callable) -> list[Instance]:
    """The candidates that no other candidate beats; profile is computed
    once per candidate and beats compares two profiles."""
    profiles = [profile(c) for c in candidates]
    out = []
    for r, pr in zip(candidates, profiles):
        if not any(c.atoms != r.atoms and beats(pc, pr)
                   for c, pc in zip(candidates, profiles)):
            out.append(r)
    # collapse duplicates
    uniq = {c.atoms: c for c in out}
    return list(uniq.values())


# --------------------------------------------------------- entry points

def null_repairs(base: Instance, sigma,
                 frozen_preds: Iterable[str] = (),
                 cap: int = DEFAULT_CAP,
                 frozen_atoms: Iterable[Atom] = ()) -> RepairSet:
    """Null-semantics repairs minimal under the chase-bounded closeness
    preorder; insertions are confined to restricted-chase atoms."""
    sigma = tuple(sigma)
    split = split_sigma(sigma)
    chased = r_chase(base, split)
    bound = chased.atoms
    universe = sorted(working_universe(chased, *sigma))
    frozen = frozenset(frozen_preds)
    cands = _branch_search(Instance(base.atoms, chased.schema), sigma,
                           universe, bound, frozen, classical=False, cap=cap,
                           frozen_atoms=frozenset(frozen_atoms))
    minimal = _minimal(cands, lambda d: _closeness_profile(d, base, bound),
                       _profile_lt)
    return RepairSet(_sorted_instances(minimal, base))


def delta_repairs(base: Instance, sigma,
                  frozen_preds: Iterable[str] = (),
                  cap: int = DEFAULT_CAP,
                  frozen_atoms: Iterable[Atom] = ()) -> RepairSet:
    """Repairs minimal under set inclusion of the symmetric difference;
    insertions range over the working universe."""
    sigma = tuple(sigma)
    universe = sorted(working_universe(base, *sigma))
    frozen = frozenset(frozen_preds)
    cands = _branch_search(base, sigma, universe, None, frozen,
                           classical=True, cap=cap,
                           frozen_atoms=frozenset(frozen_atoms))
    minimal = _minimal(cands, lambda d: base.atoms ^ d.atoms, operator.lt)
    return RepairSet(_sorted_instances(minimal, base))


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
    split = split_sigma(sigma)
    chased = r_chase(base, split)
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
            sat.append(inst)
    minimal = _minimal(sat, lambda d: _closeness_profile(d, base, chased.atoms),
                       _profile_lt)
    return RepairSet(_sorted_instances(minimal, base))
