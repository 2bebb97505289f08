"""Repair enumeration: the information order on tuples, the null-aware
closeness preorder bounded by the restricted chase, null-based repairs,
and the symmetric-difference (delta) alternative.

The enumerator is a violation-driven branch search: from the base
instance, every violated ground instantiation branches into deleting one
antecedent atom or inserting one consequent disjunct; satisfying leaves
are then filtered for global minimality under the active preorder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .core import (DEFAULT_CAP, NULL, Atom, CapExceeded, Instance, Schema,
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


def info_lt(s1, s2) -> bool:
    return info_leq(s1, s2) and tuple(s1) != tuple(s2)


# ----------------------------------------------------- closeness preorder

def closer_leq(d1: Instance, d2: Instance, base: Instance,
               split: SigmaSplit, bound: frozenset[Atom] | None = None) -> bool:
    """d1 is at least as close to base as d2: either d2 escapes the chase
    bound, or every change in d1 is matched by an at-least-as-informative
    change in d2 that (when strictly more informative) is not itself a
    change of d1."""
    if bound is None:
        bound = r_chase(base, split).atoms
    if not d2.atoms <= bound:
        return True
    delta1 = base.atoms ^ d1.atoms
    delta2 = base.atoms ^ d2.atoms
    for a in delta1:
        if not any(b.pred == a.pred and len(b.args) == len(a.args)
                   and info_leq(a.args, b.args)
                   and (a.args == b.args or b not in delta1)
                   for b in delta2):
            return False
    return True


def closer_lt(d1: Instance, d2: Instance, base: Instance,
              split: SigmaSplit, bound: frozenset[Atom] | None = None) -> bool:
    if bound is None:
        bound = r_chase(base, split).atoms
    return closer_leq(d1, d2, base, split, bound) and \
        not closer_leq(d2, d1, base, split, bound)


def delta_leq(d1: Instance, d2: Instance, base: Instance) -> bool:
    return (base.atoms ^ d1.atoms) <= (base.atoms ^ d2.atoms)


def delta_lt(d1: Instance, d2: Instance, base: Instance) -> bool:
    return (base.atoms ^ d1.atoms) < (base.atoms ^ d2.atoms)


@dataclass(frozen=True)
class RepairSet:
    repairs: tuple[Instance, ...]
    base: Instance
    sigma: tuple[Constraint, ...]


def _sorted_instances(instances, base) -> tuple[Instance, ...]:
    def key(inst):
        delta = base.atoms ^ inst.atoms
        return (len(delta), tuple(sorted(map(atom_sort_key, inst.atoms))))
    return tuple(sorted(instances, key=key))


# ----------------------------------------------------- branch search core

def _violation(d: Instance, sigma, universe, classical: bool):
    """The first violated ground instantiation (c, s) in d, or None."""
    for c in sigma:
        rel = relevant_vars(c)
        wu = sorted(working_universe(d, c))
        for s in instantiations(d, c, universe):
            if not holds_instantiation(d, c, s, rel, classical, wu):
                return c, s
    return None


def _branch_search(base: Instance, sigma, universe, pool,
                   frozen_preds: frozenset[str], classical: bool,
                   cap: int,
                   frozen_atoms: frozenset[Atom] = frozenset()) -> list[Instance]:
    """All satisfying instances reachable by single-violation moves."""
    schema = base.schema
    if pool is not None:
        arities = {a.pred: len(a.args) for a in pool}
        schema = schema.union(Schema(arities))
    start = frozenset(base.atoms)
    seen = {start}
    stack = [start]
    found: list[Instance] = []
    while stack:
        state = stack.pop()
        inst = Instance(state, schema)
        viol = _violation(inst, sigma, universe, classical)
        if viol is None:
            found.append(inst)
            continue
        c, s = viol
        nexts: list[frozenset[Atom]] = []
        for a in c.body:
            ga = ground_atom(a, s)
            if ga.pred not in frozen_preds and ga not in frozen_atoms \
                    and ga in state:
                nexts.append(state - {ga})
        for atoms in head_options(c, s, universe, pool, classical):
            if any(a.pred in frozen_preds for a in atoms - state):
                continue
            if atoms - state:
                nexts.append(state | atoms)
        for n in nexts:
            if n not in seen:
                if len(seen) >= cap:
                    raise CapExceeded(cap, len(seen) + 1)
                seen.add(n)
                stack.append(n)
    return found


def _minimal(candidates, beats: Callable) -> list[Instance]:
    out = []
    for r in candidates:
        if not any(c.atoms != r.atoms and beats(c, r) for c in candidates):
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
    minimal = _minimal(cands, lambda c, r: closer_lt(c, r, base, split, bound))
    return RepairSet(_sorted_instances(minimal, base), base, sigma)


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
    minimal = _minimal(cands, lambda c, r: delta_lt(c, r, base))
    return RepairSet(_sorted_instances(minimal, base), base, sigma)


# ------------------------------------------------- exhaustive oracle

def exhaustive_null_repairs(base: Instance, sigma,
                            cap: int = DEFAULT_CAP) -> RepairSet:
    """Reference enumeration over every subset of the chase instance;
    exponential, for cross-checking only."""
    sigma = tuple(sigma)
    split = split_sigma(sigma)
    chased = r_chase(base, split)
    bound = sorted(chased.atoms, key=atom_sort_key)
    if 2 ** len(bound) > cap:
        raise CapExceeded(cap, 2 ** len(bound))
    sat = []
    for mask in range(2 ** len(bound)):
        atoms = frozenset(a for i, a in enumerate(bound) if mask >> i & 1)
        inst = Instance(atoms, chased.schema)
        if all(n_holds(inst, c) for c in sigma):
            sat.append(inst)
    minimal = _minimal(
        sat, lambda c, r: closer_lt(c, r, base, split, chased.atoms))
    return RepairSet(_sorted_instances(minimal, base), base, sigma)
