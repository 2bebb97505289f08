"""Restricted null-propagating chase.

Splits a constraint set into the part it may enforce (universal
constraints and existential ones whose existential variables appear in
no join or builtin) and saturates the instance by firing violated ground
instantiations in parallel rounds, substituting null for existential
variables. The result bounds the insertions admissible in repairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .core import NULL, Atom, Instance, Schema, active_domain
from .lang import Constraint, relevant_vars, term_vars
from .nullsem import (eval_builtin, ground_atom, holds_instantiation, join,
                      working_universe)


@dataclass(frozen=True)
class SigmaSplit:
    sigma1: tuple[Constraint, ...]
    sigma2_minus: tuple[Constraint, ...]
    excluded: tuple[Constraint, ...]

    @property
    def enforced(self) -> tuple[Constraint, ...]:
        return self.sigma1 + self.sigma2_minus

    @property
    def all(self) -> tuple[Constraint, ...]:
        return self.sigma1 + self.sigma2_minus + self.excluded


def has_problematic_existential(c: Constraint) -> bool:
    """True when some existential variable occurs in a join (>= 2 database
    atom occurrences) or inside a builtin atom."""
    for d in c.head:
        if not d.exist_vars:
            continue
        counts: dict[str, int] = {}
        for a in d.atoms:
            for v in term_vars(a.terms):
                counts[v] = counts.get(v, 0) + 1
        builtin_vars = {v for b in d.builtins for v in term_vars(b.terms)}
        for v in d.exist_vars:
            if counts.get(v, 0) >= 2 or v in builtin_vars:
                return True
    return False


def split_sigma(sigma) -> SigmaSplit:
    s1, s2, out = [], [], []
    for c in sigma:
        if not c.is_existential:
            s1.append(c)
        elif has_problematic_existential(c):
            out.append(c)
        else:
            s2.append(c)
    return SigmaSplit(tuple(s1), tuple(s2), tuple(out))


def _head_schema(sigma) -> Schema:
    arities: dict[str, int] = {}
    for c in sigma:
        for d in c.head:
            for a in d.atoms:
                arities[a.pred] = len(a.terms)
    return Schema(arities)


def _violated_instantiations(d: Instance, c: Constraint, universe):
    """Assignments of the universal variables with satisfied antecedent and
    violated instantiation."""
    rel = relevant_vars(c)
    for s in join(d, c.body, {}):
        missing = [v for v in c.univ_vars if v not in s]
        for combo in product(sorted(universe), repeat=len(missing)):
            full = {**s, **dict(zip(missing, combo))}
            if not holds_instantiation(d, c, full, rel, classical=False):
                yield full


def _fire(c: Constraint, s: dict[str, str]) -> set[Atom]:
    """Atoms contributed by one violated instantiation: every disjunct's
    database atoms, existentials replaced by null, builtin-failing
    disjuncts skipped."""
    out: set[Atom] = set()
    for disj in c.head:
        full = {**s, **{v: NULL for v in disj.exist_vars}}
        if all(eval_builtin(b, full) for b in disj.builtins):
            out |= {ground_atom(a, full) for a in disj.atoms}
    return out


def r_chase(d: Instance, split: SigmaSplit) -> Instance:
    sigma = split.enforced
    schema = d.schema.union(_head_schema(sigma))
    cur = Instance(d.atoms, schema)
    universe = active_domain(d) | {NULL}
    for c in sigma:
        universe |= working_universe(d, c)
    while True:
        new: set[Atom] = set()
        for c in sigma:
            for s in _violated_instantiations(cur, c, universe):
                new |= _fire(c, s)
        new -= cur.atoms
        if not new:
            return cur
        cur = cur.with_atoms(new)
