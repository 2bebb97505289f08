"""Restricted null-propagating chase.

Splits a constraint set into the part it may enforce (universal
constraints and existential ones whose existential variables appear in
no join or builtin) and saturates the instance by firing violated ground
instantiations in parallel rounds, substituting null for existential
variables. The result bounds the insertions admissible in repairs.
`head_options` grounds the consequent of one instantiation; the repair
search shares it with its own universe and pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .core import NULL, Atom, Instance, Schema
from .lang import Constraint, relevant_vars, term_vars
from .nullsem import (eval_builtin, ground_atom, holds_instantiation,
                      instantiations, working_universe)


@dataclass(frozen=True)
class SigmaSplit:
    sigma1: tuple[Constraint, ...]
    sigma2_minus: tuple[Constraint, ...]
    excluded: tuple[Constraint, ...]

    @property
    def enforced(self) -> tuple[Constraint, ...]:
        return self.sigma1 + self.sigma2_minus


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


def head_options(c: Constraint, s: dict[str, str], universe: list[str],
                 pool: frozenset[Atom] | None = None,
                 classical: bool = False):
    """Atom sets that satisfy one consequent disjunct of the ground
    instantiation s: existentials range over the sorted universe,
    builtin-failing and builtin-only disjuncts are skipped, and every atom
    is drawn from the pool (None = unrestricted)."""
    for disj in c.head:
        if not disj.atoms:
            continue
        for combo in product(universe, repeat=len(disj.exist_vars)):
            full = {**s, **dict(zip(disj.exist_vars, combo))}
            if not all(eval_builtin(b, full, classical)
                       for b in disj.builtins):
                continue
            atoms = frozenset(ground_atom(a, full) for a in disj.atoms)
            if pool is None or atoms <= pool:
                yield atoms


def r_chase(d: Instance, split: SigmaSplit) -> Instance:
    sigma = split.enforced
    schema = d.schema.union(_head_schema(sigma))
    cur = Instance(d.atoms, schema)
    universe = sorted(working_universe(d, *sigma))
    while True:
        new: set[Atom] = set()
        for c in sigma:
            rel = relevant_vars(c)
            wu = sorted(working_universe(cur, c))
            for s in instantiations(cur, c, universe):
                if not holds_instantiation(cur, c, s, rel, False, wu):
                    for atoms in head_options(c, s, [NULL]):
                        new |= atoms
        new -= cur.atoms
        if not new:
            return cur
        cur = cur.with_atoms(new)
