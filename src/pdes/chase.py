"""Restricted null-propagating chase.

Enforces the constraints it can (universal ones and existential ones
whose existential variables appear in no join or builtin; the others are
dropped) and saturates the instance over its own schema, which every
constraint must fit, by firing violated ground instantiations in
parallel rounds, substituting null for existential variables. The
result bounds the insertions admissible in repairs. Rounds after the
first check only the instantiations touching the atoms the round before
added: any other held then and still holds, or already fired its
atoms, which depend on the instantiation alone. Each check reads its own
ranges (`nullsem.holds_instantiation`), so a round computes none.
`head_options` grounds the consequent of one instantiation through
`nullsem.extensions`: against a pool instance when one is given, every
existential over the universe otherwise; the repair search shares it.
"""

from __future__ import annotations

from collections import Counter

from .core import NULL, Atom, Instance, Schema
from .lang import Constraint, term_vars
from .nullsem import (eval_builtin, extensions, ground_atom,
                      holds_instantiation, instantiations, working_universe)


def has_problematic_existential(c: Constraint) -> bool:
    """True when some existential variable occurs in a join (>= 2 database
    atom occurrences) or inside a builtin atom."""
    for d in c.head:
        counts = Counter(v for a in d.atoms for v in term_vars(a.terms))
        builtin_vars = {v for b in d.builtins for v in term_vars(b.terms)}
        if any(counts[v] >= 2 or v in builtin_vars for v in d.exist_vars):
            return True
    return False


def check_fit(schema: Schema, sigma) -> None:
    """Raise SchemaError unless every constraint of sigma fits schema."""
    for c in sigma:
        for a in c.atoms():
            schema.check(a.pred, len(a.terms), c)


def head_options(c: Constraint, s: dict[str, str], universe: list[str],
                 pool: Instance | None = None,
                 classical: bool = False):
    """Atom sets that satisfy one consequent disjunct of the ground
    instantiation s: with a pool, the disjunct's atoms are joined against
    it; without one, every existential ranges over the sorted universe.
    Builtin-failing and builtin-only disjuncts are skipped."""
    for disj in c.head:
        if not disj.atoms:
            continue
        atoms = disj.atoms if pool is not None else ()
        for full in extensions(pool, atoms, s, disj.exist_vars, universe):
            if all(eval_builtin(b, full, classical) for b in disj.builtins):
                yield frozenset(ground_atom(a, full) for a in disj.atoms)


def r_chase(d: Instance, sigma) -> Instance:
    """The restricted chase of d over its schema, which every constraint
    of sigma must fit, under those without a problematic existential."""
    check_fit(d.schema, sigma)
    sigma = [c for c in sigma if not has_problematic_existential(c)]
    cur, added = d, None
    universe = working_universe(d, *sigma)
    while True:
        new: set[Atom] = set()
        for c in sigma:
            for s in instantiations(cur, c, universe, added):
                if not holds_instantiation(cur, c, s, False):
                    for atoms in head_options(c, s, [NULL]):
                        new |= atoms
        new -= cur.atoms
        if not new:
            return cur
        cur, added = Instance._trusted(cur.atoms | new, d.schema), new
