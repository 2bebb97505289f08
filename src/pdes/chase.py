"""Restricted null-propagating chase, and the round loop it shares.

Enforces the constraints it can (universal ones and existential ones
whose existential variables appear in no join or builtin; the others,
`Constraint.problematic`, are dropped) and saturates the instance over
its own schema, which every constraint must fit, by firing violated
ground instantiations in parallel rounds, substituting null for
existential variables. The result bounds the insertions admissible in
null-based repairs. `saturate` is the round loop, which the delta repair
search's closure shares (:mod:`pdes.repair`). Rounds after the first
check only the instantiations touching the atoms the round before added:
any other gave its atoms then, which depend on the instantiation alone,
or held then and still holds. Each check reads its own ranges
(`nullsem.holds_instantiation`), so a round computes none. A round
collects its inserts as a set, so it reads no order. `head_options`
grounds the consequent of one instantiation through `nullsem.extensions`:
against a pool instance when one is given, in `nullsem.in_order`, every
existential over the universe otherwise; the repair search shares it and
reads that order.
"""

from __future__ import annotations

from .core import NULL, Atom, Instance, Schema
from .lang import Constraint
from .nullsem import (eval_builtin, extensions, ground_atom,
                      holds_instantiation, in_order, instantiations,
                      working_universe)


def check_fit(schema: Schema, sigma) -> None:
    """Raise SchemaError unless every constraint of sigma fits schema."""
    for c in sigma:
        for a in c.atoms():
            schema.check(a.pred, len(a.terms), c)


def head_options(c: Constraint, s: dict[str, str], universe: list[str],
                 pool: Instance | None = None,
                 classical: bool = False):
    """Atom sets that satisfy one consequent disjunct of the ground
    instantiation s, disjunct by disjunct: with a pool, the disjunct's
    atoms are joined against it, their extensions put in
    `nullsem.in_order` (the repair search's moves take this order);
    without one, every existential ranges over the sorted universe, in
    its order. Builtin-failing and builtin-only disjuncts are skipped."""
    for disj in c.head:
        if not disj.atoms:
            continue
        if pool is None:
            fulls = extensions(None, (), s, disj.exist_vars, universe)
        else:
            fulls = in_order(extensions(pool, disj.atoms, s, disj.exist_vars,
                                        universe), disj.atoms, disj.exist_vars)
        for full in fulls:
            if all(eval_builtin(b, full, classical) for b in disj.builtins):
                yield frozenset(ground_atom(a, full) for a in disj.atoms)


def saturate(d: Instance, sigma, universe: list[str], fire) -> Instance:
    """The fixpoint of rounds from d, each adding, for every instantiation
    s over cur (the atoms so far) of each constraint c of sigma, the
    atoms of the sets fire(cur, c, s) gives: atoms that read s alone, or
    none for an s that holds in cur and so in every superset."""
    cur, added = d, None
    while True:
        new: set[Atom] = set()
        for c in sigma:
            for s in instantiations(cur, c, universe, added):
                new.update(*fire(cur, c, s))
        new -= cur.atoms
        if not new:
            return cur
        cur, added = Instance._trusted(cur.atoms | new, d.schema), new


def r_chase(d: Instance, sigma) -> Instance:
    """The restricted chase of d over its schema, which every constraint
    of sigma must fit, under those without a problematic existential."""
    check_fit(d.schema, sigma)
    sigma = [c for c in sigma if not c.problematic]
    return saturate(d, sigma, working_universe(d, *sigma), lambda cur, c, s: (
        () if holds_instantiation(cur, c, s, False)
        else head_options(c, s, [NULL])))
