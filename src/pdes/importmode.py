"""The import case: one-directional data flow along `less` trust.

When every inter-peer constraint is an import rule — body over the
trusted neighbor's schema, consequent a single atom over the importing
peer's schema, with no builtins and no existential that a null cannot
fill (`Constraint.problematic`), plus optional builtin-only escapes —
solutions can be computed in one pass as a least model: each body is
joined once over the neighborhood instance, and a binding adds its head
where `nullsem.holds_instantiation`, under the system's preorder, finds
it violated. Without local constraints that fixpoint is the one
solution; with them, it is repaired as a neighborhood instance, with the
imported atoms frozen.
"""

from __future__ import annotations

from .core import DEFAULT_CAP, NULL, Budget, Instance, SchemaError
from .lang import Constraint
from .nullsem import ground_atom, holds_instantiation, join
from .repair import NULL_BASED, RepairSet
from .system import (PdesInstance, PdesSchema, SolutionResult, _factored,
                     _neighborhood_repairs, _solve, LESS)

UNRESTRICTED = "unrestricted_import"
RESTRICTED = "restricted_import"
GENERAL = "general"


def _is_import(system: PdesSchema, p: str, q: str, c: Constraint) -> bool:
    """Import shape of p's constraint c toward q: a body over q's schema
    that binds every head variable but the existentials; one database
    disjunct, a single atom over p's schema with no builtins, and with
    no existentials under the delta preorder (a witness is then any
    value of the universe) and none that a null cannot fill
    (`Constraint.problematic`); other disjuncts builtin-only, without
    existentials."""
    own, foreign = system.schemas[p], system.schemas[q]
    db_disjs = [d for d in c.head if d.atoms]
    if not all(a.pred in foreign for a in c.body) or len(db_disjs) != 1:
        return False
    target = db_disjs[0]
    return (len(target.atoms) == 1 and target.atoms[0].pred in own
            and not target.builtins and not c.problematic
            and not (target.exist_vars and system.preorder != NULL_BASED)
            and not any(not d.atoms and d.exist_vars for d in c.head)
            and not c.head_only)


def classify(system: PdesSchema) -> dict[str, str]:
    """Each peer's import flag."""
    flags: dict[str, str] = {}
    for p in sorted(system.peers):
        if not all(system.trust_kind(p, q) == LESS and all(
                _is_import(system, p, q, c)
                for c in system.sigma.get((p, q), ()))
                for q in system.strict_neighbors(p)):
            flags[p] = GENERAL
        elif system.sigma.get((p, p)):
            flags[p] = RESTRICTED
        else:
            flags[p] = UNRESTRICTED
    return flags


# ------------------------------------------------------------- fixpoint

def least_model(system: PdesSchema, p: str, dbar: Instance) -> Instance:
    """The least model of p's import constraints over its neighborhood
    instance dbar, those that `PdesSchema.live_sigma` keeps; SchemaError
    on a constraint not of the import kind.

    Each body is joined once against dbar, and each binding ranks its
    head atom, existentials null, by its number of nulls; heads without
    existentials come first. Each rank, fewest nulls first, adds the
    heads whose instantiation does not hold over the atoms so far under
    the system's preorder (`holds_instantiation`: a builtin-only escape
    or an earlier witness satisfies it, and under the null-based
    preorder a null relevant universal too), as a witness is never less
    informative than the null atom it makes unnecessary.

    This is the round loop that re-joins every body and adds the lowest
    rank of new heads, in one pass. Bodies read only the neighbors'
    predicates, which no head writes, so every round joins the same
    bindings; a binding's rank is fixed and its own atom witnesses its
    head, so the rounds take the ranks in order, once each. Two null
    heads of one rank witness each other only when they are equal (a
    witness agrees with the head's atom off the existentials, so with as
    many nulls it is null on all of them): adding a rank at once is
    adding its heads one by one. So every import constraint holds in the
    result, read as the repairs under the preorder read it."""
    classical = system.preorder != NULL_BASED
    ranked: dict[int, list] = {}  # -1 for heads without existentials
    for q, c in system.live_sigma(p, dbar):
        if q == p:
            continue
        if not _is_import(system, p, q, c):
            raise SchemaError("constraint %s is not of the import kind" % c)
        target = next(d for d in c.head if d.atoms)
        nulls = dict.fromkeys(target.exist_vars, NULL)
        for s in join(dbar, c.body, {}):
            a = ground_atom(target.atoms[0], {**s, **nulls})
            ranked.setdefault(a.args.count(NULL) if nulls else -1,
                              []).append((c, s, a))
    atoms = dbar.atoms
    for rank in sorted(ranked):
        # heads of constraints that PdesSchema checked against the schema
        cur = Instance._trusted(atoms, dbar.schema)
        atoms = atoms.union(a for c, s, a in ranked[rank]
                            if not holds_instantiation(cur, c, s, classical))
    return Instance._trusted(atoms, dbar.schema)


# ------------------------------------------------------------- solving

def _fixpoint_repaired(system: PdesSchema, p: str, dbar: Instance,
                       cap: int) -> RepairSet:
    """The import fixpoint repaired as a neighborhood instance, keeping
    the neighbors' relations and every imported atom fixed. Every import
    constraint holds in the fixpoint (`least_model`), so for a peer with
    no local constraints it is consistent, hence its own one repair under
    either preorder: it is the one state, and no search runs."""
    fix = least_model(system, p, dbar)
    if not system.sigma.get((p, p)):
        return RepairSet(fix.atoms, (), fix.schema, Budget(cap))
    return _neighborhood_repairs(system, p, fix, cap,
                                 frozen_atoms=fix.atoms - dbar.atoms)


def import_solve(system: PdesSchema, p: str, d: PdesInstance,
                 flags: dict[str, str] | None = None) -> Instance:
    """The unique solution of a peer in the unrestricted import case:
    sinks keep their instance, others take the least model of their
    import constraints over their instance plus the neighbor solutions,
    restricted to their own schema. flags, when given, are the system's
    `classify` flags."""
    flags = flags or classify(system)
    for q in sorted(system.accessible(p)):
        if flags[q] != UNRESTRICTED:
            raise SchemaError("peer %r is not of the unrestricted import "
                              "kind (%s)" % (q, flags[q]))
    return _factored(system, p, d, _fixpoint_repaired, DEFAULT_CAP,
                     {}).repairs[0]


def restricted_import_solve(system: PdesSchema, p: str, d: PdesInstance,
                            cap: int = DEFAULT_CAP,
                            flags: dict[str, str] | None = None
                            ) -> SolutionResult:
    """Import case with local constraints: run the import fixpoint, then
    repair it with respect to all of p's constraints, keeping the
    neighbors' relations and every imported atom fixed. Every peer that
    p reaches must be of the import kind; flags as in `import_solve`."""
    flags = flags or classify(system)
    for q in sorted(system.accessible(p)):
        if flags[q] == GENERAL:
            raise SchemaError("peer %r is not of the import kind" % q)
    return _solve(system, p, d, _fixpoint_repaired, cap, {})
