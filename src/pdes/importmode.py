"""The import case: one-directional data flow along `less` trust.

When every inter-peer constraint is an import rule — body over the
trusted neighbor's schema, consequent a single atom over the importing
peer's schema plus optional builtin escapes — solutions can be computed
bottom-up as the least model of a plain Datalog program. With local
constraints added, the imported atoms are frozen and the repair module
finishes the job.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (DEFAULT_CAP, NULL, Atom, Instance, Schema,
                   SchemaError)
from .lang import Builtin, Constraint, Cst, PredAtom, Var, term_vars
from .nullsem import eval_builtin, ground_atom, join
from .repair import RepairSet, preorder_repairs
from .system import (PdesInstance, PdesSchema, SolutionResult, _factored,
                     _solve, inc_atom, LESS)

UNRESTRICTED = "unrestricted_import"
RESTRICTED = "restricted_import"
GENERAL = "general"


def _is_import(c: Constraint, own: Schema, foreign: Schema) -> bool:
    """Import shape: a body over the neighbor's schema that binds every
    head variable but the existentials; one database disjunct, a single
    atom over the importer's schema whose builtins (none without
    existentials) do not read them; other disjuncts builtin-only."""
    db_disjs = [d for d in c.head if d.atoms]
    if not all(a.pred in foreign for a in c.body) or len(db_disjs) != 1:
        return False
    target = db_disjs[0]
    exist = set(target.exist_vars)
    body = {v for a in c.body for v in term_vars(a.terms)}
    read = {v for d in c.head for x in (*d.atoms, *d.builtins)
            for v in term_vars(x.terms)}
    return (len(target.atoms) == 1 and target.atoms[0].pred in own
            and not any(not d.atoms and d.exist_vars for d in c.head)
            and read - exist <= body
            and not any(not exist or exist & set(term_vars(b.terms))
                        for b in target.builtins))


def classify(system: PdesSchema) -> dict[str, str]:
    """Each peer's import flag."""
    flags: dict[str, str] = {}
    for p in sorted(system.peers):
        if not all(system.trust_kind(p, q) == LESS and all(
                _is_import(c, system.schemas[p], system.schemas[q])
                for c in system.sigma.get((p, q), ()))
                for q in system.strict_neighbors(p)):
            flags[p] = GENERAL
        elif system.sigma.get((p, p)):
            flags[p] = RESTRICTED
        else:
            flags[p] = UNRESTRICTED
    return flags


# ------------------------------------------------------- Datalog program

@dataclass(frozen=True)
class DatalogRule:
    """head <- body, guards, not any(escapes). Guards must hold and every
    escape builtin must fail for the rule to fire. The head's ``exist``
    variables are filled with null when it fires."""

    head: PredAtom
    body: tuple[PredAtom, ...]
    guards: tuple[Builtin, ...]
    escapes: tuple[Builtin, ...]
    exist: tuple[str, ...]


@dataclass(frozen=True)
class DatalogProgram:
    facts: frozenset[Atom]
    rules: tuple[DatalogRule, ...]
    schema: Schema


def _rule_for(c: Constraint) -> DatalogRule:
    target = next(d for d in c.head if d.atoms)
    guards = tuple(Builtin("neq", (Var(v), Cst(NULL)))
                   for v in c.univ_vars if v in c.relevant)
    escapes = tuple(b for d in c.head for b in d.builtins)
    return DatalogRule(target.atoms[0], c.body, guards, escapes,
                       target.exist_vars)


def import_program(system: PdesSchema, p: str,
                   dbar: Instance) -> DatalogProgram:
    """Facts from the neighborhood instance plus one single-head rule per
    import constraint."""
    rules: list[DatalogRule] = []
    for q in sorted(system.strict_neighbors(p)):
        if inc_atom(q) in dbar:
            continue
        for c in system.sigma.get((p, q), ()):
            if not _is_import(c, system.schemas[p], system.schemas[q]):
                raise SchemaError("constraint %s is not of the import kind"
                                  % c)
            rules.append(_rule_for(c))
    return DatalogProgram(dbar.atoms, tuple(rules), dbar.schema)


def least_model(program: DatalogProgram) -> Instance:
    """Bottom-up fixpoint; guards must hold and escapes must all fail
    under the null-aware builtin semantics. Each step adds the new atoms
    of the rules without existentials first; only when those are
    saturated does it add null atoms, and only for firings whose head no
    atom witnesses yet, fewest nulls first (a witness of a head is never
    less informative than the null atom it makes unnecessary)."""
    cur = Instance(program.facts, program.schema)
    while True:
        new: dict[int, set[Atom]] = {}
        for r in program.rules:
            for s in join(cur, r.body, {}):
                # guards compare against the null constant itself
                if not all(eval_builtin(b, s, classical=True)
                           for b in r.guards):
                    continue
                if any(eval_builtin(b, s) for b in r.escapes):
                    continue
                if r.exist and join(cur, (r.head,), s):
                    continue
                a = ground_atom(r.head, {**s, **dict.fromkeys(r.exist, NULL)})
                if a not in cur:
                    rank = a.args.count(NULL) if r.exist else -1
                    new.setdefault(rank, set()).add(a)
        if not new:
            return cur
        # heads of constraints that PdesSchema checked against the schema
        cur = Instance._trusted(cur.atoms | new[min(new)], cur.schema)


# ------------------------------------------------------------- solving

def _fixpoint_repaired(system: PdesSchema, p: str, dbar: Instance,
                       cap: int) -> RepairSet:
    """The import fixpoint repaired with respect to p's local constraints,
    keeping the neighbors' relations and every imported atom fixed."""
    fix = least_model(import_program(system, p, dbar))
    return preorder_repairs(
        system.preorder, fix, system.sigma.get((p, p), ()),
        frozen_preds=system.frozen_preds(p), cap=cap,
        frozen_atoms=fix.atoms - dbar.atoms)


def import_solve(system: PdesSchema, p: str, d: PdesInstance,
                 flags: dict[str, str] | None = None) -> Instance:
    """The unique solution of a peer in the unrestricted import case:
    sinks keep their instance, others take the least model of their
    import program over their instance plus the neighbor solutions,
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
    repair with respect to the local constraints only, keeping the
    neighbors' relations and every imported atom fixed. Every peer that
    p reaches must be of the import kind; flags as in `import_solve`."""
    flags = flags or classify(system)
    for q in sorted(system.accessible(p)):
        if flags[q] == GENERAL:
            raise SchemaError("peer %r is not of the import kind" % q)
    return _solve(system, p, d, _fixpoint_repaired, cap, {})
