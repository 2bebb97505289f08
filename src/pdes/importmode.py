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
from typing import Mapping

from .core import DEFAULT_CAP, NULL, Atom, Instance, Schema, SchemaError
from .lang import Builtin, Constraint, Cst, PredAtom, Var, relevant_vars
from .nullsem import eval_builtin, ground_atom, join
from .repair import delta_repairs, null_repairs, NULL_BASED
from .system import (PdesInstance, PdesSchema, SolutionResult, _solve,
                     inc_atom, LESS)

IUDEC = "iudec"
IRDEC = "irdec"
NON_IMPORT = "non-import"

UNRESTRICTED = "unrestricted_import"
RESTRICTED = "restricted_import"
GENERAL = "general"


@dataclass(frozen=True)
class ImportClassification:
    """Per-constraint import tags and per-peer import flags."""

    dec_tags: Mapping[tuple[str, str, int], str]  # (P, Q, index) -> tag
    peer_flags: Mapping[str, str]

    @property
    def import_kind(self) -> bool:
        return all(f != GENERAL for f in self.peer_flags.values())

    @property
    def unrestricted(self) -> bool:
        return all(f == UNRESTRICTED for f in self.peer_flags.values())


def _tag_constraint(c: Constraint, own: set[str], foreign: set[str]) -> str:
    """Import shape: body over the neighbor's schema, exactly one
    database disjunct with a single atom over the importer's schema, and
    any further disjuncts builtin-only."""
    if not all(a.pred in foreign for a in c.body):
        return NON_IMPORT
    db_disjs = [d for d in c.head if d.atoms]
    if len(db_disjs) != 1:
        return NON_IMPORT
    target = db_disjs[0]
    if len(target.atoms) != 1 or target.atoms[0].pred not in own:
        return NON_IMPORT
    for d in c.head:
        if not d.atoms and d.exist_vars:
            return NON_IMPORT
    if not target.exist_vars:
        return IUDEC if not target.builtins else NON_IMPORT
    exist = set(target.exist_vars)
    for b in target.builtins:
        if any(isinstance(t, Var) and t.name in exist for t in b.terms):
            return NON_IMPORT
    return IRDEC


def classify(system: PdesSchema) -> ImportClassification:
    tags: dict[tuple[str, str, int], str] = {}
    flags: dict[str, str] = {}
    for p in sorted(system.peers):
        own = set(system.schemas[p].preds())
        ok = True
        for q in sorted(system.strict_neighbors(p)):
            foreign = set(system.schemas[q].preds())
            if system.trust_kind(p, q) != LESS:
                ok = False
            for i, c in enumerate(system.sigma.get((p, q), ())):
                t = _tag_constraint(c, own, foreign)
                tags[(p, q, i)] = t
                if t == NON_IMPORT:
                    ok = False
        if not ok:
            flags[p] = GENERAL
        elif system.sigma.get((p, p)):
            flags[p] = RESTRICTED
        else:
            flags[p] = UNRESTRICTED
    return ImportClassification(tags, flags)


# ------------------------------------------------------- Datalog program

@dataclass(frozen=True)
class DatalogRule:
    """head <- body, guards, not any(escapes). Guards must hold and every
    escape builtin must fail for the rule to fire."""

    head: PredAtom
    body: tuple[PredAtom, ...]
    guards: tuple[Builtin, ...]
    escapes: tuple[Builtin, ...]


@dataclass(frozen=True)
class DatalogProgram:
    facts: frozenset[Atom]
    rules: tuple[DatalogRule, ...]
    schema: Schema


def _rule_for(c: Constraint) -> DatalogRule:
    rel = relevant_vars(c)
    target = next(d for d in c.head if d.atoms)
    atom = target.atoms[0]
    subst = {v: Cst(NULL) for v in target.exist_vars}
    head = PredAtom(atom.pred, tuple(
        subst.get(t.name, t) if isinstance(t, Var) else t
        for t in atom.terms))
    guards = tuple(Builtin("neq", (Var(v), Cst(NULL)))
                   for v in c.univ_vars if v in rel)
    escapes = tuple(b for d in c.head for b in d.builtins)
    return DatalogRule(head, c.body, guards, escapes)


def import_program(system: PdesSchema, p: str,
                   dbar: Instance) -> DatalogProgram:
    """Facts from the neighborhood instance plus one single-head rule per
    import constraint; existential positions are filled with null."""
    cls = classify(system)
    rules: list[DatalogRule] = []
    for q in sorted(system.strict_neighbors(p)):
        if inc_atom(q) in dbar:
            continue
        for i, c in enumerate(system.sigma.get((p, q), ())):
            if cls.dec_tags[(p, q, i)] == NON_IMPORT:
                raise SchemaError("constraint %s is not of the import kind"
                                  % c)
            rules.append(_rule_for(c))
    return DatalogProgram(dbar.atoms, tuple(rules), dbar.schema)


def least_model(program: DatalogProgram) -> Instance:
    """Bottom-up fixpoint; guards must hold and escapes must all fail
    under the null-aware builtin semantics."""
    cur = Instance(program.facts, program.schema)
    while True:
        new: set[Atom] = set()
        for r in program.rules:
            for s in join(cur, r.body, {}):
                # guards compare against the null constant itself
                if not all(eval_builtin(b, s, classical=True)
                           for b in r.guards):
                    continue
                if any(eval_builtin(b, s) for b in r.escapes):
                    continue
                new.add(ground_atom(r.head, s))
        new -= cur.atoms
        if not new:
            return cur
        cur = cur.with_atoms(new)


# ------------------------------------------------------------- solving

def _fixpoint(system: PdesSchema, p: str, dbar: Instance,
              cap: int) -> tuple[Instance, ...]:
    """The least model of p's import program over dbar."""
    return (least_model(import_program(system, p, dbar)),)


def _fixpoint_repaired(system: PdesSchema, p: str, dbar: Instance,
                       cap: int) -> tuple[Instance, ...]:
    """The import fixpoint repaired with respect to p's local constraints,
    keeping the neighbors' relations and every imported atom fixed."""
    fix = least_model(import_program(system, p, dbar))
    frozen_preds = frozenset(
        r for q in system.strict_neighbors(p)
        for r in system.schemas[q].preds())
    repair = null_repairs if system.preorder == NULL_BASED else delta_repairs
    rs = repair(fix, system.sigma.get((p, p), ()), frozen_preds=frozen_preds,
                cap=cap, frozen_atoms=fix.atoms - dbar.atoms)
    return tuple(Instance(r.atoms, fix.schema) for r in rs.repairs)


def import_solve(system: PdesSchema, p: str, d: PdesInstance) -> Instance:
    """The unique solution of a peer in the unrestricted import case:
    sinks keep their instance, others take the least model of their
    import program over their instance plus the neighbor solutions,
    restricted to their own schema."""
    cls = classify(system)
    for q in sorted(system.accessible(p)):
        if cls.peer_flags[q] != UNRESTRICTED:
            raise SchemaError("peer %r is not of the unrestricted import "
                              "kind (%s)" % (q, cls.peer_flags[q]))
    return _solve(system, p, d, _fixpoint, DEFAULT_CAP, {}).core


def restricted_import_solve(system: PdesSchema, p: str, d: PdesInstance,
                            cap: int = DEFAULT_CAP) -> SolutionResult:
    """Import case with local constraints: run the import fixpoint, then
    repair with respect to the local constraints only, keeping the
    neighbors' relations and every imported atom fixed. Every peer that
    p reaches must be of the import kind."""
    cls = classify(system)
    for q in sorted(system.accessible(p)):
        if cls.peer_flags[q] == GENERAL:
            raise SchemaError("peer %r is not of the import kind" % q)
    return _solve(system, p, d, _fixpoint_repaired, cap, {})
