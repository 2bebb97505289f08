"""The import case: one-directional data flow along `less` trust.

A peer whose constraints toward its neighbors are all import rules
(`classify`) and that has no local constraints has the least model
of those rules (`system.least_model`) as its one solution, and
`system._neighborhood_repairs` answers it so in every route. With local
constraints the fixpoint is repaired as a neighborhood instance, with
the imported atoms frozen.
"""

from __future__ import annotations

from .core import Instance, SchemaError
from .repair import RepairSet
from .system import (GENERAL, RESTRICTED, UNRESTRICTED, PdesInstance,
                     PdesSchema, SolutionResult, _factored,
                     _neighborhood_repairs, _search_repairs, _solve,
                     least_model)


def classify(system: PdesSchema) -> dict[str, str]:
    """Each peer's import flag, computed once, when the system is built."""
    return dict(system._flags)


def _fixpoint_repaired(system: PdesSchema, p: str,
                       dbar: Instance) -> RepairSet:
    """A restricted peer's import fixpoint repaired as a neighborhood
    instance, keeping the neighbors' relations and every imported atom
    fixed; any other peer through `_neighborhood_repairs`, which answers
    an unrestricted one by its least model."""
    if system._flags[p] != RESTRICTED:
        return _neighborhood_repairs(system, p, dbar)
    fix = least_model(system, p, dbar)
    return _search_repairs(system, p, fix, frozen_atoms=fix.atoms - dbar.atoms)


def import_solve(system: PdesSchema, p: str, d: PdesInstance) -> Instance:
    """The unique solution of a peer in the unrestricted import case:
    sinks keep their instance, others take the least model of their
    import constraints over their instance plus the neighbor solutions,
    restricted to their own schema."""
    for q in sorted(system.accessible(p)):
        if system._flags[q] != UNRESTRICTED:
            raise SchemaError("peer %r is not of the unrestricted import "
                              "kind (%s)" % (q, system._flags[q]))
    return _factored(system, p, d, _neighborhood_repairs, {}).repairs[0]


def restricted_import_solve(system: PdesSchema, p: str,
                            d: PdesInstance) -> SolutionResult:
    """Import case with local constraints: run the import fixpoint, then
    repair it with respect to all of p's constraints, keeping the
    neighbors' relations and every imported atom fixed. Every peer that
    p reaches must be of the import kind."""
    for q in sorted(system.accessible(p)):
        if system._flags[q] == GENERAL:
            raise SchemaError("peer %r is not of the import kind" % q)
    return _solve(system, p, d, _fixpoint_repaired)
