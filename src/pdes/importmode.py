"""The import case: one-directional data flow along `less` trust.

A peer whose constraints toward its neighbors are all import rules
(`classify`) and that has no local constraints has the least model
of those rules (`system.least_model`) as its one solution, and
`system._neighborhood_repairs` answers it so in every route. A peer
with local constraints beside its import rules is searched as every
route searches it: freezing the imported atoms would keep a null
witness that a later insert makes unnecessary.
"""

from __future__ import annotations

from . import system as _system
from .core import Instance, SchemaError
from .system import (GENERAL, UNRESTRICTED, PdesInstance, PdesSchema,
                     SolutionResult, _factored, _neighborhood_repairs, _solve)

# perfbench traces the import fixpoint under this module's name
least_model = _system.least_model


def classify(system: PdesSchema) -> dict[str, str]:
    """Each peer's import flag, computed once, when the system is built."""
    return dict(system._flags)


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
    """The solutions of a peer in the import case with local constraints,
    by the one peer recursion that `solutions` runs: an unrestricted peer
    takes its least model, a restricted one the repair search. Every peer
    that p reaches must be of the import kind."""
    for q in sorted(system.accessible(p)):
        if system._flags[q] == GENERAL:
            raise SchemaError("peer %r is not of the import kind" % q)
    return _solve(system, p, d, _neighborhood_repairs)
