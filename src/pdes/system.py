"""Peer systems: schemas with trust relationships, the accessibility
graph, neighborhood solutions, recursive solution instances, cores, and
certain (peer-consistent) query answers.

A peer's neighborhood solutions are repairs of its neighborhood instance
with the predicates of more-trusted neighbors frozen. Solutions recurse
over the acyclic accessibility graph: each neighbor contributes the
intersection of its own solutions, or an inconsistency marker when it
has none, in which case `PdesSchema.live_sigma` drops the exchange
constraints toward it.
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, Iterable, Mapping, NamedTuple

from .core import (DEFAULT_CAP, Atom, Budget, Instance, Record, Schema,
                   SchemaError, reach)
from .lang import Constraint, Query
from .nullsem import classical_answers, n_answers
from .repair import NULL_BASED, SYMMETRIC_DELTA, RepairSet, preorder_repairs

LESS = "less"
SAME = "same"

INC_PREFIX = "inc_"


def inc_atom(peer: str) -> Atom:
    """Nullary marker signalling that a peer has no solutions."""
    return Atom(INC_PREFIX + peer, ())


class PdesSchema(Record):
    """Peer ids, per-peer schemas with pairwise disjoint predicates, the
    exchange constraints indexed by ordered peer pairs, and trust. The
    accessibility graph has an edge P -> Q for each nonempty constraint
    set between distinct peers, labeled with the trust kind; its indexes
    ``_succ`` and ``_kind`` are outside ==."""

    _fields = ("peers", "schemas", "sigma", "trust", "preorder")

    def __init__(self, peers: Iterable[str], schemas: Mapping[str, Schema],
                 sigma: Mapping[tuple[str, str], Iterable[Constraint]],
                 trust: Iterable[tuple[str, str, str]],
                 preorder: str = NULL_BASED):
        self.peers, self.schemas = frozenset(peers), dict(schemas)
        self.sigma = {pq: tuple(cs) for pq, cs in sigma.items() if cs}
        # local constraint sets carry implicit self-trust
        self.trust = frozenset(trust).union(
            (p, SAME, p) for (p, q) in self.sigma if p == q)
        self.preorder = preorder
        self._succ = {p: frozenset(q for (a, q) in self.sigma if a == p != q)
                      for p in self.peers}
        self._kind = {(p, q): t for (p, t, q) in sorted(self.trust)}
        self._validate()

    def _validate(self) -> None:
        if self.preorder not in (NULL_BASED, SYMMETRIC_DELTA):
            raise SchemaError("unknown preorder kind %r" % self.preorder)
        if set(self.schemas) != set(self.peers):
            raise SchemaError("schemas must cover exactly the peers")
        seen: dict[str, str] = {}
        for p in sorted(self.peers):
            for r in self.schemas[p].preds():
                if r == "dom" or r.startswith(("aux", INC_PREFIX)):
                    raise SchemaError(  # the solvers generate these names
                        "predicate %r of %r is reserved: dom and names "
                        "starting with aux or inc_ are generated" % (r, p))
                if r in seen:
                    raise SchemaError(
                        "predicate %r owned by both %r and %r"
                        % (r, seen[r], p))
                seen[r] = p
        for (p, q) in sorted({*self.sigma, *self._kind}):
            if p not in self.peers or q not in self.peers:
                raise SchemaError("constraint set or trust for unknown "
                                  "peer pair (%r, %r)" % (p, q))
        for (p, q), cs in self.sigma.items():
            if (p, q) not in self._kind:
                raise SchemaError("no trust relationship for (%r, %r)"
                                  % (p, q))
            schema = self.schemas[p].union(self.schemas[q])
            for c in cs:
                where = "dec %s %s : %s" % (p, q, c)
                for a in c.atoms():
                    schema.check(a.pred, len(a.terms), where)
        for (p, t, q) in sorted(self.trust):
            if t not in (LESS, SAME):
                raise SchemaError("unknown trust kind %r" % t)
            if p == q and t != SAME:
                raise SchemaError("a peer must trust itself as 'same'")
            if self._kind[p, q] != t:
                raise SchemaError("two trust kinds for (%r, %r)" % (p, q))
        for (p, q, _) in self.graph():  # a cycle through p -> q returns to p
            path = reach(self._succ.__getitem__, q, p)
            if path:
                raise SchemaError("accessibility graph has a cycle: "
                                  + " -> ".join([p] + path))

    # ------------------------------------------------------- graph views

    def graph(self) -> tuple[tuple[str, str, str], ...]:
        """The accessibility graph's edges (P, Q, less|same), sorted."""
        return tuple(sorted((p, q, self._kind[p, q])
                            for p, qs in self._succ.items() for q in qs))

    def neighbors(self, p: str) -> frozenset[str]:
        """N(P): the targets of P's constraint sets, plus P itself."""
        return self.strict_neighbors(p) | {p}

    def strict_neighbors(self, p: str) -> frozenset[str]:
        self._check_peer(p)
        return self._succ[p]

    def accessible(self, p: str) -> set[str]:
        """AC(P): peers reachable from P in the graph, plus P itself."""
        self._check_peer(p)
        return set(reach(self._succ.__getitem__, p))

    def _check_peer(self, p: str) -> None:
        if p not in self.peers:
            raise SchemaError("unknown peer %r" % p)

    # -------------------------------------------------- per-peer helpers

    def sigma_of(self, p: str) -> tuple[Constraint, ...]:
        """All constraint sets owned by p, local ones included."""
        out: list[Constraint] = []
        for q in sorted(self.neighbors(p)):
            out.extend(self.sigma.get((p, q), ()))
        return tuple(out)

    def live_sigma(self, p: str,
                   dbar: Instance) -> tuple[tuple[str, Constraint], ...]:
        """p's constraints that apply over its neighborhood instance dbar,
        each with the peer it points to: all but the sets toward a strict
        neighbor whose inconsistency marker dbar holds."""
        return tuple((q, c) for q in sorted(self.neighbors(p))
                     if q == p or inc_atom(q) not in dbar
                     for c in self.sigma.get((p, q), ()))

    def trust_kind(self, p: str, q: str) -> str | None:
        return self._kind.get((p, q))

    def frozen_preds(self, p: str) -> frozenset[str]:
        """Predicates of more-trusted neighbors, which neighborhood
        solutions must leave untouched."""
        out: set[str] = set()
        for q in self.strict_neighbors(p):
            if self.trust_kind(p, q) == LESS:
                out |= set(self.schemas[q].preds())
        return frozenset(out)

    def neighborhood_schema(self, p: str) -> Schema:
        """Union of the neighbors' schemas plus their inconsistency
        markers."""
        sch = reduce(Schema.union,
                     (self.schemas[q] for q in sorted(self.neighbors(p))))
        markers = {INC_PREFIX + q: 0 for q in self.strict_neighbors(p)}
        return sch.union(Schema(markers))


class PdesInstance(Record):
    """One database instance per peer, over that peer's schema."""

    _fields = ("system", "data")

    def __init__(self, system: PdesSchema, data: Mapping[str, Instance]):
        self.system, self.data = system, dict(data)
        for p in self.system.peers:
            if p not in self.data:
                raise SchemaError("missing instance for peer %r" % p)
            own, where = self.system.schemas[p], "the instance of %r" % p
            if self.data[p].schema != own:  # else checked already
                for a in self.data[p].atoms:
                    own.check(a.pred, len(a.args), where)

    def of(self, p: str) -> Instance:
        self.system._check_peer(p)
        return self.data[p]


class SolutionResult(NamedTuple):
    peer: str
    solutions: tuple[Instance, ...]
    core: Instance
    inconsistent: bool


# ------------------------------------------------- neighborhood solutions

def _neighborhood_repairs(system: PdesSchema, p: str, dbar: Instance,
                          cap: int, frozen_atoms: frozenset[Atom] = frozenset()
                          ) -> RepairSet:
    """`neighborhood_solutions` in factored form, frozen_atoms fixed."""
    sigma = [c for _, c in system.live_sigma(p, dbar)]
    return preorder_repairs(system.preorder, dbar, sigma,
                            frozen_preds=system.frozen_preds(p), cap=cap,
                            frozen_atoms=frozen_atoms)


def neighborhood_solutions(system: PdesSchema, p: str, dbar: Instance,
                           cap: int = DEFAULT_CAP) -> tuple[Instance, ...]:
    """Repairs of the neighborhood instance dbar with respect to p's
    constraints, minimal under the system's preorder, leaving the
    relations of more-trusted neighbors fixed. Constraint sets toward a
    neighbor whose inconsistency marker appears in dbar are dropped."""
    return _neighborhood_repairs(system, p, dbar, cap).repairs


# ------------------------------------------------------------- solutions

LocalSolver = Callable[[PdesSchema, str, Instance, int], RepairSet]


def solution_form(system: PdesSchema, p: str,
                  instances) -> tuple[Instance, ...]:
    """The instances restricted to p's schema, without duplicates, in the
    order first seen; over schemas agreeing with p's, so not re-checked."""
    own = system.schemas[p]
    return tuple(Instance._trusted(a, own)
                 for a in _restricted((s.atoms for s in instances), own))


def _restricted(states, own: Schema) -> tuple[frozenset[Atom], ...]:
    """The atom sets states restricted to the schema own, without
    duplicates, in the order first seen."""
    return tuple(dict.fromkeys(frozenset(a for a in s if a.pred in own)
                               for s in states))


def solutions(system: PdesSchema, p: str, d: PdesInstance,
              cap: int = DEFAULT_CAP) -> SolutionResult:
    """Solution instances for p: its own instance when it has no
    constraints, otherwise the restrictions to p's schema of the
    neighborhood solutions over its instance joined with the neighbors'
    cores, in the order of their sorted atom texts (perfbench reads it)."""
    system._check_peer(p)
    res = _solve(system, p, d, _neighborhood_repairs, cap, {})
    return res._replace(solutions=tuple(sorted(
        res.solutions, key=lambda s: sorted(map(str, s.atoms)))))


def solution_core(system: PdesSchema, p: str, d: PdesInstance,
                  cap: int = DEFAULT_CAP) -> Instance:
    """The atoms every solution of p holds, or p's marker when it has
    none; the solutions are never multiplied out."""
    system._check_peer(p)
    return _core(p, _factored(system, p, d, _neighborhood_repairs, cap, {}))


def core_instance(system: PdesSchema, p: str, d: PdesInstance,
                  cap: int = DEFAULT_CAP) -> Instance:
    """p's neighborhood instance dbar: its own data plus each strict
    neighbor's core, or that neighbor's marker when it has no solutions."""
    system._check_peer(p)
    return _dbar(system, p, d, _neighborhood_repairs, cap, {})


def _dbar(system: PdesSchema, p: str, d: PdesInstance, local: LocalSolver,
          cap: int, memo: dict[str, RepairSet]) -> Instance:
    atoms = set(d.of(p).atoms)
    for q in sorted(system.strict_neighbors(p)):
        atoms |= _core(q, _factored(system, q, d, local, cap, memo)).atoms
    return Instance._trusted(frozenset(atoms), system.neighborhood_schema(p))


def _core(p: str, sols: RepairSet) -> Instance:
    """The atoms all of p's solutions sols hold (intersection distributes
    over the product), or p's marker when a part of sols has no state."""
    if not all(sols.parts):
        return Instance({inc_atom(p)}, Schema({INC_PREFIX + p: 0}))
    return Instance._trusted(sols.shared.union(
        *(frozenset.intersection(*states) for states in sols.parts)),
        sols.schema)


def _solve(system: PdesSchema, p: str, d: PdesInstance, local: LocalSolver,
           cap: int, memo: dict[str, RepairSet]) -> SolutionResult:
    """p's solutions through ``local``, listed: the product of their
    factored form, charged to the cap of p's own search when it
    multiplies two parts or more. The neighbors contribute their cores
    and are never listed."""
    sols = _factored(system, p, d, local, cap, memo)
    return SolutionResult(p, sols.repairs, _core(p, sols),
                          not all(sols.parts))


def _factored(system: PdesSchema, p: str, d: PdesInstance, local: LocalSolver,
              cap: int, memo: dict[str, RepairSet]) -> RepairSet:
    """The one peer recursion. ``local(system, p, dbar, cap)`` solves p's
    neighborhood instance without recursing; each neighbor is solved
    once through the shared memo. p's solutions come back factored over
    p's schema: the shared atoms and each part's states restricted to it,
    deduplicated per part. Parts stay disjoint, so the product still has
    no duplicates, and a part left with no state means p has no
    solution."""
    if p in memo:
        return memo[p]
    own = system.schemas[p]
    if not system.sigma_of(p):
        sols = RepairSet(d.of(p).atoms, (), own, Budget(cap))
    else:
        found = local(system, p, _dbar(system, p, d, local, cap, memo), cap)
        sols = RepairSet(frozenset(a for a in found.shared if a.pred in own),
                         tuple(_restricted(states, own)
                               for states in found.parts),
                         own, found.budget)
    memo[p] = sols
    return sols


# ------------------------------------------------ peer-consistent answers

class PcaResult(NamedTuple):
    """Certain answers over a peer's solutions; ``inconsistent`` replaces
    the answer set by the peer's marker when no solutions exist."""

    peer: str
    answers: frozenset[tuple[str, ...]]
    inconsistent: bool

    @property
    def marker(self) -> Atom | None:
        return inc_atom(self.peer) if self.inconsistent else None


def peer_consistent_answers(system: PdesSchema, p: str, d: PdesInstance,
                            q: Query,
                            cap: int = DEFAULT_CAP) -> PcaResult:
    """Tuples that answer q in every solution instance of p; a Boolean
    query certainly holds iff its empty tuple survives."""
    return _certain_answers(system, p, d, q, _neighborhood_repairs, cap)


def _certain_answers(system: PdesSchema, p: str, d: PdesInstance, q: Query,
                     local: LocalSolver, cap: int) -> PcaResult:
    """Certain answers to q over p's solutions through ``local``, or p's
    marker when it has none; q's atoms must fit p's schema.

    q is monotone in the atoms, so it is evaluated once, over the shared
    atoms plus every state of every part, keeping the atoms of each
    answer's matches. A tuple answers q in every solution iff every
    choice of one state per part keeps one of its matches. Its matches
    link the parts they touch into groups, and distinct groups choose
    independently. So the tuple is certain iff one of its matches lies in
    the shared atoms, or some group has no choice of states that keeps
    none of the group's matches."""
    system._check_peer(p)
    own, where = system.schemas[p], "query %s : %s" % (p, q)
    for a in q.atoms:
        own.check(a.pred, len(a.terms), where)
    sols = _factored(system, p, d, local, cap, {})
    if not all(sols.parts):
        return PcaResult(p, frozenset(), True)
    part_of = {a: i for i, states in enumerate(sols.parts)
               for s in states for a in s}
    matches: dict[tuple[str, ...], set[frozenset[Atom]]] = {}
    eval_q = n_answers if system.preorder == NULL_BASED else classical_answers
    eval_q(Instance._trusted(sols.shared.union(part_of), own), q, matches)
    return PcaResult(p, frozenset(
        t for t, ms in matches.items() if _certain(ms, sols, part_of)), False)


def _certain(matches, sols: RepairSet, part_of: dict[Atom, int]) -> bool:
    """Whether every choice of one state per part of sols keeps one of
    matches, atom sets over the shared atoms and the parts' states."""
    groups: list[tuple[set[int], list[frozenset[Atom]]]] = []
    for m in matches:
        inside = frozenset(a for a in m if a in part_of)
        if not inside:
            return True
        ids, ms = {part_of[a] for a in inside}, [inside]
        for g in [g for g in groups if g[0] & ids]:
            groups.remove(g)
            ids |= g[0]
            ms += g[1]
        groups.append((ids, ms))
    return any(not _avoidable(ms, [sols.parts[i] for i in sorted(ids)],
                              sols.budget) for ids, ms in groups)


def _avoidable(matches: list[frozenset[Atom]], parts, budget: Budget) -> bool:
    """Whether some choice of one state of each of parts holds none of
    matches: a scan of one part's states, or over several parts their
    product, charged to budget."""
    return any(not any(m <= atoms for m in matches)
               for atoms in budget.choices(parts))
