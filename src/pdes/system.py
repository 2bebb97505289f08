"""Peer systems: schemas with trust relationships, the accessibility
graph, neighborhood solutions, recursive solution instances, cores, and
certain (peer-consistent) query answers.

A peer's neighborhood solutions are repairs of its neighborhood instance
with the predicates of more-trusted neighbors frozen. Solutions recurse
over the acyclic accessibility graph: each neighbor contributes the
intersection of its own solutions, or an inconsistency marker when it
has none, in which case the exchange constraints toward it are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, Mapping

from .core import (DEFAULT_CAP, Atom, Instance, Schema, SchemaError, reach,
                   restrict)
from .lang import Constraint, Query
from .nullsem import classical_answers, n_answers
from .repair import (NULL_BASED, SYMMETRIC_DELTA, delta_repairs, null_repairs)

LESS = "less"
SAME = "same"

INC_PREFIX = "inc_"


def inc_atom(peer: str) -> Atom:
    """Nullary marker signalling that a peer has no solutions."""
    return Atom(INC_PREFIX + peer, ())


@dataclass(frozen=True)
class AccessGraph:
    """Directed peer graph: an edge P -> Q for each nonempty constraint
    set between distinct peers, labeled with the trust kind."""

    edges: tuple[tuple[str, str, str], ...]  # (P, Q, less|same)

    def successors(self, p: str) -> set[str]:
        return {q for (a, q, _) in self.edges if a == p}


@dataclass(frozen=True)
class PdesSchema:
    """Peer ids, per-peer schemas with pairwise disjoint predicates, the
    exchange constraints indexed by ordered peer pairs, and trust."""

    peers: frozenset[str]
    schemas: Mapping[str, Schema]
    sigma: Mapping[tuple[str, str], tuple[Constraint, ...]]
    trust: frozenset[tuple[str, str, str]]
    preorder: str = NULL_BASED

    def __post_init__(self):
        object.__setattr__(self, "peers", frozenset(self.peers))
        object.__setattr__(self, "schemas", dict(self.schemas))
        object.__setattr__(
            self, "sigma",
            {pq: tuple(cs) for pq, cs in self.sigma.items() if cs})
        trust = set(self.trust)
        # local constraint sets carry implicit self-trust
        for (p, q) in self.sigma:
            if p == q:
                trust.add((p, SAME, p))
        object.__setattr__(self, "trust", frozenset(trust))
        self._validate()

    def _validate(self) -> None:
        if self.preorder not in (NULL_BASED, SYMMETRIC_DELTA):
            raise SchemaError("unknown preorder kind %r" % self.preorder)
        if set(self.schemas) != set(self.peers):
            raise SchemaError("schemas must cover exactly the peers")
        seen: dict[str, str] = {}
        for p in sorted(self.peers):
            for r in self.schemas[p].preds():
                if r in seen:
                    raise SchemaError(
                        "predicate %r owned by both %r and %r"
                        % (r, seen[r], p))
                seen[r] = p
        trust_pairs = {(p, q): t for (p, t, q) in self.trust}
        for (p, q), cs in self.sigma.items():
            if p not in self.peers or q not in self.peers:
                raise SchemaError("constraint set for unknown peer pair "
                                  "(%r, %r)" % (p, q))
            if (p, q) not in trust_pairs:
                raise SchemaError("no trust relationship for (%r, %r)"
                                  % (p, q))
            allowed = set(self.schemas[p].preds()) | \
                set(self.schemas[q].preds())
            for c in cs:
                if not set(c.preds()) <= allowed:
                    raise SchemaError(
                        "constraint %s uses predicates outside the "
                        "schemas of %r and %r" % (c, p, q))
        for (p, t, q) in self.trust:
            if t not in (LESS, SAME):
                raise SchemaError("unknown trust kind %r" % t)
            if p == q and t != SAME:
                raise SchemaError("a peer must trust itself as 'same'")
        g = self.graph()
        for (p, q, _) in g.edges:  # a cycle through p -> q returns to p
            path = reach(g.successors, q, p)
            if path:
                raise SchemaError("accessibility graph has a cycle: "
                                  + " -> ".join([p] + path))

    # ------------------------------------------------------- graph views

    def graph(self) -> AccessGraph:
        trust_pairs = {(p, q): t for (p, t, q) in self.trust}
        edges = tuple(sorted(
            (p, q, trust_pairs[(p, q)])
            for (p, q) in self.sigma if p != q))
        return AccessGraph(edges)

    def neighbors(self, p: str) -> set[str]:
        """N(P): the targets of P's constraint sets, plus P itself."""
        self._check_peer(p)
        return self.graph().successors(p) | {p}

    def strict_neighbors(self, p: str) -> set[str]:
        return self.neighbors(p) - {p}

    def accessible(self, p: str) -> set[str]:
        """AC(P): peers reachable from P in the graph, plus P itself."""
        self._check_peer(p)
        return set(reach(self.graph().successors, p))

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

    def trust_kind(self, p: str, q: str) -> str | None:
        for (a, t, b) in self.trust:
            if (a, b) == (p, q):
                return t
        return None

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


@dataclass(frozen=True)
class PdesInstance:
    """One database instance per peer, over that peer's schema."""

    system: PdesSchema
    data: Mapping[str, Instance]

    def __post_init__(self):
        object.__setattr__(self, "data", dict(self.data))
        for p in self.system.peers:
            if p not in self.data:
                raise SchemaError("missing instance for peer %r" % p)
            inst = self.data[p]
            own = set(self.system.schemas[p].preds())
            if not {a.pred for a in inst.atoms} <= own:
                raise SchemaError("instance of %r uses foreign predicates"
                                  % p)

    def of(self, p: str) -> Instance:
        self.system._check_peer(p)
        return self.data[p]


@dataclass(frozen=True)
class SolutionResult:
    peer: str
    solutions: tuple[Instance, ...]
    core: Instance
    inconsistent: bool


# ------------------------------------------------- neighborhood solutions

def neighborhood_solutions(system: PdesSchema, p: str, dbar: Instance,
                           cap: int = DEFAULT_CAP) -> tuple[Instance, ...]:
    """Repairs of the neighborhood instance dbar with respect to p's
    constraints, minimal under the system's preorder, leaving the
    relations of more-trusted neighbors fixed. Constraint sets toward a
    neighbor whose inconsistency marker appears in dbar are dropped."""
    system._check_peer(p)
    sigma: list[Constraint] = []
    for q in sorted(system.neighbors(p)):
        if q != p and inc_atom(q) in dbar:
            continue
        sigma.extend(system.sigma.get((p, q), ()))
    repair = null_repairs if system.preorder == NULL_BASED else delta_repairs
    rs = repair(dbar, sigma, frozen_preds=system.frozen_preds(p), cap=cap)
    # repairs may live over a chase-extended schema; fold back
    return tuple(Instance(r.atoms, dbar.schema) for r in rs.repairs)


# ------------------------------------------------------------- solutions

LocalSolver = Callable[[PdesSchema, str, Instance, int], tuple[Instance, ...]]


def solutions(system: PdesSchema, p: str, d: PdesInstance,
              cap: int = DEFAULT_CAP) -> SolutionResult:
    """Solution instances for p: its own instance when it has no
    constraints, otherwise the restrictions to p's schema of the
    neighborhood solutions over its instance joined with the neighbors'
    cores."""
    system._check_peer(p)
    return _solve(system, p, d, neighborhood_solutions, cap, {})


def core_instance(system: PdesSchema, p: str, d: PdesInstance,
                  cap: int = DEFAULT_CAP) -> Instance:
    """p's neighborhood instance dbar: its own data plus each strict
    neighbor's core, or that neighbor's marker when it has no solutions."""
    system._check_peer(p)
    return _dbar(system, p, d, neighborhood_solutions, cap, {})


def _dbar(system: PdesSchema, p: str, d: PdesInstance, local: LocalSolver,
          cap: int, memo: dict[str, SolutionResult]) -> Instance:
    atoms = set(d.of(p).atoms)
    for q in sorted(system.strict_neighbors(p)):
        atoms |= _solve(system, q, d, local, cap, memo).core.atoms
    return Instance(atoms, system.neighborhood_schema(p))


def _solve(system: PdesSchema, p: str, d: PdesInstance, local: LocalSolver,
           cap: int, memo: dict[str, SolutionResult]) -> SolutionResult:
    """The one peer recursion. ``local(system, p, dbar, cap)`` solves p's
    neighborhood instance without recursing; each neighbor is solved
    once through the shared memo."""
    if p in memo:
        return memo[p]
    if not system.sigma_of(p):
        sols: tuple[Instance, ...] = (d.of(p),)
    else:
        dbar = _dbar(system, p, d, local, cap, memo)
        own = system.schemas[p]
        seen = {restrict(s, own.preds()).atoms
                for s in local(system, p, dbar, cap)}
        sols = tuple(Instance(a, own) for a in sorted(
            seen, key=lambda a: sorted(map(str, a))))
    if sols:
        common = frozenset.intersection(*(s.atoms for s in sols))
        res = SolutionResult(p, sols, Instance(common, system.schemas[p]),
                             False)
    else:
        marker = Instance({inc_atom(p)}, Schema({INC_PREFIX + p: 0}))
        res = SolutionResult(p, (), marker, True)
    memo[p] = res
    return res


# ------------------------------------------------ peer-consistent answers

@dataclass(frozen=True)
class PcaResult:
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
    return _certain_answers(system, p, d, q, neighborhood_solutions, cap)


def _certain_answers(system: PdesSchema, p: str, d: PdesInstance, q: Query,
                     local: LocalSolver, cap: int) -> PcaResult:
    """Certain answers to q over p's solutions through ``local``, or p's
    marker when it has none; q's predicates are checked first."""
    system._check_peer(p)
    if not {a.pred for a in q.atoms} <= set(system.schemas[p].preds()):
        raise SchemaError("query uses predicates outside the schema of %r"
                          % p)
    res = _solve(system, p, d, local, cap, {})
    if res.inconsistent:
        return PcaResult(p, frozenset(), True)
    eval_q = n_answers if system.preorder == NULL_BASED else classical_answers
    per = [eval_q(s, q) for s in res.solutions]
    return PcaResult(p, frozenset.intersection(*per), False)
