"""Peer systems: schemas with trust relationships, the accessibility
graph, neighborhood solutions, recursive solution instances, cores, and
certain (peer-consistent) query answers.

A peer's neighborhood solutions are repairs of its neighborhood instance
with the predicates of more-trusted neighbors frozen. Solutions recurse
over the acyclic accessibility graph: each neighbor contributes the
intersection of its own solutions, or an inconsistency marker when it
has none, in which case `PdesSchema.live_sigma` drops the exchange
constraints toward it. A peer that only imports data is solved by its
least model, with no search.
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, Iterable, Mapping, NamedTuple

from .core import (NULL, Atom, Budget, Instance, Record, Schema, SchemaError,
                   cycle_through, reach)
from .lang import Constraint, Query
from .nullsem import (classical_answers, escapes, ground_atom,
                      holds_instantiation, join, n_answers)
from .repair import NULL_BASED, SYMMETRIC_DELTA, RepairSet, preorder_repairs

LESS = "less"
SAME = "same"

UNRESTRICTED = "unrestricted_import"
RESTRICTED = "restricted_import"
GENERAL = "general"

INC_PREFIX = "inc_"


def inc_atom(peer: str) -> Atom:
    """Nullary marker signalling that a peer has no solutions."""
    return Atom(INC_PREFIX + peer, ())


class PdesSchema(Record):
    """Peer ids, per-peer schemas with pairwise disjoint predicates, the
    exchange constraints indexed by ordered peer pairs, and trust. The
    accessibility graph has an edge P -> Q for each nonempty constraint
    set between distinct peers, labeled with the trust kind; its indexes
    ``_succ`` and ``_kind`` and each peer's import flag (``_flags``) are
    outside ==."""

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
        succ: dict[str, set[str]] = {p: set() for p in self.peers}
        for (p, q) in self.sigma:
            if p in succ and p != q:
                succ[p].add(q)
        self._succ = {p: frozenset(qs) for p, qs in succ.items()}
        self._kind = {(p, q): t for (p, t, q) in sorted(self.trust)}
        self._validate()
        self._flags = {p: _import_flag(self, p) for p in sorted(self.peers)}

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
        path = cycle_through(self._succ.__getitem__,
                             [(p, q) for (p, q, _) in self.graph()])
        if path:  # [q, ..., p] closes the least edge p -> q on a cycle
            raise SchemaError("accessibility graph has a cycle: "
                              + " -> ".join([path[-1]] + path))

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

    def live_sigma(self, p: str, dbar: Instance) -> tuple[Constraint, ...]:
        """p's constraints that apply over its neighborhood instance dbar,
        in `sigma_of`'s order: all but the sets toward a strict neighbor
        whose inconsistency marker dbar holds."""
        return tuple(c for q in sorted(self.neighbors(p))
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


# --------------------------------------------------------- the import case

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


def _import_flag(system: PdesSchema, p: str) -> str:
    if not all(system.trust_kind(p, q) == LESS and all(
            _is_import(system, p, q, c) for c in system.sigma.get((p, q), ()))
            for q in system.strict_neighbors(p)):
        return GENERAL
    return RESTRICTED if system.sigma.get((p, p)) else UNRESTRICTED


def least_model(system: PdesSchema, p: str, dbar: Instance) -> Instance:
    """The least model of p's import constraints over its neighborhood
    instance dbar, those that `PdesSchema.live_sigma` keeps; SchemaError
    unless p is a peer whose import flag (`PdesSchema._flags`, set when
    the system is built) is unrestricted: every constraint of p is then
    an import toward a strict neighbor (`_is_import`), and p has none of
    its own.

    Each body is joined once against dbar. A head without existentials
    (rank -1) is grounded once per binding and added unless the
    instantiation `escapes`: a builtin-only disjunct holds, or under the
    null-based preorder a relevant universal is null. Its disjunct with
    atoms is that one atom a, with no builtins, and its other disjuncts
    are builtin-only, so the instantiation holds over any atoms iff it
    escapes or a is among them; adding an atom already there changes
    nothing, so atoms plus the heads that do not hold are atoms plus the
    heads that do not escape, with no witness check.

    A head with existentials grounds them null and is ranked by its
    number of nulls. Each rank, fewest nulls first, adds the heads whose
    instantiation does not hold over the atoms so far under the
    system's preorder (`holds_instantiation`: an escape or an earlier
    witness satisfies it), as a witness is never less informative than
    the null atom it makes unnecessary.

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
    system._check_peer(p)
    flag = system._flags[p]
    if flag != UNRESTRICTED:
        raise SchemaError("peer %r is not of the unrestricted import kind "
                          "(%s)" % (p, flag))
    classical = system.preorder != NULL_BASED
    copied: list[Atom] = []  # the heads of rank -1
    ranked: dict[int, list] = {}
    for c in system.live_sigma(p, dbar):
        target = next(d for d in c.head if d.atoms)
        head = target.atoms[0]
        if not target.exist_vars:
            copied.extend(ground_atom(head, s) for s in join(dbar, c.body, {})
                          if not escapes(c, s, classical))
            continue
        nulls = dict.fromkeys(target.exist_vars, NULL)
        for s in join(dbar, c.body, {}):
            a = ground_atom(head, {**s, **nulls})
            ranked.setdefault(a.args.count(NULL), []).append((c, s, a))
    # heads of constraints that PdesSchema checked against the schema
    atoms = dbar.atoms.union(copied)
    for rank in sorted(ranked):
        cur = Instance._trusted(atoms, dbar.schema)
        atoms = atoms.union(a for c, s, a in ranked[rank]
                            if not holds_instantiation(cur, c, s, classical))
    return Instance._trusted(atoms, dbar.schema)


# ------------------------------------------------- neighborhood solutions

def _neighborhood_repairs(system: PdesSchema, p: str,
                          dbar: Instance) -> RepairSet:
    """`neighborhood_solutions` in factored form. An unrestricted import
    peer takes its least model as the one state, with no search: no
    constraint of p reads p's relations in its body, so a repair only
    inserts, and `least_model` inserts just the least informative heads
    that every repair needs. p's own flag is enough, whatever its
    neighbors' flags: dbar holds each neighbor's core or `inc_` marker
    as frozen data, and `least_model` reads `live_sigma` (ex_2_2's P1 and
    ex_6_5's P1 are unrestricted with a general neighbor)."""
    if system._flags[p] == UNRESTRICTED:
        fix = least_model(system, p, dbar)
        return RepairSet(fix.atoms, (), fix.schema, Budget())
    return _search_repairs(system, p, dbar)


def _search_repairs(system: PdesSchema, p: str, dbar: Instance) -> RepairSet:
    """`neighborhood_solutions` in factored form by the repair search
    alone, whatever p's import flag."""
    return preorder_repairs(system.preorder, dbar, system.live_sigma(p, dbar),
                            frozen_preds=system.frozen_preds(p))


def neighborhood_solutions(system: PdesSchema, p: str,
                           dbar: Instance) -> tuple[Instance, ...]:
    """Repairs of the neighborhood instance dbar with respect to p's
    constraints, minimal under the system's preorder, leaving the
    relations of more-trusted neighbors fixed. Constraint sets toward a
    neighbor whose inconsistency marker appears in dbar are dropped."""
    return _neighborhood_repairs(system, p, dbar).repairs


# ------------------------------------------------------------- solutions

LocalSolver = Callable[[PdesSchema, str, Instance], RepairSet]


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
    return tuple(dict.fromkeys(
        frozenset(a for a in s if a.pred in own.arities) for s in states))


def solutions(system: PdesSchema, p: str, d: PdesInstance) -> SolutionResult:
    """Solution instances for p: its own instance when it has no
    constraints, otherwise the restrictions to p's schema of the
    neighborhood solutions over its instance joined with the neighbors'
    cores, in the order of their sorted atom texts (perfbench reads it),
    rendered only when there are two solutions or more to order."""
    system._check_peer(p)
    res = _solve(system, p, d, _neighborhood_repairs)
    if len(res.solutions) < 2:
        return res
    return res._replace(solutions=tuple(sorted(
        res.solutions, key=lambda s: sorted(map(str, s.atoms)))))


def solution_core(system: PdesSchema, p: str, d: PdesInstance) -> Instance:
    """The atoms every solution of p holds, or p's marker when it has
    none; the solutions are never multiplied out."""
    system._check_peer(p)
    return _core(p, _factored(system, p, d, _neighborhood_repairs, {}))


def core_instance(system: PdesSchema, p: str, d: PdesInstance) -> Instance:
    """p's neighborhood instance dbar: its own data plus each strict
    neighbor's core, or that neighbor's marker when it has no solutions."""
    memo: dict[str, RepairSet] = {}
    for q in sorted(system.strict_neighbors(p)):
        _factored(system, q, d, _neighborhood_repairs, memo)
    return _dbar(system, p, d, memo)


def _dbar(system: PdesSchema, p: str, d: PdesInstance,
          memo: dict[str, RepairSet]) -> Instance:
    """p's neighborhood instance, its strict neighbors solved in memo."""
    atoms = set(d.of(p).atoms)
    for q in sorted(system.strict_neighbors(p)):
        atoms |= _core(q, memo[q]).atoms
    return Instance._trusted(frozenset(atoms), system.neighborhood_schema(p))


def _core(p: str, sols: RepairSet) -> Instance:
    """The atoms all of p's solutions sols hold (intersection distributes
    over the product), or p's marker when a part of sols has no state."""
    if not all(sols.parts):
        return Instance({inc_atom(p)}, Schema({INC_PREFIX + p: 0}))
    return Instance._trusted(sols.shared.union(
        *(frozenset.intersection(*states) for states in sols.parts)),
        sols.schema)


def _solve(system: PdesSchema, p: str, d: PdesInstance,
           local: LocalSolver) -> SolutionResult:
    """p's solutions through ``local``, listed: the product of their
    factored form, charged to the cap of p's own search when it
    multiplies two parts or more. The neighbors contribute their cores
    and are never listed."""
    sols = _factored(system, p, d, local, {})
    return SolutionResult(p, sols.repairs, _core(p, sols),
                          not all(sols.parts))


def _factored(system: PdesSchema, p: str, d: PdesInstance, local: LocalSolver,
              memo: dict[str, RepairSet]) -> RepairSet:
    """The one peer recursion, run as one pass in dependency order: an
    explicit stack solves each peer p reaches after its strict neighbors,
    depth first in sorted order, once through the shared memo, with
    ``local(system, q, dbar)``. Solutions come back factored over the
    peer's schema: the shared atoms and each part's states restricted to
    it, deduplicated per part. Parts stay disjoint, so the product still
    has no duplicates, and a part left with no state means no solution."""
    stack = [p]
    while p not in memo:
        q = stack[-1]
        todo = [r for r in system.strict_neighbors(q) if r not in memo]
        if todo:
            stack.append(min(todo))
            continue
        stack.pop()
        own = system.schemas[q]
        if not system.sigma_of(q):
            memo[q] = RepairSet(d.of(q).atoms, (), own, Budget())
            continue
        found = local(system, q, _dbar(system, q, d, memo))
        memo[q] = RepairSet(
            frozenset(a for a in found.shared if a.pred in own),
            tuple(_restricted(states, own) for states in found.parts),
            own, found.budget)
    return memo[p]


# ------------------------------------------------ peer-consistent answers

class PcaResult(NamedTuple):
    """Certain answers over a peer's solutions; ``inconsistent`` replaces
    the answer set by the peer's marker when no solutions exist."""

    peer: str
    answers: frozenset[tuple[str, ...]]
    inconsistent: bool


def peer_consistent_answers(system: PdesSchema, p: str, d: PdesInstance,
                            q: Query) -> PcaResult:
    """Tuples that answer q in every solution instance of p; a Boolean
    query certainly holds iff its empty tuple survives."""
    return _certain_answers(system, p, d, q, _neighborhood_repairs)


def _certain_answers(system: PdesSchema, p: str, d: PdesInstance, q: Query,
                     local: LocalSolver) -> PcaResult:
    """Certain answers to q over p's solutions through ``local``, or p's
    marker when it has none; q's atoms must fit p's schema.

    When every part has one state, p's one solution is its core, and the
    certain answers are q's answers over it, with no matches kept.
    Otherwise q, monotone in the atoms, is evaluated once, over the
    shared atoms plus every state of every part, keeping the atoms of
    each answer's matches. A tuple answers q in every solution iff every
    choice of one state per part keeps one of its matches. Its matches
    link the parts they touch into groups, and distinct groups choose
    independently. So the tuple is certain iff one of its matches lies in
    the shared atoms, or some group has no choice of states that keeps
    none of the group's matches."""
    system._check_peer(p)
    own, where = system.schemas[p], "query %s : %s" % (p, q)
    for a in q.atoms:
        own.check(a.pred, len(a.terms), where)
    sols = _factored(system, p, d, local, {})
    if not all(sols.parts):
        return PcaResult(p, frozenset(), True)
    eval_q = n_answers if system.preorder == NULL_BASED else classical_answers
    if all(len(states) == 1 for states in sols.parts):  # one solution
        return PcaResult(p, eval_q(_core(p, sols), q), False)
    part_of = {a: i for i, states in enumerate(sols.parts)
               for s in states for a in s}
    matches: dict[tuple[str, ...], set[frozenset[Atom]]] = {}
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
