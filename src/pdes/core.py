"""Relational core: schemas, instances, the reserved null constant.

Constants are plain strings; the single reserved token ``null`` plays the
role of the SQL NULL. Atoms and instances are immutable values.
`Instance.lookup`, an index per (predicate, bound positions), is the
access path of the one body join, `nullsem.join`; its buckets keep the
atoms' set order, and the readers of an order sort what they read
(`nullsem.in_order`, by `_const_sort_key`). `Partition` splits work
into independent parts, and `Budget.choices` multiplies parts out; each
search's `Budget` reads the candidate cap that `capped` sets. `reach`
walks a graph and `cycle_through` finds an edge on a cycle, for the
peer graph and for constraints' dependency graphs.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from functools import cache, cached_property
from itertools import product, starmap
from math import prod
from typing import Callable, Iterable, Iterator, NamedTuple

NULL = "null"

#: default bound on explored candidates in exhaustive searches
DEFAULT_CAP = 2 ** 22
_CAP: ContextVar[int] = ContextVar("cap", default=DEFAULT_CAP)


@contextmanager
def capped(cap: int) -> Iterator[None]:
    """Bound each search started inside the block to cap candidates."""
    token = _CAP.set(cap)
    try:
        yield
    finally:
        _CAP.reset(token)


class CapExceeded(RuntimeError):
    """Raised when a search would exceed the configured candidate cap."""

    def __init__(self, cap: int, needed: int):
        super().__init__("search space of %d candidates exceeds cap %d"
                         % (needed, cap))
        self.cap = cap
        self.needed = needed


class Budget:
    """The candidate cap set by `capped`, charged as a search goes."""

    def __init__(self):
        self.cap, self.used = _CAP.get(), 0

    def charge(self, n: int = 1) -> None:
        if self.used + n > self.cap:
            raise CapExceeded(self.cap, self.used + n)
        self.used += n

    def choices(self, parts, base: frozenset = frozenset()) -> Iterator:
        """base joined with one member of each of parts, the first part
        varying slowest. Two parts or more charge their product, once and
        before any choice; one part is a scan its search already paid."""
        if len(parts) > 1:
            self.charge(prod(map(len, parts)))
        return starmap(base.union, product(*parts))


class Partition(dict):
    """Disjoint groups of items joined by `union`, as a map from each item
    to its parent (union-find; Tarjan, JACM 1975). `find` names an item's
    group by its least item; an item never joined is a group of its own."""

    def find(self, a):
        while self.setdefault(a, a) != a:
            self[a] = a = self[self[a]]
        return a

    def union(self, items: Iterable) -> None:
        roots = sorted(set(map(self.find, items)))
        for r in roots:
            self[r] = roots[0]


@cache  # every sort reads it, and int() raises on each word it is given
def _const_sort_key(c: str):
    # numbers before words, numerically; null last for readability; the
    # text breaks ties such as 1 and 01, which int() reads alike
    try:
        return (0, int(c), c)
    except ValueError:
        return (2, 0, c) if c == NULL else (1, 0, c)


def const_leq(c1: str, c2: str) -> bool:
    """The one total order of constants, for the <,<=,>,>= builtins and
    for output: integers numerically, then words (9 < 10a), the text
    breaking ties (1 before 01). Callers must exclude null."""
    return _const_sort_key(c1) <= _const_sort_key(c2)


class Atom(NamedTuple):
    pred: str
    args: tuple[str, ...]

    def __str__(self) -> str:
        return "%s(%s)" % (self.pred, ",".join(self.args))


def atom(pred: str, *args: str) -> Atom:
    return Atom(pred, tuple(str(a) for a in args))


def atom_sort_key(a: Atom):
    return (a.pred, tuple(map(_const_sort_key, a.args)))


class SchemaError(ValueError):
    pass


class Schema(NamedTuple):
    """Predicate name -> arity, a dict the schema keeps."""

    arities: dict[str, int]

    def __contains__(self, pred: str) -> bool:
        return pred in self.arities

    def check(self, pred: str, arity: int, where) -> None:
        """Raise SchemaError unless pred is a predicate of the schema with
        this arity; where names the atom, formula or instance using it."""
        if pred not in self.arities:
            raise SchemaError("unknown predicate %r in %s" % (pred, where))
        if self.arities[pred] != arity:
            raise SchemaError("%r has arity %d, not %d, in %s"
                              % (pred, self.arities[pred], arity, where))

    def arity(self, pred: str) -> int:
        if pred not in self.arities:
            raise SchemaError("unknown predicate %r" % pred)
        return self.arities[pred]

    def preds(self) -> list[str]:
        return sorted(self.arities)

    def union(self, other: "Schema") -> "Schema":
        for p, k in other.arities.items():
            if p in self.arities and self.arities[p] != k:
                raise SchemaError("arity clash on %r" % p)
        return Schema({**self.arities, **other.arities})

    def restrict(self, preds: Iterable[str]) -> "Schema":
        preds = set(preds)
        unknown = preds - set(self.arities)
        if unknown:
            raise SchemaError("unknown predicates %s" % sorted(unknown))
        return Schema({p: k for p, k in self.arities.items() if p in preds})


class Record:
    """A plain record, for values that cache or index beside their fields:
    the attributes ``_fields`` names make its ==, hash and repr."""

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))


class Instance(Record):
    """Atoms over a schema; its active domain and `lookup` indexes are
    built once, on first use."""

    _fields = ("atoms", "schema")

    def __init__(self, atoms: Iterable[Atom], schema: Schema):
        self.atoms, self.schema, self._index = frozenset(atoms), schema, {}
        for a in self.atoms:
            schema.check(a.pred, len(a.args), a)

    @classmethod
    def _trusted(cls, atoms: frozenset[Atom], schema: Schema) -> "Instance":
        """An instance of atoms over schema, unchecked: callers pass a
        frozenset of atoms of checked instances whose schemas agree with
        schema on the atoms' predicates, all of which schema declares."""
        inst = object.__new__(cls)
        inst.atoms, inst.schema, inst._index = atoms, schema, {}
        return inst

    def __contains__(self, a: Atom) -> bool:
        return a in self.atoms

    def __iter__(self) -> Iterator[Atom]:
        return iter(sorted(self.atoms, key=atom_sort_key))

    def __len__(self) -> int:
        return len(self.atoms)

    @cached_property
    def domain(self) -> frozenset[str]:
        return active_domain(self)

    @cached_property
    def universes(self) -> dict:
        """The working universes that checks over it build, by constant
        set (`nullsem.working_universe`)."""
        return {}

    def lookup(self, pred: str, bound: tuple[int, ...] = (),
               values: tuple[str, ...] = ()) -> list[Atom]:
        """The atoms of pred whose arguments at the positions bound are
        values, in no promised order (a reader of order sorts what it
        reads, `nullsem.in_order`); the index on bound is built on first
        use."""
        ix = self._index.get((pred, bound))
        if ix is None:
            ix = self._index[pred, bound] = {}
            for a in self.lookup(pred) if bound else [
                    a for a in self.atoms if a.pred == pred]:
                ix.setdefault(tuple([a.args[i] for i in bound]), []).append(a)
        return ix.get(values, [])


def active_domain(d: Instance) -> frozenset[str]:
    return frozenset(c for a in d.atoms for c in a.args)


def restrict(d: Instance, preds: Iterable[str]) -> Instance:
    sub = d.schema.restrict(preds)
    return Instance(frozenset(a for a in d.atoms if a.pred in sub), sub)


def reach(succ: Callable[[str], Iterable[str]], src: str,
          dst: str | None = None) -> list[str] | None:
    """Breadth-first walk from src, visiting successors in sorted order.
    Without dst: every node reachable from src, src first. With dst: a
    shortest path [src, ..., dst], or None when dst is unreachable."""
    parent: dict[str, str | None] = {src: None}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        if u == dst:
            path = []
            while u is not None:
                path.append(u)
                u = parent[u]
            return path[::-1]
        for v in sorted(succ(u)):
            if v not in parent:
                parent[v] = u
                queue.append(v)
    return list(parent) if dst is None else None


def cycle_through(succ: Callable[[str], Iterable[str]],
                  edges: Iterable[tuple[str, str]]) -> list[str] | None:
    """The first of edges, pairs (u, v) of the graph with successor
    function succ, that lies on a cycle, as a shortest path [v, ..., u]
    back from v to u; None when no edge does. (u, v) lies on a cycle iff
    u and v share a strongly connected component, so one pass of
    Tarjan's algorithm (SIAM J. Comput. 1972) from the edges' sources
    decides every edge in time linear in the graph, and `reach` walks
    once, to name the cycle."""
    edges = list(edges)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    comp: dict[str, str] = {}
    stack: list[str] = []
    work: list[tuple[str, Iterator[str]]] = []  # the depth-first path

    def enter(v: str) -> None:
        index[v] = low[v] = len(index)
        stack.append(v)
        work.append((v, iter(succ(v))))

    for root in (u for u, _ in edges):
        if root not in index:
            enter(root)
        while work:
            u, it = work[-1]
            for v in it:
                if v not in index:
                    enter(v)
                    break
                if v not in comp:  # on the stack: in u's component
                    low[u] = min(low[u], index[v])
            else:
                work.pop()
                if work:
                    w = work[-1][0]
                    low[w] = min(low[w], low[u])
                if low[u] == index[u]:  # u roots a component
                    while True:
                        x = stack.pop()
                        comp[x] = u
                        if x == u:
                            break
    for u, v in edges:
        if comp[u] == comp[v]:
            return reach(succ, v, u)
    return None
