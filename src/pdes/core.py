"""Relational core: schemas, instances, the reserved null constant.

Constants are plain strings; the single reserved token ``null`` plays the
role of the SQL NULL. Atoms and instances are immutable values.
`Instance.lookup`, an index per (predicate, bound positions), is the
access path of the one body join, `nullsem.join`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

NULL = "null"

#: default bound on explored candidates in exhaustive searches
DEFAULT_CAP = 2 ** 22


class CapExceeded(RuntimeError):
    """Raised when a search would exceed the configured candidate cap."""

    def __init__(self, cap: int, needed: int):
        super().__init__("search space of %d candidates exceeds cap %d"
                         % (needed, cap))
        self.cap = cap
        self.needed = needed


class Budget:
    """The candidate cap, charged as a search goes."""

    def __init__(self, cap: int):
        self.cap, self.used = cap, 0

    def charge(self, n: int = 1) -> None:
        if self.used + n > self.cap:
            raise CapExceeded(self.cap, self.used + n)
        self.used += n


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
    return (a.pred, tuple(_const_sort_key(c) for c in a.args))


class SchemaError(ValueError):
    pass


@dataclass(frozen=True)
class Schema:
    """Predicate name -> arity."""

    arities: Mapping[str, int]

    def __post_init__(self):
        object.__setattr__(self, "arities", dict(self.arities))

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


@dataclass(frozen=True)
class Instance:
    """Atoms over a schema; its active domain and `lookup` indexes are
    built once, on first use."""

    atoms: frozenset[Atom]
    schema: Schema
    _index: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        object.__setattr__(self, "atoms", frozenset(self.atoms))
        for a in self.atoms:
            self.schema.check(a.pred, len(a.args), a)

    @classmethod
    def _trusted(cls, atoms: frozenset[Atom], schema: Schema) -> "Instance":
        """An instance of atoms over schema, unchecked: callers pass a
        frozenset of atoms of checked instances whose schemas agree with
        schema on the atoms' predicates, all of which schema declares."""
        inst = object.__new__(cls)
        object.__setattr__(inst, "atoms", atoms)
        object.__setattr__(inst, "schema", schema)
        object.__setattr__(inst, "_index", {})
        return inst

    def __contains__(self, a: Atom) -> bool:
        return a in self.atoms

    def __iter__(self) -> Iterator[Atom]:
        return iter(sorted(self.atoms, key=atom_sort_key))

    def __len__(self) -> int:
        return len(self.atoms)

    def with_atoms(self, extra: Iterable[Atom]) -> "Instance":
        return Instance(self.atoms | set(extra), self.schema)

    @cached_property
    def domain(self) -> frozenset[str]:
        return active_domain(self)

    def lookup(self, pred: str, bound: tuple[int, ...] = (),
               values: tuple[str, ...] = ()) -> list[Atom]:
        """The atoms of pred whose arguments at the positions bound are
        values, sorted; the index on bound is built on first use."""
        ix = self._index.get((pred, bound))
        if ix is None:
            ix = self._index[pred, bound] = {}
            for a in self.lookup(pred) if bound else sorted(
                    (a for a in self.atoms if a.pred == pred),
                    key=atom_sort_key):
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
