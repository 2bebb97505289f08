"""Relational core: schemas, instances, the reserved null constant.

Constants are plain strings; the single reserved token ``null`` plays the
role of the SQL NULL. Atoms and instances are immutable values.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
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


def _const_sort_key(c: str):
    # numbers before words, numerically; null last for readability
    try:
        return (0, int(c), "")
    except ValueError:
        return (2, 0, c) if c == NULL else (1, 0, c)


def const_leq(c1: str, c2: str) -> bool:
    """Total order used by <,<=,>,>= builtins: numeric when both sides are
    integers, lexicographic otherwise. Callers must exclude null."""
    try:
        return int(c1) <= int(c2)
    except ValueError:
        return c1 <= c2


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
    atoms: frozenset[Atom]
    schema: Schema
    _by_pred: dict[str, tuple[Atom, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "atoms", frozenset(self.atoms))
        for a in self.atoms:
            if a.pred not in self.schema:
                raise SchemaError("atom %s not in schema" % (a,))
            if len(a.args) != self.schema.arity(a.pred):
                raise SchemaError("arity mismatch in %s" % (a,))

    def __contains__(self, a: Atom) -> bool:
        return a in self.atoms

    def __iter__(self) -> Iterator[Atom]:
        return iter(sorted(self.atoms, key=atom_sort_key))

    def __len__(self) -> int:
        return len(self.atoms)

    def with_atoms(self, extra: Iterable[Atom]) -> "Instance":
        return Instance(self.atoms | set(extra), self.schema)

    def by_pred(self, pred: str) -> tuple[Atom, ...]:
        """The atoms of pred, sorted; computed once per predicate."""
        got = self._by_pred.get(pred)
        if got is None:
            got = self._by_pred[pred] = tuple(sorted(
                (a for a in self.atoms if a.pred == pred), key=atom_sort_key))
        return got


def active_domain(d: Instance) -> set[str]:
    return {c for a in d.atoms for c in a.args}


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
