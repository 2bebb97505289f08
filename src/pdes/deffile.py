"""Textual definition files for whole peer systems.

Line-oriented, ``#`` starts a comment. Blocks:

    peer P1 : R1/3, S1/1
    trust P1 less P2
    preorder null            # or: delta
    instance P1 : R1(c,4,2), S1(3)
    dec P1 P2 : forall x,y : R2(x,y) -> R1(x,y)
    query P1 : exists y,z : R1(x,y,z)

Each line is read by `lang`'s one grammar. ``peer`` declares a peer and
its predicates with arities (names are ASCII identifiers); ``instance``
lines add atoms of constants; ``dec`` and ``query`` use the constraint
grammar. A malformed line raises `ParseError` naming its number.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import Atom, Instance, Schema, SchemaError
from .lang import (Constraint, ParseError, Query, _constraint, _Cursor, _fact,
                   _query)
from .system import PdesInstance, PdesSchema


@dataclass(frozen=True)
class Definition:
    """A parsed definition file: the system, its instance, and any
    default queries keyed by peer."""

    system: PdesSchema
    instance: PdesInstance
    queries: dict[str, Query] = field(default_factory=dict)


def _name(s: str) -> bool:
    """Whether s is a peer or predicate name: [A-Za-z_][A-Za-z0-9_]*."""
    return s.isascii() and s.isidentifier()


def parse_definition(text: str) -> Definition:
    peers: dict[str, dict[str, int]] = {}
    trust: set[tuple[str, str, str]] = set()
    sigma: dict[tuple[str, str], list[Constraint]] = {}
    atoms: dict[str, set[Atom]] = {}
    queries: dict[str, Query] = {}
    preorder = "null"

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        try:
            cur = _Cursor(line)
            keyword = cur.peek()
            if keyword not in ("dec", "query"):  # those rules read it
                cur.next()
            if keyword == "dec":
                c = _constraint(cur)
                sigma.setdefault(c.owner, []).append(c)
            elif keyword == "query":
                q = _query(cur)
                if q.peer not in peers:
                    raise ParseError("query for undeclared peer")
                queries[q.peer] = q
            elif keyword == "peer":
                name = cur.word()
                if not _name(name):
                    raise ParseError("bad peer name %r" % name)
                if name in peers:
                    raise ParseError("peer %r declared twice" % name)
                cur.expect(":")
                arities: dict[str, int] = {}
                for _ in cur.items():
                    pred = cur.word()
                    cur.expect("/")
                    ar = cur.word()
                    if not _name(pred) or not ar.isdigit():
                        raise ParseError("expected Pred/arity, got %s/%s"
                                         % (pred, ar))
                    if pred in arities:
                        raise ParseError("predicate %r declared twice" % pred)
                    arities[pred] = int(ar)
                peers[name] = arities
                atoms[name] = set()
            elif keyword == "trust":
                p = cur.word()
                if cur.peek() not in ("less", "same"):
                    raise ParseError("expected: trust P less|same Q")
                trust.add((p, cur.next(), cur.word()))
            elif keyword == "preorder":
                if cur.peek() not in ("null", "delta"):
                    raise ParseError("preorder must be null or delta")
                preorder = cur.next()
            elif keyword == "instance":
                name = cur.word()
                if name not in peers:
                    raise ParseError("instance for undeclared peer %r" % name)
                cur.expect(":")
                for _ in cur.items():
                    atoms[name].add(_fact(cur))
            else:
                raise ParseError("unknown keyword %r" % keyword)
            cur.end()
        except ParseError as e:
            raise ParseError("line %d: %s" % (lineno, e)) from e

    if not peers:
        raise ParseError("definition declares no peers")
    system = PdesSchema(
        peers=frozenset(peers),
        schemas={p: Schema(ar) for p, ar in peers.items()},
        sigma={pq: tuple(cs) for pq, cs in sigma.items()},
        trust=frozenset(trust),
        preorder=preorder)
    data = {}
    for p, ar in peers.items():
        try:
            data[p] = Instance(atoms[p], system.schemas[p])
        except SchemaError as e:
            raise ParseError("instance of %r: %s" % (p, e)) from e
    return Definition(system, PdesInstance(system, data), queries)


def load_definition(path: str) -> Definition:
    with open(path, encoding="utf-8") as fh:
        return parse_definition(fh.read())
