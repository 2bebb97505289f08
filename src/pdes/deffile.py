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

from typing import NamedTuple

from .core import Atom, Instance, Schema, SchemaError
from .lang import (_BUILTIN_WORDS, Constraint, ParseError, Query, _constraint,
                   _Cursor, _fact, _query)
from .system import PdesInstance, PdesSchema


class Definition(NamedTuple):
    """A parsed definition file: the system, its instance, and any
    default queries keyed by peer."""

    system: PdesSchema
    instance: PdesInstance
    queries: dict[str, Query]


def _name(s: str) -> bool:
    """Whether s is a peer or predicate name: [A-Za-z_][A-Za-z0-9_]*."""
    return s.isascii() and s.isidentifier()


def parse_definition(text: str) -> Definition:
    peers: dict[str, Schema] = {}
    trust: set[tuple[str, str, str]] = set()
    sigma: dict[tuple[str, str], list[Constraint]] = {}
    atoms: dict[str, set[Atom]] = {}
    queries: dict[str, Query] = {}
    preorder: str | None = None

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
                if q.peer in queries:
                    raise ParseError("second query for peer %r" % q.peer)
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
                    if pred in _BUILTIN_WORDS:
                        raise ParseError("%r is a builtin, not a predicate"
                                         % pred)
                    if pred in arities:
                        raise ParseError("predicate %r declared twice" % pred)
                    arities[pred] = int(ar)
                peers[name] = Schema(arities)
                atoms[name] = set()
            elif keyword == "trust":
                p = cur.word()
                if cur.peek() not in ("less", "same"):
                    raise ParseError("expected: trust P less|same Q")
                trust.add((p, cur.next(), cur.word()))
            elif keyword == "preorder":
                if preorder is not None:
                    raise ParseError("preorder given twice")
                if cur.peek() not in ("null", "delta"):
                    raise ParseError("preorder must be null or delta")
                preorder = cur.next()
            elif keyword == "instance":
                name = cur.word()
                if name not in peers:
                    raise ParseError("instance for undeclared peer %r" % name)
                cur.expect(":")
                for _ in cur.items():
                    a = _fact(cur)
                    peers[name].check(a.pred, len(a.args), a)
                    atoms[name].add(a)
            else:
                raise ParseError("unknown keyword %r" % keyword)
            cur.end()
        except (ParseError, SchemaError) as e:
            raise ParseError("line %d: %s" % (lineno, e)) from e

    if not peers:
        raise ParseError("definition declares no peers")
    system = PdesSchema(
        peers=frozenset(peers),
        schemas=peers,
        sigma={pq: tuple(cs) for pq, cs in sigma.items()},
        trust=frozenset(trust),
        preorder=preorder or "null")
    # each atom was checked against its peer's schema on its line
    data = {p: Instance._trusted(frozenset(atoms[p]), s)
            for p, s in peers.items()}
    return Definition(system, PdesInstance(system, data), queries)


def load_definition(path: str) -> Definition:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise ParseError("byte %d is not UTF-8 (%s)"
                             % (e.start, e.reason)) from e
    return parse_definition(text)
