"""Textual definition files for whole peer systems.

Line-oriented, ``#`` starts a comment. Blocks:

    peer P1 : R1/3, S1/1
    trust P1 less P2
    preorder null            # or: delta
    instance P1 : R1(c,4,2), S1(3)
    dec P1 P2 : forall x,y : R2(x,y) -> R1(x,y)
    query P1 : exists y,z : R1(x,y,z)

``peer`` declares a peer and its predicates with arities; ``instance``
lines accumulate; ``dec`` and ``query`` use the constraint grammar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .core import Atom, Instance, Schema, SchemaError
from .lang import Constraint, ParseError, Query, parse_constraint, parse_query
from .system import PdesInstance, PdesSchema

_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class Definition:
    """A parsed definition file: the system, its instance, and any
    default queries keyed by peer."""

    system: PdesSchema
    instance: PdesInstance
    queries: dict[str, Query] = field(default_factory=dict)


def _fail(lineno: int, msg: str) -> ParseError:
    return ParseError("line %d: %s" % (lineno, msg))


def _split_top(text: str) -> list[str]:
    """Split on commas outside parentheses."""
    parts, depth, cur = [], 0, ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(cur.strip())
            cur = ""
        else:
            cur += ch
    if cur.strip():
        parts.append(cur.strip())
    return parts


def _parse_atom(txt: str, lineno: int) -> Atom:
    m = re.match(r"^([A-Za-z_][A-Za-z0-9_]*)\s*\(([^()]*)\)$", txt)
    if not m:
        raise _fail(lineno, "malformed atom %r" % txt)
    pred, inner = m.group(1), m.group(2)
    args = tuple(a.strip() for a in inner.split(",")) if inner.strip() else ()
    if any(not a for a in args):
        raise _fail(lineno, "empty argument in %r" % txt)
    return Atom(pred, args)


def parse_definition(text: str) -> Definition:
    peers: dict[str, dict[str, int]] = {}
    trust: set[tuple[str, str, str]] = set()
    sigma: dict[tuple[str, str], list[Constraint]] = {}
    atoms: dict[str, set[Atom]] = {}
    queries: dict[str, Query] = {}
    preorder = "null"

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword = line.split(None, 1)[0]
        rest = line[len(keyword):].strip()
        if keyword == "peer":
            name, _, decl = rest.partition(":")
            name = name.strip()
            if not _NAME.match(name):
                raise _fail(lineno, "bad peer name %r" % name)
            if name in peers:
                raise _fail(lineno, "peer %r declared twice" % name)
            arities: dict[str, int] = {}
            for item in _split_top(decl):
                pred, slash, ar = item.partition("/")
                pred = pred.strip()
                if not slash or not _NAME.match(pred) or \
                        not ar.strip().isdigit():
                    raise _fail(lineno, "expected Pred/arity, got %r" % item)
                if pred in arities:
                    raise _fail(lineno, "predicate %r declared twice" % pred)
                arities[pred] = int(ar)
            peers[name] = arities
            atoms.setdefault(name, set())
        elif keyword == "trust":
            parts = rest.split()
            if len(parts) != 3 or parts[1] not in ("less", "same"):
                raise _fail(lineno, "expected: trust P less|same Q")
            trust.add((parts[0], parts[1], parts[2]))
        elif keyword == "preorder":
            if rest not in ("null", "delta"):
                raise _fail(lineno, "preorder must be null or delta")
            preorder = rest
        elif keyword == "instance":
            name, colon, body = rest.partition(":")
            name = name.strip()
            if not colon or name not in peers:
                raise _fail(lineno, "instance for undeclared peer %r" % name)
            for item in _split_top(body):
                atoms[name].add(_parse_atom(item, lineno))
        elif keyword == "dec":
            try:
                c = parse_constraint(line)
            except ParseError as e:
                raise _fail(lineno, str(e)) from e
            if c.owner is None:
                raise _fail(lineno, "constraint without peer pair")
            sigma.setdefault(c.owner, []).append(c)
        elif keyword == "query":
            try:
                q = parse_query(line)
            except ParseError as e:
                raise _fail(lineno, str(e)) from e
            if q.peer is None or q.peer not in peers:
                raise _fail(lineno, "query for undeclared peer")
            queries[q.peer] = q
        else:
            raise _fail(lineno, "unknown keyword %r" % keyword)

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
