"""AST, parser and static analysis for data exchange constraints and
conjunctive queries, including relevant-variable computation and the
null-aware rewriting of constraints and queries."""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, replace

from .core import NULL, reach


class ParseError(ValueError):
    pass


class SafetyError(ParseError):
    pass


# ---------------------------------------------------------------- terms

@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Cst:
    value: str

    def __str__(self):
        return self.value


Term = Var | Cst


def term_vars(terms) -> list[str]:
    return [t.name for t in terms if isinstance(t, Var)]


# ---------------------------------------------------------------- atoms

@dataclass(frozen=True)
class PredAtom:
    pred: str
    terms: tuple[Term, ...]

    def __str__(self):
        return "%s(%s)" % (self.pred, ",".join(map(str, self.terms)))


#: builtin comparison spellings used by parser and printer
OP_TEXT = {"eq": "=", "neq": "!=", "lt": "<", "leq": "<=", "gt": ">", "geq": ">="}
TEXT_OP = {v: k for k, v in OP_TEXT.items()}


@dataclass(frozen=True)
class Builtin:
    op: str  # eq neq lt leq gt geq false isnull isnotnull
    terms: tuple[Term, ...] = ()

    def __str__(self):
        if self.op == "false":
            return "false"
        if self.op in ("isnull", "isnotnull"):
            return "%s(%s)" % (self.op, self.terms[0])
        return "%s%s%s" % (self.terms[0], OP_TEXT[self.op], self.terms[1])


@dataclass(frozen=True)
class Disjunct:
    """One consequent disjunct: an (optionally existential) conjunction of
    database atoms and builtins."""

    exist_vars: tuple[str, ...]
    atoms: tuple[PredAtom, ...]
    builtins: tuple[Builtin, ...]

    def __str__(self):
        parts = [str(a) for a in self.atoms] + [str(b) for b in self.builtins]
        body = ", ".join(parts)
        if self.exist_vars:
            return "exists %s: %s" % (",".join(self.exist_vars), body)
        return body


@dataclass(frozen=True)
class Constraint:
    univ_vars: tuple[str, ...]
    body: tuple[PredAtom, ...]
    head: tuple[Disjunct, ...]
    owner: tuple[str, str] | None = None

    @property
    def is_existential(self) -> bool:
        return any(d.exist_vars for d in self.head)

    def preds(self) -> set[str]:
        out = {a.pred for a in self.body}
        for d in self.head:
            out |= {a.pred for a in d.atoms}
        return out

    def __str__(self):
        body = ", ".join(str(a) for a in self.body)
        head = " or ".join(str(d) for d in self.head)
        return "forall %s: %s -> %s" % (",".join(self.univ_vars), body, head)


@dataclass(frozen=True)
class Query:
    free_vars: tuple[str, ...]
    exist_vars: tuple[str, ...]
    atoms: tuple[PredAtom, ...]
    builtins: tuple[Builtin, ...]
    peer: str | None = None

    @property
    def sql_safe(self) -> bool:
        """False when some conjunct compares a term with null directly."""
        for b in self.builtins:
            if b.op in ("eq", "neq") and any(
                    isinstance(t, Cst) and t.value == NULL for t in b.terms):
                return False
        return True

    def __str__(self):
        parts = [str(a) for a in self.atoms] + [str(b) for b in self.builtins]
        body = ", ".join(parts)
        if self.exist_vars:
            return "exists %s: %s" % (",".join(self.exist_vars), body)
        return body


# ------------------------------------------------------- relevant variables

def _occurrence_counts(atoms, builtins) -> Counter:
    """Variable occurrence counts, skipping occurrences inside
    isnull(v)/isnotnull(v) and comparisons against the null constant."""
    counts: Counter = Counter()
    for a in atoms:
        counts.update(term_vars(a.terms))
    for b in builtins:
        if b.op in ("isnull", "isnotnull", "false"):
            continue
        if any(isinstance(t, Cst) and t.value == NULL for t in b.terms):
            continue
        counts.update(term_vars(b.terms))
    return counts


def relevant_vars(f: Constraint | Query) -> frozenset[str]:
    if isinstance(f, Query):
        counts = _occurrence_counts(f.atoms, f.builtins)
    else:
        counts = _occurrence_counts(f.body, ())
        for d in f.head:
            counts.update(_occurrence_counts(d.atoms, d.builtins))
    return frozenset(v for v, n in counts.items() if n >= 2)


# ------------------------------------------------------------- rewriting

def n_rewrite_constraint(c: Constraint) -> Constraint:
    """Rewrite a constraint so that classical satisfaction over the
    rewritten form (null as an ordinary constant) captures satisfaction
    under the SQL-null semantics: the head gains an isnull(v) escape for
    every relevant universal variable, and every existential disjunct
    guards its relevant existential variables with isnotnull."""
    rel = relevant_vars(c)
    guards = tuple(
        Disjunct((), (), (Builtin("isnull", (Var(v),)),))
        for v in dict.fromkeys(c.univ_vars) if v in rel)
    new_head = []
    for d in c.head:
        extra = tuple(Builtin("isnotnull", (Var(w),))
                      for w in d.exist_vars if w in rel)
        new_head.append(replace(d, builtins=d.builtins + extra))
    return replace(c, head=guards + tuple(new_head))


def n_rewrite_query(q: Query) -> Query:
    """Append v != null for every relevant variable of the query, in
    declaration order (free variables first)."""
    rel = relevant_vars(q)
    extra = tuple(Builtin("neq", (Var(v), Cst(NULL)))
                  for v in dict.fromkeys(q.free_vars + q.exist_vars)
                  if v in rel)
    return replace(q, builtins=q.builtins + extra)


# ----------------------------------------------------------- ref-acyclicity

def dependency_graph(sigma) -> tuple[set[tuple[str, str]], set[tuple[str, str]]]:
    """Edges body-pred -> head-pred; an edge is marked when it stems from an
    existential constraint."""
    edges: set[tuple[str, str]] = set()
    marked: set[tuple[str, str]] = set()
    for c in sigma:
        for b in c.body:
            for d in c.head:
                for h in d.atoms:
                    edges.add((b.pred, h.pred))
                    if c.is_existential:
                        marked.add((b.pred, h.pred))
    return edges, marked


def ref_acyclic(sigma) -> tuple[bool, list[str] | None]:
    """True iff no cycle of the dependency graph goes through a marked
    (existential) edge; otherwise returns one witness cycle."""
    edges, marked = dependency_graph(sigma)
    succ: dict[str, set[str]] = {}
    for (u, v) in edges:
        succ.setdefault(u, set()).add(v)
    for (u, v) in sorted(marked):  # (u, v) is on a cycle iff v reaches u
        path = reach(lambda n: succ.get(n, ()), v, u)
        if path:
            return False, path + [v]
    return True, None


# ----------------------------------------------------------------- parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<punct><=|>=|!=|->|[(),:=<>])|(?P<word>[A-Za-z0-9_.'-]+))")


def _tokenize(text: str, where: str = "") -> list[str]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError("bad character at column %d%s: %r"
                             % (pos + 1, where, text[pos]))
        out.append(m.group("punct") or m.group("word"))
        pos = m.end()
    return out


class _Cursor:
    def __init__(self, toks: list[str], where: str = ""):
        self.toks = toks
        self.i = 0
        self.where = where

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        if self.i >= len(self.toks):
            raise ParseError("unexpected end of input" + self.where)
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, tok: str):
        t = self.next()
        if t != tok:
            raise ParseError("expected %r, found %r%s" % (tok, t, self.where))

    def done(self) -> bool:
        return self.i >= len(self.toks)


_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_']*$|[0-9][A-Za-z0-9_.'-]*$")


def _varlist(cur: _Cursor) -> tuple[str, ...]:
    out = [cur.next()]
    while cur.peek() == ",":
        cur.next()
        out.append(cur.next())
    for v in out:
        if out.count(v) > 1:
            raise ParseError("variable %r declared twice%s" % (v, cur.where))
    return tuple(out)


def _mk_term(tok: str, variables: set[str]) -> Term:
    return Var(tok) if tok in variables else Cst(tok)


def _parse_atomic(cur: _Cursor, variables: set[str], body_mode: bool,
                  implicit: list[str] | None):
    """One atom or builtin. In body_mode, undeclared identifiers become
    implicitly universal variables (collected into `implicit`)."""

    def term(tok: str) -> Term:
        if body_mode and tok not in variables and not tok[0].isdigit() \
                and re.match(r"[a-z]", tok) and tok != NULL:
            variables.add(tok)
            if implicit is not None and tok not in implicit:
                implicit.append(tok)
        return _mk_term(tok, variables)

    tok = cur.next()
    if tok == "false":
        return Builtin("false")
    if tok in ("isnull", "isnotnull"):
        cur.expect("(")
        t = term(cur.next())
        cur.expect(")")
        return Builtin(tok, (t,))
    if cur.peek() == "(":  # database atom
        cur.next()
        terms = [term(cur.next())]
        while cur.peek() == ",":
            cur.next()
            terms.append(term(cur.next()))
        cur.expect(")")
        return PredAtom(tok, tuple(terms))
    op = cur.next()
    if op not in TEXT_OP:
        raise ParseError("expected comparison operator, found %r%s"
                         % (op, cur.where))
    rhs = cur.next()
    return Builtin(TEXT_OP[op], (term(tok), term(rhs)))


def _parse_conjunction(cur: _Cursor, variables: set[str], body_mode: bool,
                       implicit=None, stop=("->", "or")):
    atoms, builtins = [], []
    while True:
        item = _parse_atomic(cur, variables, body_mode, implicit)
        (atoms if isinstance(item, PredAtom) else builtins).append(item)
        if cur.peek() == ",":
            cur.next()
            continue
        if cur.done() or cur.peek() in stop:
            return tuple(atoms), tuple(builtins)
        raise ParseError("expected ',', 'or' or end, found %r%s"
                         % (cur.peek(), cur.where))


def parse_constraint(text: str, owner: tuple[str, str] | None = None) -> Constraint:
    """Parse `[dec P Q :] forall vars : atoms -> disjunct { or disjunct }`."""
    where = " in %r" % text.strip()
    cur = _Cursor(_tokenize(text.strip(), where), where)
    if cur.peek() == "dec":
        cur.next()
        p, q = cur.next(), cur.next()
        owner = (p, q)
        cur.expect(":")
    cur.expect("forall")
    univ = list(_varlist(cur))
    cur.expect(":")
    variables = set(univ)
    implicit: list[str] = []
    body_atoms, body_builtins = _parse_conjunction(cur, variables, True, implicit)
    if body_builtins:
        raise ParseError("builtins are not allowed in the antecedent" + where)
    univ += implicit
    cur.expect("->")
    head: list[Disjunct] = []
    while True:
        evars: tuple[str, ...] = ()
        if cur.peek() == "exists":
            cur.next()
            evars = _varlist(cur)
            cur.expect(":")
            clash = set(evars) & variables
            if clash:
                raise ParseError("existential variables %s already in scope%s"
                                 % (sorted(clash), where))
        local_vars = variables | set(evars)
        atoms, builtins = _parse_conjunction(cur, local_vars, False)
        head.append(Disjunct(evars, atoms, builtins))
        if cur.peek() == "or":
            cur.next()
            continue
        break
    if not cur.done():
        raise ParseError("trailing input %r%s" % (cur.peek(), where))
    c = Constraint(tuple(univ), body_atoms, tuple(head), owner)
    validate_constraint(c)
    return c


def validate_constraint(c: Constraint) -> None:
    declared = set(c.univ_vars)
    for a in c.body:
        for t in a.terms:
            if isinstance(t, Cst) and t.value == NULL:
                raise ParseError("explicit null in constraint %s" % c)
            if isinstance(t, Var) and t.name not in declared:
                raise SafetyError("undeclared body variable %r in %s"
                                  % (t.name, c))
    ex_seen: set[str] = set()
    for d in c.head:
        if set(d.exist_vars) & (declared | ex_seen):
            raise SafetyError("existential variable reuse in %s" % c)
        ex_seen |= set(d.exist_vars)
        scope = declared | set(d.exist_vars)
        for item in (*d.atoms, *d.builtins):
            for t in item.terms:
                if isinstance(t, Cst) and t.value == NULL:
                    raise ParseError("explicit null in constraint %s" % c)
                if isinstance(t, Var) and t.name not in scope:
                    raise SafetyError("unsafe head variable %r in %s"
                                      % (t.name, c))


def parse_query(text: str, peer: str | None = None) -> Query:
    """Parse `[query P :] [exists vars :] atoms`; free variables are the
    undeclared ones, in first-appearance order."""
    where = " in %r" % text.strip()
    cur = _Cursor(_tokenize(text.strip(), where), where)
    if cur.peek() == "query":
        cur.next()
        peer = cur.next()
        cur.expect(":")
    evars: tuple[str, ...] = ()
    if cur.peek() == "exists":
        cur.next()
        evars = _varlist(cur)
        cur.expect(":")
    variables = set(evars)
    implicit: list[str] = []
    atoms, builtins = _parse_conjunction(cur, variables, True, implicit,
                                         stop=())
    if not cur.done():
        raise ParseError("trailing input %r%s" % (cur.peek(), where))
    q = Query(tuple(implicit), evars, atoms, builtins, peer)
    validate_query(q)
    return q


def validate_query(q: Query) -> None:
    in_atoms = {v for a in q.atoms for v in term_vars(a.terms)}
    for v in (*q.free_vars, *q.exist_vars):
        if v not in in_atoms:
            raise SafetyError("variable %r not bound by a database atom in %s"
                              % (v, q))
    for b in q.builtins:
        for v in term_vars(b.terms):
            if v not in in_atoms:
                raise SafetyError("unsafe builtin variable %r in %s" % (v, q))
