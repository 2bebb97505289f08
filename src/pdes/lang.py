"""AST, parser and static analysis for data exchange constraints and
conjunctive queries, including relevant-variable computation and the
null-aware rewriting of constraints and queries.

One grammar reads every definition-file line and --query: a token is a
mark of `_PUNCT` or a word of letters, digits and _ . ' -; every name,
variable and constant is a word; an atom is P(w1,...,wn) with n >= 0;
lists are comma-separated, with no trailing comma."""

from __future__ import annotations

import re
from collections import Counter
from functools import cached_property
from typing import NamedTuple

from .core import NULL, Atom, Record, reach


class ParseError(ValueError):
    pass


class SafetyError(ParseError):
    pass


def _distinct(cls):
    """The NamedTuple cls, equal only to its own instances: as tuples,
    Var("x") would equal Cst("x"), and a PredAtom a Builtin spelt alike."""
    cls.__eq__ = lambda a, b: type(a) is type(b) and tuple.__eq__(a, b)
    cls.__ne__ = lambda a, b: not cls.__eq__(a, b)
    return cls


# ---------------------------------------------------------------- terms

@_distinct
class Var(NamedTuple):
    name: str

    def __str__(self):
        return self.name


@_distinct
class Cst(NamedTuple):
    value: str

    def __str__(self):
        return self.value


Term = Var | Cst


def term_vars(terms) -> list[str]:
    return [t.name for t in terms if isinstance(t, Var)]


# ---------------------------------------------------------------- atoms

@_distinct
class PredAtom(NamedTuple):
    pred: str
    terms: tuple[Term, ...]

    def __str__(self):
        return "%s(%s)" % (self.pred, ",".join(map(str, self.terms)))


#: builtin comparison spellings used by parser and printer
OP_TEXT = {"eq": "=", "neq": "!=", "lt": "<", "leq": "<=", "gt": ">", "geq": ">="}
TEXT_OP = {v: k for k, v in OP_TEXT.items()}


@_distinct
class Builtin(NamedTuple):
    op: str  # eq neq lt leq gt geq false isnull isnotnull
    terms: tuple[Term, ...] = ()

    def __str__(self):
        if self.op == "false":
            return "false"
        if self.op in ("isnull", "isnotnull"):
            return "%s(%s)" % (self.op, self.terms[0])
        return "%s%s%s" % (self.terms[0], OP_TEXT[self.op], self.terms[1])


class Disjunct(NamedTuple):
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


class Constraint(Record):
    """forall univ_vars: body -> head, in the constraint set of the peer
    pair owner when one is named. Its fields cannot be reassigned; its
    analyses are cached beside them, outside ==, hash and repr."""

    _fields = ("univ_vars", "body", "head", "owner")

    def __init__(self, univ_vars: tuple[str, ...], body: tuple[PredAtom, ...],
                 head: tuple[Disjunct, ...],
                 owner: tuple[str, str] | None = None):
        self.__dict__.update(zip(self._fields,
                                 (univ_vars, body, head, owner)))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to constraint field %r" % name)

    @property
    def is_existential(self) -> bool:
        return any(d.exist_vars for d in self.head)

    @cached_property
    def relevant(self) -> frozenset[str]:
        return relevant_vars(self)

    @cached_property
    def anchored(self) -> bool:
        """Whether each existential variable occurs in an atom of its
        disjunct, so that joining those atoms binds every one of them."""
        return all(any(Var(v) in a.terms for a in d.atoms)
                   for d in self.head for v in d.exist_vars)

    @cached_property
    def problematic(self) -> bool:
        """Whether an existential occurs twice in its disjunct's atoms or
        in one of its builtins, so that no null fills it: the chase drops
        such a constraint, and the import and program routes refuse it."""
        return any(term_vars(t for a in d.atoms for t in a.terms).count(v) > 1
                   or v in term_vars(t for b in d.builtins for t in b.terms)
                   for d in self.head for v in d.exist_vars)

    @cached_property
    def constants(self) -> frozenset[str]:
        """The constants of its atoms and of its head builtins."""
        return frozenset(t.value for item in (
            *self.atoms(), *(b for d in self.head for b in d.builtins))
            for t in item.terms if isinstance(t, Cst))

    def atoms(self) -> tuple[PredAtom, ...]:
        """The database atoms of the body, then of each head disjunct."""
        return self.body + tuple(a for d in self.head for a in d.atoms)

    def __str__(self):
        body = ", ".join(str(a) for a in self.body)
        head = " or ".join(str(d) for d in self.head)
        return "forall %s: %s -> %s" % (",".join(self.univ_vars), body, head)


class Query(NamedTuple):
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

    __str__ = Disjunct.__str__  # a conjunction, as a disjunct prints


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
    guards with isnotnull its existential variables that are relevant or
    that an = or != reads (classically, a null passes those)."""
    rel = c.relevant
    guards = tuple(
        Disjunct((), (), (Builtin("isnull", (Var(v),)),))
        for v in dict.fromkeys(c.univ_vars) if v in rel)
    new_head = []
    for d in c.head:
        compared = {v for b in d.builtins if b.op in ("eq", "neq")
                    for v in term_vars(b.terms)}
        extra = tuple(Builtin("isnotnull", (Var(w),))
                      for w in d.exist_vars if w in rel or w in compared)
        new_head.append(d._replace(builtins=d.builtins + extra))
    return Constraint(c.univ_vars, c.body, guards + tuple(new_head), c.owner)


def n_rewrite_query(q: Query) -> Query:
    """Append v != null for every relevant variable of the query, in
    declaration order (free variables first)."""
    rel = relevant_vars(q)
    extra = tuple(Builtin("neq", (Var(v), Cst(NULL)))
                  for v in dict.fromkeys(q.free_vars + q.exist_vars)
                  if v in rel)
    return q._replace(builtins=q.builtins + extra)


# ----------------------------------------------------------- ref-acyclicity

def ref_acyclic(sigma) -> tuple[bool, list[str] | None]:
    """True iff no cycle of the dependency graph (edges body-pred ->
    head-pred, marked when they stem from an existential constraint) goes
    through a marked edge; otherwise returns one witness cycle."""
    succ: dict[str, set[str]] = {}
    marked: set[tuple[str, str]] = set()
    for c in sigma:
        for b in c.body:
            for d in c.head:
                for h in d.atoms:
                    succ.setdefault(b.pred, set()).add(h.pred)
                    if c.is_existential:
                        marked.add((b.pred, h.pred))
    for (u, v) in sorted(marked):  # (u, v) is on a cycle iff v reaches u
        path = reach(lambda n: succ.get(n, ()), v, u)
        if path:
            return False, path + [v]
    return True, None


# ----------------------------------------------------------------- parser

_BUILTIN_WORDS = ("false", "isnull", "isnotnull")
_PUNCT = frozenset("<= >= != -> ( ) , : = < > /".split())
_TOKEN = "|".join(map(re.escape, sorted(_PUNCT, key=len, reverse=True))) \
    + r"|[A-Za-z0-9_.'-]+"
_TOKEN_RE = re.compile(_TOKEN)
_TOKEN_RUN_RE = re.compile(r"(?:\s*(?:%s))*\s*" % _TOKEN)


def _tokenize(text: str, where: str) -> list[str]:
    end = _TOKEN_RUN_RE.match(text).end()
    if end < len(text):
        raise ParseError("bad character at column %d%s: %r"
                         % (end + 1, where, text[end]))
    return _TOKEN_RE.findall(text)


class _Cursor:
    """The tokens of one text, read in order; errors quote the text."""

    def __init__(self, text: str):
        text = text.strip()
        self.where = " in %r" % text
        self.toks = _tokenize(text, self.where) + [None]  # None marks the end
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        if t is None:
            raise ParseError("unexpected end of input" + self.where)
        self.i += 1
        return t

    def word(self) -> str:
        t = self.next()
        if t in _PUNCT:
            raise ParseError("expected a word, found %r%s" % (t, self.where))
        return t

    def expect(self, tok: str):
        t = self.next()
        if t != tok:
            raise ParseError("expected %r, found %r%s" % (tok, t, self.where))

    def done(self) -> bool:
        return self.toks[self.i] is None

    def end(self):
        if not self.done():
            raise ParseError("trailing input %r%s" % (self.peek(), self.where))

    def items(self, close: str | None = None):
        """Yield before each item of the comma-separated list that runs up
        to the token close (None: the end), possibly empty; the caller
        reads the item."""
        if self.peek() != close:
            yield
            while self.peek() != close:
                self.expect(",")
                yield


def _atom_args(cur: _Cursor) -> list[str]:
    """The atom rule after the predicate word: `( [word {, word}] )`."""
    cur.expect("(")
    args = [cur.word() for _ in cur.items(")")]
    cur.expect(")")
    return args


def _fact(cur: _Cursor) -> Atom:
    """A database atom whose arguments are all constants."""
    pred = cur.word()
    if pred in _BUILTIN_WORDS:
        raise ParseError("expected a fact, found %r%s" % (pred, cur.where))
    return Atom(pred, tuple(_atom_args(cur)))


def _varlist(cur: _Cursor) -> tuple[str, ...]:
    out = [cur.word() for _ in cur.items(":")]
    if not out:
        raise ParseError("expected a variable%s" % cur.where)
    for v in out:
        if out.count(v) > 1:
            raise ParseError("variable %r declared twice%s" % (v, cur.where))
    return tuple(out)


def _parse_atomic(cur: _Cursor, variables: set[str], body_mode: bool,
                  implicit: list[str] | None):
    """One atom or builtin. In body_mode, undeclared identifiers become
    implicitly universal variables (collected into `implicit`)."""

    def term(tok: str) -> Term:
        if body_mode and tok not in variables and "a" <= tok[0] <= "z" \
                and tok != NULL:
            variables.add(tok)
            if implicit is not None and tok not in implicit:
                implicit.append(tok)
        return Var(tok) if tok in variables else Cst(tok)

    tok = cur.word()
    if tok == "false":
        return Builtin("false")
    if tok in _BUILTIN_WORDS or cur.peek() == "(":  # isnull(t) or an atom
        terms = tuple(map(term, _atom_args(cur)))
        if tok not in _BUILTIN_WORDS:
            return PredAtom(tok, terms)
        if len(terms) != 1:
            raise ParseError("%s takes one term%s" % (tok, cur.where))
        return Builtin(tok, terms)
    op = cur.next()
    if op not in TEXT_OP:
        raise ParseError("expected comparison operator, found %r%s"
                         % (op, cur.where))
    return Builtin(TEXT_OP[op], (term(tok), term(cur.word())))


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
    return _constraint(_Cursor(text), owner)


def _constraint(cur: _Cursor,
                owner: tuple[str, str] | None = None) -> Constraint:
    if cur.peek() == "dec":
        cur.next()
        owner = (cur.word(), cur.word())
        cur.expect(":")
    cur.expect("forall")
    univ = list(_varlist(cur))
    cur.expect(":")
    variables = set(univ)
    implicit: list[str] = []
    body_atoms, body_builtins = _parse_conjunction(cur, variables, True, implicit)
    if body_builtins:
        raise ParseError("builtins are not allowed in the antecedent"
                         + cur.where)
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
                                 % (sorted(clash), cur.where))
        local_vars = variables | set(evars)
        atoms, builtins = _parse_conjunction(cur, local_vars, False)
        head.append(Disjunct(evars, atoms, builtins))
        if cur.peek() == "or":
            cur.next()
            continue
        break
    cur.end()
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
    return _query(_Cursor(text), peer)


def _query(cur: _Cursor, peer: str | None = None) -> Query:
    if cur.peek() == "query":
        cur.next()
        peer = cur.word()
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
