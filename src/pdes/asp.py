"""Disjunctive logic programs whose stable models are a peer's solutions.

Each database predicate gets an annotated nickname with one extra
argument carrying an annotation constant: ``ta``/``fa`` mark virtual
insertions/deletions, ``ts``/``fs`` mean "was or is made true/false",
and ``tss`` marks the atoms that make up a solution. Repair rules have
disjunctive heads offering the alternative updates; trust decides which
head atoms survive.

Grounding partially evaluates the fixed part: plain atoms and the
``ts``/``fs`` literals are resolved against the facts (the closed-world
``fs`` rule is never materialized), leaving a small ground program over
``ta``/``fa``/aux atoms. Stable models are enumerated by brute force
over that decision layer and checked via the reduct.

The ``!= null`` guards encode the null semantics, so only systems under
the null-based preorder get a program. ``asp_solutions`` is a local
solver of the one peer recursion (``system._solve``): it reads each
stable model's neighborhood instance, drops those strictly farther from
dbar under the closeness preorder than another, and restricts the rest
to the peer's schema. ``pca_via_asp`` solves every peer it reaches
through that peer's own program.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping

from .core import (DEFAULT_CAP, NULL, Atom, CapExceeded, Instance, Schema,
                   SchemaError, active_domain, restrict)
from .lang import (Builtin, Constraint, Cst, PredAtom, Query, Var,
                   ref_acyclic, relevant_vars, term_vars)
from .nullsem import eval_builtin
from .repair import NULL_BASED, _minimal, closer_lt
from .chase import r_chase, split_sigma
from .system import (PdesInstance, PdesSchema, PcaResult, _certain_answers,
                     inc_atom, INC_PREFIX, LESS, SAME)

TA, FA, TS, FS, TSS = "ta", "fa", "ts", "fs", "tss"

_FLIP = {"eq": "neq", "neq": "eq", "lt": "geq", "geq": "lt",
         "leq": "gt", "gt": "leq", "isnull": "isnotnull",
         "isnotnull": "isnull"}


@dataclass(frozen=True)
class Lit:
    """A (possibly negated) program atom: annotated nickname when ``ann``
    is set, plain database/dom/aux/marker atom otherwise."""

    pred: str
    terms: tuple
    ann: str | None = None
    neg: bool = False

    def vars(self) -> tuple[str, ...]:
        return term_vars(self.terms)


@dataclass(frozen=True)
class Rule:
    head: tuple[Lit, ...]
    body: tuple[Lit | Builtin, ...]
    tag: str = ""
    derived: bool = False  # definitional layer, resolved lazily


@dataclass(frozen=True)
class LogicProgram:
    peer: str
    facts: frozenset[Atom]
    rules: tuple[Rule, ...]
    schema: Schema
    own_preds: frozenset[str]
    changeable: frozenset[str]
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class GroundRule:
    head: tuple[Atom, ...]
    pos: tuple[Atom, ...]
    neg: tuple[Atom, ...]


def _nick(pred: str, args: tuple[str, ...], ann: str) -> Atom:
    return Atom(pred + "_", args + (ann,))


def _simple_rdec(c: Constraint) -> bool:
    return (len(c.body) == 1 and len(c.head) == 1
            and len(c.head[0].atoms) == 1 and not c.head[0].builtins)


def _guards(vars_: Iterable[str]) -> list[Builtin]:
    return [Builtin("neq", (Var(v), Cst(NULL))) for v in vars_]


def build_solution_program(system: PdesSchema, p: str,
                           dbar: Instance) -> LogicProgram:
    """The solution program for p over a neighborhood instance whose
    restriction to p's schema is p's local data. Its ``!= null`` guards
    encode the null-based preorder, so delta systems are refused."""
    system._check_peer(p)
    if system.preorder != NULL_BASED:
        raise SchemaError("solution programs encode the null-based "
                          "preorder, not preorder %s" % system.preorder)
    own = frozenset(system.schemas[p].preds())
    changeable = set(own)
    for q in system.strict_neighbors(p):
        if system.trust_kind(p, q) == SAME:
            changeable |= set(system.schemas[q].preds())
    warnings: list[str] = []
    sigma = system.sigma_of(p)
    ok, witness = ref_acyclic(sigma)
    if not ok:
        warnings.append(
            "constraints are not ref-acyclic (cycle through %s); stable "
            "models may include non-minimal candidates" %
            " -> ".join(witness))
    rules: list[Rule] = []
    aux_n = 0
    for q in sorted(system.neighbors(p)):
        cs = system.sigma.get((p, q), ())
        if not cs:
            continue
        trust = SAME if q == p else system.trust_kind(p, q)
        inc_guard: list[Lit] = []
        if q != p and inc_atom(q) in dbar:
            inc_guard = [Lit(INC_PREFIX + q, (), neg=True)]
        for c in cs:
            if c.is_existential:
                if not _simple_rdec(c):
                    raise SchemaError(
                        "existential constraint %s is not of the supported "
                        "single-atom form" % c)
                aux_n += 1
                rules += _rdec_rules(c, trust, own, changeable,
                                     "aux%d" % aux_n, inc_guard)
            else:
                rules.append(_udec_rule(c, trust, own, changeable,
                                        inc_guard))
    for r in sorted(changeable):
        arity = system.neighborhood_schema(p).arity(r)
        xs = tuple(Var("x%d" % i) for i in range(1, arity + 1))
        rules.append(Rule((Lit(r, xs, FS),),
                          tuple(Lit("dom", (x,)) for x in xs)
                          + (Lit(r, xs, neg=True),), tag="6", derived=True))
        rules.append(Rule((Lit(r, xs, FS),), (Lit(r, xs, FA),),
                          tag="6", derived=True))
        rules.append(Rule((Lit(r, xs, TS),), (Lit(r, xs),),
                          tag="6", derived=True))
        rules.append(Rule((Lit(r, xs, TS),), (Lit(r, xs, TA),),
                          tag="6", derived=True))
        rules.append(Rule((), (Lit(r, xs, TA), Lit(r, xs, FA)), tag="7"))
    for r in sorted(own):
        arity = system.schemas[p].arity(r)
        xs = tuple(Var("x%d" % i) for i in range(1, arity + 1))
        rules.append(Rule((Lit(r, xs, TSS),),
                          (Lit(r, xs, TS), Lit(r, xs, FA, neg=True)),
                          tag="8", derived=True))
    facts = set(dbar.atoms)
    facts |= {Atom("dom", (c,)) for c in active_domain(dbar) | {NULL}}
    return LogicProgram(p, frozenset(facts), tuple(rules), dbar.schema,
                        own, frozenset(changeable), tuple(warnings))


def _body_lit(a: PredAtom, changeable: frozenset[str], ann: str) -> Lit:
    """t*/f* body literal; unchanging predicates reduce to plain lookups."""
    if a.pred in changeable:
        return Lit(a.pred, a.terms, ann)
    return Lit(a.pred, a.terms, neg=(ann == FS))


def _udec_rule(c: Constraint, trust: str, own: frozenset[str],
               changeable: frozenset[str], inc_guard: list[Lit]) -> Rule:
    for d in c.head:
        if len(d.atoms) > 1:
            raise SchemaError(
                "universal constraint %s has a conjunctive consequent "
                "disjunct, unsupported by the program generator" % c)
    rel = relevant_vars(c)
    head: list[Lit] = []
    for a in c.body:
        if trust == SAME or a.pred in own:
            head.append(Lit(a.pred, a.terms, FA))
    body: list[Lit | Builtin] = [
        _body_lit(a, changeable, TS) for a in c.body]
    for d in c.head:
        for a in d.atoms:
            if trust == SAME or a.pred in own:
                head.append(Lit(a.pred, a.terms, TA))
            body.append(_body_lit(a, changeable, FS))
        for b in d.builtins:
            if b.op == "false":
                continue  # negation of false always holds
            body.append(Builtin(_FLIP[b.op], b.terms))
    body += inc_guard
    body += _guards(v for v in c.univ_vars if v in rel)
    return Rule(tuple(head), tuple(body), tag="2" if trust == LESS else "3")


def _rdec_rules(c: Constraint, trust: str, own: frozenset[str],
                changeable: frozenset[str], aux: str,
                inc_guard: list[Lit]) -> list[Rule]:
    body_atom = c.body[0]
    disj = c.head[0]
    target = disj.atoms[0]
    exist = set(disj.exist_vars)
    xprime = tuple(t for t in target.terms
                   if isinstance(t, Var) and t.name not in exist)
    null_head = tuple(Cst(NULL) if isinstance(t, Var) and t.name in exist
                      else t for t in target.terms)
    xp_vars = [t.name for t in xprime]
    main_body: tuple[Lit | Builtin, ...] = (
        _body_lit(body_atom, changeable, TS),
        Lit(aux, xprime, neg=True),
        *inc_guard, *_guards(xp_vars))
    head: list[Lit] = []
    if trust == SAME or body_atom.pred in own:
        head.append(Lit(body_atom.pred, body_atom.terms, FA))
    if trust == SAME or target.pred in own:
        head.append(Lit(target.pred, null_head, TA))
    tag = "4" if trust == SAME else "5"
    rules = [Rule(tuple(head), main_body, tag=tag)]
    qpred = target.pred
    # aux holds when the consequent is already witnessed and kept
    neg_fa = [] if qpred not in changeable else \
        [Lit(qpred, null_head, FA, neg=True)]
    rules.append(Rule((Lit(aux, xprime),),
                      (Lit(qpred, null_head),) + tuple(neg_fa)
                      + tuple(_guards(xp_vars)), tag=tag))
    for y in disj.exist_vars:
        neg_fa2 = [] if qpred not in changeable else \
            [Lit(qpred, target.terms, FA, neg=True)]
        rules.append(Rule(
            (Lit(aux, xprime),),
            (_body_lit(target, changeable, TS),) + tuple(neg_fa2)
            + tuple(_guards(xp_vars + [y])), tag=tag))
    return rules


# -------------------------------------------------------------- grounding

def ground(prog: LogicProgram) -> tuple[GroundRule, ...]:
    """Ground instantiations of the decision-layer rules, with builtins
    and fact-determined literals pre-evaluated away."""
    uni = sorted(active_domain(Instance(
        {a for a in prog.facts if a.pred != "dom"}, prog.schema)) | {NULL})
    out: list[GroundRule] = []
    seen: set[GroundRule] = set()
    for r in prog.rules:
        if r.derived:
            continue
        vs = sorted({v for lit in (*r.head, *r.body)
                     for v in (term_vars(lit.terms))})
        for combo in product(uni, repeat=len(vs)):
            s = dict(zip(vs, combo))
            g = _ground_rule(r, s, prog.facts)
            if g is not None and g not in seen:
                seen.add(g)
                out.append(g)
    return tuple(out)


def _val(t, s) -> str:
    return t.value if isinstance(t, Cst) else s[t.name]


def _ground_rule(r: Rule, s: Mapping[str, str],
                 facts: frozenset[Atom]) -> GroundRule | None:
    pos: list[Atom] = []
    neg: list[Atom] = []
    for item in r.body:
        if isinstance(item, Builtin):
            if not eval_builtin(item, s, classical=True):
                return None
            continue
        args = tuple(_val(t, s) for t in item.terms)
        base = Atom(item.pred, args)
        if item.ann in (TS, FS):
            is_fact = base in facts
            if item.ann == TS:
                if is_fact:
                    continue
                pos.append(_nick(item.pred, args, TA))
            else:
                if not is_fact:
                    continue
                pos.append(_nick(item.pred, args, FA))
        elif item.ann in (TA, FA):
            (neg if item.neg else pos).append(_nick(item.pred, args,
                                                    item.ann))
        else:  # plain / dom / aux / marker
            if item.pred.startswith("aux"):
                (neg if item.neg else pos).append(base)
                continue
            holds = base in facts
            if item.neg:
                if holds:
                    return None
            else:
                if not holds:
                    return None
    head = tuple(
        _nick(h.pred, args, h.ann) if h.ann is not None else Atom(h.pred, args)
        for h in r.head
        for args in (tuple(_val(t, s) for t in h.terms),))
    return GroundRule(head, tuple(pos), tuple(neg))


# ---------------------------------------------------------- stable models

def stable_models(rules: Iterable[GroundRule],
                  cap: int = DEFAULT_CAP) -> tuple[frozenset[Atom], ...]:
    """Exhaustive enumeration over the derivable atoms, checking each
    candidate to be a minimal model of its reduct that passes every
    program constraint."""
    rules = tuple(rules)
    # least fixpoint of derivability ignoring negation: anything outside
    # it is false in every stable model
    derivable: set[Atom] = set()
    changed = True
    while changed:
        changed = False
        for r in rules:
            if set(r.pos) <= derivable and \
                    not set(r.head) <= derivable:
                derivable |= set(r.head)
                changed = True
    # literals over underivable atoms are decided now
    trimmed: list[GroundRule] = []
    for r in rules:
        if any(a not in derivable for a in r.pos):
            continue
        neg = tuple(a for a in r.neg if a in derivable)
        trimmed.append(GroundRule(r.head, r.pos, neg))
    atoms = sorted(derivable)
    if 2 ** len(atoms) > cap:
        raise CapExceeded(cap, 2 ** len(atoms))
    models: list[frozenset[Atom]] = []
    for mask in range(2 ** len(atoms)):
        m = frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
        if _is_stable(trimmed, m):
            models.append(m)
    return tuple(sorted(models, key=lambda m: (len(m), sorted(m))))


def _reduct(rules, m):
    return [r for r in rules if not (set(r.neg) & m)]


def _satisfies(rules, m: frozenset[Atom]) -> bool:
    for r in rules:
        if set(r.pos) <= m and not (set(r.head) & m):
            return False
    return True


def _is_stable(rules, m: frozenset[Atom]) -> bool:
    red = _reduct(rules, m)
    if not _satisfies(red, m):
        return False
    elems = sorted(m)
    for mask in range(2 ** len(elems) - 1):
        sub = frozenset(a for i, a in enumerate(elems) if mask >> i & 1)
        if _satisfies(red, sub):
            return False
    return True


# ------------------------------------------------------------- extraction

def _extract_neighborhood(prog: LogicProgram,
                          m: frozenset[Atom]) -> Instance:
    """The neighborhood instance a stable model assigns: the facts it
    does not delete plus the atoms it inserts."""
    atoms = set()
    for a in prog.facts:
        if a.pred == "dom" or a.pred.startswith(INC_PREFIX):
            continue
        if _nick(a.pred, a.args, FA) not in m:
            atoms.add(a)
    for a in m:
        if a.pred.endswith("_") and a.args[-1] == TA:
            atoms.add(Atom(a.pred[:-1], a.args[:-1]))
    return Instance(atoms, prog.schema)


def extract_instance(prog: LogicProgram, m: frozenset[Atom]) -> Instance:
    """The database instance a stable model assigns to the peer: its own
    atoms that were or became true and were not deleted."""
    return restrict(_extract_neighborhood(prog, m), prog.own_preds)


def asp_solutions(system: PdesSchema, p: str, dbar: Instance,
                  cap: int = DEFAULT_CAP) -> tuple[Instance, ...]:
    """p's local solver through the stable models of its program. The
    program alone may keep non-minimal candidates (with ref-cycles, or
    when a deletion re-opens an existential obligation), so extractions
    strictly farther from dbar than another are dropped before the rest
    are restricted to p's schema."""
    prog = build_solution_program(system, p, dbar)
    full: dict[frozenset[Atom], Instance] = {}
    for m in stable_models(ground(prog), cap=cap):
        inst = _extract_neighborhood(prog, m)
        full.setdefault(inst.atoms, inst)
    split = split_sigma(system.sigma_of(p))
    bound = r_chase(dbar, split).atoms
    kept: dict[frozenset[Atom], Instance] = {}
    for d in _minimal(list(full.values()), lambda d: d,
                      lambda e, d: closer_lt(e, d, dbar, split, bound)):
        inst = restrict(d, prog.own_preds)
        kept.setdefault(inst.atoms, inst)
    return tuple(sorted(kept.values(),
                        key=lambda i: sorted(map(str, i.atoms))))


def pca_via_asp(system: PdesSchema, p: str, d: PdesInstance, q: Query,
                cap: int = DEFAULT_CAP) -> PcaResult:
    """Certain answers over p's solutions, every peer p reaches solved
    through its own solution program."""
    return _certain_answers(system, p, d, q, asp_solutions, cap)


# ----------------------------------------------------------------- emitter

def _emit_term(t) -> str:
    if isinstance(t, Var):
        return t.name.upper()
    return t.value.lower()


def _emit_lit(lit: Lit | Builtin) -> str:
    if isinstance(lit, Builtin):
        from .lang import OP_TEXT
        if len(lit.terms) == 1:
            return "%s(%s)" % (lit.op, _emit_term(lit.terms[0]))
        lhs, rhs = (_emit_term(t) for t in lit.terms)
        return "%s %s %s" % (lhs, OP_TEXT[lit.op], rhs)
    args = [_emit_term(t) for t in lit.terms]
    if lit.ann is not None:
        args.append(lit.ann)
    txt = "%s(%s)" % (lit.pred.lower(), ",".join(args)) if args \
        else lit.pred.lower()
    return "not " + txt if lit.neg else txt


def emit_text(prog: LogicProgram) -> str:
    """Deterministic solver-ready text: facts first, then rules in
    generation order; `|` disjunction, `:-` arrows, `not` negation."""
    lines = []
    for a in sorted(prog.facts, key=lambda a: (a.pred, a.args)):
        if a.args:
            lines.append("%s(%s)." % (a.pred.lower(),
                                      ",".join(c.lower() for c in a.args)))
        else:
            lines.append("%s." % a.pred.lower())
    for r in prog.rules:
        head = " | ".join(_emit_lit(h) for h in r.head)
        body = ", ".join(_emit_lit(b) for b in r.body)
        if not r.head:
            lines.append(":- %s." % body)
        elif not r.body:
            lines.append("%s." % head)
        else:
            lines.append("%s :- %s." % (head, body))
    return "\n".join(lines) + "\n"
