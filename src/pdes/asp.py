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
``ta``/``fa``/aux atoms. It joins rule bodies against the facts and the
atoms derived so far, so only rules that can fire are grounded. Both are
kept as one instance, read through the semi-naive body join
(`nullsem.delta_join`) that also serves the checks, the chase, the
repair search and the import fixpoint.

Stable models are found per component. The ground program splits into
atom sets that no rule links; its stable models are the products of
theirs (the splitting-set theorem; Lifschitz & Turner, ICLP 1994). Each
component is searched alone by backtracking over its head atoms, and a
branch ends once a true atom has no rule left that can support it: in
a stable model every true atom is the one true head atom of a rule
whose body holds (Gebser, Kaufmann & Schaub, IJCAI 2007). Each
supported model the search reaches is checked by a search for a smaller
model of the component's reduct. The candidate cap bounds the searches,
the product of two components or more (`Budget.choices`), and the
grounding products of variables no body atom binds.

The ``!= null`` guards encode the null semantics, so only systems under
the null-based preorder get a program. ``asp_solutions`` reads each
stable model's neighborhood instance, drops those strictly farther from
dbar under the closeness preorder than another, and restricts the rest
to the peer's schema. ``asp_parts`` hands that list to the one peer
recursion (``system._factored``) as one part, so ``pca_via_asp`` solves
every peer it reaches through that peer's own program.
"""

from __future__ import annotations

import re
from collections import defaultdict
from itertools import product
from typing import Iterable, Mapping, NamedTuple

from .core import (NULL, Atom, Budget, Instance, Partition, Schema,
                   SchemaError)
from .lang import (OP_TEXT, Builtin, Constraint, Cst, PredAtom, Query, Var,
                   ref_acyclic, term_vars)
from .nullsem import delta_join, eval_builtin, ground_atom, in_order
from .repair import (NULL_BASED, RepairSet, _minimal, closeness_profile,
                     closer_lt)
from .chase import r_chase
from .system import (PdesInstance, PdesSchema, PcaResult, _certain_answers,
                     solution_form)

TA, FA, TS, FS, TSS = "ta", "fa", "ts", "fs", "tss"

_FLIP = {"eq": "neq", "neq": "eq", "lt": "geq", "geq": "lt",
         "leq": "gt", "gt": "leq", "isnull": "isnotnull",
         "isnotnull": "isnull"}


class Lit(NamedTuple):
    """A (possibly negated) program atom: annotated nickname when ``ann``
    is set, plain database/dom/aux atom otherwise."""

    pred: str
    terms: tuple
    ann: str | None = None
    neg: bool = False


class Rule(NamedTuple):
    head: tuple[Lit, ...]
    body: tuple[Lit | Builtin, ...]
    derived: bool = False  # definitional layer, resolved lazily


class LogicProgram(NamedTuple):
    facts: frozenset[Atom]
    rules: tuple[Rule, ...]
    schema: Schema
    warnings: tuple[str, ...] = ()


class GroundRule(NamedTuple):
    head: tuple[Atom, ...]
    pos: tuple[Atom, ...]
    neg: tuple[Atom, ...]


def _nick(a: Atom, ann: str) -> Atom:
    return Atom(a.pred + "_", a.args + (ann,))


def _simple_rdec(c: Constraint) -> bool:
    return (len(c.body) == 1 and len(c.head) == 1
            and len(c.head[0].atoms) == 1 and not c.head[0].builtins
            and c.anchored and not c.problematic)


def _guards(vars_: Iterable[str]) -> list[Builtin]:
    return [Builtin("neq", (Var(v), Cst(NULL))) for v in vars_]


def build_solution_program(system: PdesSchema, p: str,
                           dbar: Instance) -> LogicProgram:
    """The solution program for p over an instance of p's neighborhood
    schema whose restriction to p's schema is p's local data, over the
    constraints that `PdesSchema.live_sigma` keeps. Its ``!= null``
    guards encode the null-based preorder, so delta systems are refused."""
    system._check_peer(p)
    if system.preorder != NULL_BASED:
        raise SchemaError("solution programs encode the null-based "
                          "preorder, not preorder %s" % system.preorder)
    changeable = {r for q in system.neighbors(p)
                  for r in system.schemas[q].preds()} - system.frozen_preds(p)
    warnings: list[str] = []
    sigma = system.live_sigma(p, dbar)
    ok, witness = ref_acyclic(sigma)
    if not ok:
        warnings.append(
            "constraints are not ref-acyclic (cycle through %s); stable "
            "models may include non-minimal candidates" %
            " -> ".join(witness))
    rules: list[Rule] = []
    aux_n = 0
    for c in sigma:
        if c.is_existential:
            if not _simple_rdec(c):
                raise SchemaError(
                    "existential constraint %s is not of the supported "
                    "single-atom form" % c)
            aux_n += 1
            rules += _rdec_rules(c, changeable, "aux%d" % aux_n)
        else:
            rules.append(_udec_rule(c, changeable))
    for r in sorted(changeable):
        arity = dbar.schema.arity(r)
        xs = tuple(Var("x%d" % i) for i in range(1, arity + 1))
        rules.append(Rule((Lit(r, xs, FS),),
                          tuple(Lit("dom", (x,)) for x in xs)
                          + (Lit(r, xs, neg=True),), derived=True))
        rules.append(Rule((Lit(r, xs, FS),), (Lit(r, xs, FA),), derived=True))
        rules.append(Rule((Lit(r, xs, TS),), (Lit(r, xs),), derived=True))
        rules.append(Rule((Lit(r, xs, TS),), (Lit(r, xs, TA),), derived=True))
        rules.append(Rule((), (Lit(r, xs, TA), Lit(r, xs, FA))))
    for r in sorted(system.schemas[p].preds()):
        arity = system.schemas[p].arity(r)
        xs = tuple(Var("x%d" % i) for i in range(1, arity + 1))
        rules.append(Rule((Lit(r, xs, TSS),),
                          (Lit(r, xs, TS), Lit(r, xs, FA, neg=True)),
                          derived=True))
    facts = set(dbar.atoms)
    facts |= {Atom("dom", (c,)) for c in dbar.domain | {NULL}}
    return LogicProgram(frozenset(facts), tuple(rules), dbar.schema,
                        tuple(warnings))


def _body_lit(a: PredAtom, changeable: frozenset[str], ann: str) -> Lit:
    """t*/f* body literal; unchanging predicates reduce to plain lookups."""
    if a.pred in changeable:
        return Lit(a.pred, a.terms, ann)
    return Lit(a.pred, a.terms, neg=(ann == FS))


def _udec_rule(c: Constraint, changeable: frozenset[str]) -> Rule:
    for d in c.head:
        if len(d.atoms) > 1:
            raise SchemaError(
                "universal constraint %s has a conjunctive consequent "
                "disjunct, unsupported by the program generator" % c)
    head: list[Lit] = []
    for a in c.body:
        if a.pred in changeable:
            head.append(Lit(a.pred, a.terms, FA))
    body: list[Lit | Builtin] = [
        _body_lit(a, changeable, TS) for a in c.body]
    for d in c.head:
        for a in d.atoms:
            if a.pred in changeable:
                head.append(Lit(a.pred, a.terms, TA))
            body.append(_body_lit(a, changeable, FS))
        for b in d.builtins:
            if b.op == "false":
                continue  # negation of false always holds
            body.append(Builtin(_FLIP[b.op], b.terms))
    body += _guards(v for v in c.univ_vars if v in c.relevant)
    return Rule(tuple(head), tuple(body))


def _rdec_rules(c: Constraint, changeable: frozenset[str],
                aux: str) -> list[Rule]:
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
        Lit(aux, xprime, neg=True), *_guards(xp_vars))
    head: list[Lit] = []
    if body_atom.pred in changeable:
        head.append(Lit(body_atom.pred, body_atom.terms, FA))
    if target.pred in changeable:
        head.append(Lit(target.pred, null_head, TA))
    rules = [Rule(tuple(head), main_body)]
    qpred = target.pred
    # aux holds when the consequent is already witnessed and kept
    neg_fa = [] if qpred not in changeable else \
        [Lit(qpred, null_head, FA, neg=True)]
    rules.append(Rule((Lit(aux, xprime),),
                      (Lit(qpred, null_head),) + tuple(neg_fa)
                      + tuple(_guards(xp_vars))))
    for y in disj.exist_vars:
        neg_fa2 = [] if qpred not in changeable else \
            [Lit(qpred, target.terms, FA, neg=True)]
        rules.append(Rule(
            (Lit(aux, xprime),),
            (_body_lit(target, changeable, TS),) + tuple(neg_fa2)
            + tuple(_guards(xp_vars + [y]))))
    return rules


# -------------------------------------------------------------- grounding

def _row(pred: str, ann: str | None) -> str:
    # the grounder's predicate for (pred, ann); a parsed name has no space
    return pred if ann is None else "%s %s" % (pred, ann)


def ground(prog: LogicProgram) -> tuple[GroundRule, ...]:
    """The ground instantiations of the decision-layer rules whose
    positive atoms are derivable, with builtins and fact-determined
    literals pre-evaluated away. Positive body literals are joined, to a
    fixpoint, against the facts (``ts`` and plain literals) and the head
    atoms grounded so far (``ts``, ``ta``, ``fa`` and aux literals),
    kept as the atoms of one row predicate per (predicate, annotation).

    The join is semi-naive (`nullsem.delta_join`): each round joins only
    the bindings that use a row the previous round derived, so every
    binding is found once. A rule's bindings come in groups, those joined
    from one body position, each put in `nullsem.in_order`, so the rules
    come out in one order, which the stable-model search's charges read.
    A rule ground before all its positive atoms are derived (an ``fs``
    literal over a fact reads an ``fa`` atom that no join supplies) waits
    for the atom it lacks. A variable that no
    positive literal binds ranges over the facts' active domain, null and
    the constants of the rules; that product is charged to the candidate
    cap once per binding."""
    uni = sorted({c for a in prog.facts for c in a.args} | {NULL}
                 | {t.value for r in prog.rules for item in (*r.head, *r.body)
                    for t in item.terms if isinstance(t, Cst)})
    rules = [(r, tuple([PredAtom(_row(b.pred, b.ann), b.terms) for b in r.body
                        if isinstance(b, Lit) and not b.neg and b.ann != FS]),
              sorted({v for item in (*r.head, *r.body)
                      for v in term_vars(item.terms)}))
             for r in prog.rules if not r.derived]
    # one row predicate per (pred, ann) that some rule reads
    schema = Schema({a.pred: len(a.terms) for _, lits, _ in rules
                     for a in lits})
    budget = Budget()
    out: dict[GroundRule, None] = {}  # in grounding order
    derived: set[Atom] = set()
    waiting: dict[Atom, list] = defaultdict(list)

    def settle(r: Rule, g: GroundRule, fresh) -> None:
        """Emit g, and every waiting rule its heads complete, or hold it
        back until its first underived positive atom is derived."""
        pending = [(r, g)]
        while pending:
            r, g = pending.pop()
            if g in out:
                continue
            lack = next((a for a in g.pos if a not in derived), None)
            if lack is not None:
                waiting[lack].append((r, g))
                continue
            out[g] = None
            for h, a in zip(r.head, g.head):
                if a not in derived:
                    derived.add(a)
                    args = a.args if h.ann is None else a.args[:-1]
                    fresh.add(Atom(_row(h.pred, h.ann), args))
                    if h.ann == TA:
                        fresh.add(Atom(_row(h.pred, TS), args))
                    pending += waiting.pop(a, ())

    fresh = {Atom(_row(a.pred, ann), a.args)
             for a in prog.facts for ann in (None, TS)}
    every = Instance._trusted(frozenset(), schema)
    first = True
    while True:
        # the rows the last round found that a rule reads and none joined,
        # each a checked fact or a ground head of a rule that fits: unchecked
        new = Instance._trusted(frozenset(
            a for a in fresh if a.pred in schema) - every.atoms, schema)
        if not (new or first):
            return tuple(out)
        every = Instance._trusted(every.atoms | new.atoms, schema)
        fresh = set()
        for r, lits, vs in rules:
            # a rule with no positive literal binds once, in the first round
            groups = delta_join(every, lits, new) if lits else \
                [((), [{}])] if first else []
            for order, binds in groups:
                for s in in_order(binds, order):
                    free = [v for v in vs if v not in s]
                    if free:
                        budget.charge(len(uni) ** len(free))
                    for combo in product(uni, repeat=len(free)):
                        g = _ground_rule(r, {**s, **dict(zip(free, combo))},
                                         prog.facts)
                        if g is not None:
                            settle(r, g, fresh)
        first = False


def _ground_rule(r: Rule, s: Mapping[str, str],
                 facts: frozenset[Atom]) -> GroundRule | None:
    pos: list[Atom] = []
    neg: list[Atom] = []
    for item in r.body:
        if isinstance(item, Builtin):
            if not eval_builtin(item, s, classical=True):
                return None
            continue
        base = ground_atom(item, s)
        if item.ann in (TS, FS):
            is_fact = base in facts
            if item.ann == TS:
                if is_fact:
                    continue
                pos.append(_nick(base, TA))
            else:
                if not is_fact:
                    continue
                pos.append(_nick(base, FA))
        elif item.ann in (TA, FA):
            (neg if item.neg else pos).append(_nick(base, item.ann))
        else:  # plain / dom / aux
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
    head = tuple(a if h.ann is None else _nick(a, h.ann)
                 for h in r.head for a in (ground_atom(h, s),))
    return GroundRule(head, tuple(pos), tuple(neg))


# ---------------------------------------------------------- stable models

def stable_models(
        rules: Iterable[GroundRule]) -> tuple[frozenset[Atom], ...]:
    """The stable models: each component's models in search order, the
    components taken by their least atom and multiplied out.

    Split. An atom is live when some rule whose positive atoms are all
    live has it in its head (the least such set); every stable model
    lies inside it, so a rule with a dead positive atom never fires and
    a dead negated atom is always false. Atoms that share a live rule
    are joined into components. Components share no atom, so the reduct
    by a model, its models and its minimal models all split by component
    (the splitting-set theorem; Lifschitz & Turner, ICLP 1994): the
    stable models are the products of the components' stable models.

    Support. In a stable model M every true atom a is the only true head
    atom of some rule whose body holds in M; else M minus a would still
    be a model of the reduct. Each component's search decides its atoms
    in sorted order and drops an assignment once a rule with all its
    atoms decided is broken, or once a true atom has no rule left that
    can support it (Gebser, Kaufmann & Schaub, IJCAI 2007). A leaf is
    thus a supported model, kept when no smaller model of the
    component's reduct lies inside it. Every search node, here and in
    those minimality checks, is charged to the cap, and so is the product of
    two components or more, before it is built."""
    rules = tuple(rules)
    live: set[Atom] = set()
    size = -1
    while size < len(live):
        size = len(live)
        live.update(a for r in rules if live.issuperset(r.pos)
                    for a in r.head)
    prog = [GroundRule(r.head, r.pos, tuple(a for a in r.neg if a in live))
            for r in rules if live.issuperset(r.pos)]
    if not all(r.head or r.pos or r.neg for r in prog):
        return ()  # a constraint whose body always holds
    part = Partition()
    for r in prog:
        part.union((*r.head, *r.pos, *r.neg))
    comps: dict[Atom, list[GroundRule]] = defaultdict(list)
    for r in prog:
        comps[part.find((*r.head, *r.pos, *r.neg)[0])].append(r)
    budget = Budget()
    return tuple(budget.choices(
        [_component_models(rs, budget) for _, rs in sorted(comps.items())]))


def _component_models(rules: list[GroundRule],
                      budget: Budget) -> list[frozenset[Atom]]:
    """The stable models of one component, every atom of which is in a
    head of its rules, by the supported search of `stable_models`."""
    atoms = sorted({a for r in rules for a in r.head})
    at = {a: i for i, a in enumerate(atoms)}
    n = len(atoms)
    # checks[d]: the rules, as atom indices, decided once d atoms are
    checks: list[list] = [[] for _ in range(n + 1)]
    # support[i]: the rules with atom i in their head
    support: list[list] = [[] for _ in range(n)]
    # recheck[v][i]: the atoms below i whose support may end when i is v
    recheck: list[list] = [[set() for _ in range(n)] for _ in (False, True)]
    for r in rules:
        pos, neg, head = ([at[a] for a in r.pos], [at[a] for a in r.neg],
                          [at[a] for a in r.head])
        lits = (pos, neg, head)
        checks[max(pos + neg + head) + 1].append(lits)
        for h in head:
            support[h].append(lits)
        for v, enders in ((False, pos), (True, neg + head)):
            for i in enders:
                recheck[v][i].update(h for h in head if h < i)
    recheck = [[sorted(hs) for hs in row] for row in recheck]
    val = [False] * n

    def holds(d: int) -> bool:
        # atoms below d are decided; the last of them was just set
        i = d - 1
        if any(all(val[j] for j in pos) and not any(val[j] for j in neg)
               and not any(val[j] for j in head)
               for pos, neg, head in checks[d]):
            return False
        return all(not val[a] or any(
            all(j >= d or val[j] for j in pos)
            and not any(j < d and val[j] for j in neg)
            and not any(j != a and j < d and val[j] for j in head)
            for pos, neg, head in support[a])
            for a in ([i] if val[i] else []) + recheck[val[i]][i])

    models: list[frozenset[Atom]] = []
    # (atoms decided, value of the last one), pushed only when consistent
    stack = [(0, False)]
    while stack:
        d, v = stack.pop()
        budget.charge()
        if d:
            val[d - 1] = v
        if d == n:
            m = frozenset(a for a, x in zip(atoms, val) if x)
            if not _has_smaller_model(rules, m, budget):
                models.append(m)
            continue
        for v in (True, False):
            val[d] = v
            if holds(d + 1):
                stack.append((d + 1, v))
    return models


def _has_smaller_model(rules: tuple[GroundRule, ...], m: frozenset[Atom],
                       budget: Budget) -> bool:
    """Whether the reduct of rules by the model m has a model strictly
    inside m: chain forward from the empty set and branch on each
    disjunctive head; m is stable iff every branch ends at m."""
    red = [(frozenset(r.pos), m.intersection(r.head)) for r in rules
           if m.issuperset(r.pos) and m.isdisjoint(r.neg)]
    stack = [frozenset()]
    while stack:
        budget.charge()
        n, grew = set(stack.pop()), True
        while grew:
            grew, branch = False, None
            for pos, head in red:
                if pos <= n and n.isdisjoint(head):
                    if len(head) == 1:
                        n |= head
                        grew = True
                    elif branch is None:
                        branch = head
        if branch is None:
            if len(n) < len(m):
                return True
        else:
            stack += [frozenset(n | {a}) for a in sorted(branch)]
    return False


# ------------------------------------------------------------- extraction

def _extract_neighborhood(prog: LogicProgram,
                          m: frozenset[Atom]) -> Instance:
    """The neighborhood instance a stable model assigns: the facts it
    does not delete plus the atoms it inserts."""
    atoms = set()
    for a in prog.facts:
        if a.pred != "dom" and _nick(a, FA) not in m:
            atoms.add(a)
    for a in m:
        if a.pred.endswith("_") and a.args[-1] == TA:
            atoms.add(Atom(a.pred[:-1], a.args[:-1]))
    # checked facts, and ground heads of rules over the schema: unchecked
    return Instance._trusted(frozenset(atoms), prog.schema)


def asp_solutions(system: PdesSchema, p: str,
                  dbar: Instance) -> tuple[Instance, ...]:
    """p's local solver through the stable models of its program. The
    program alone may keep non-minimal candidates (with ref-cycles, or
    when a deletion re-opens an existential obligation), so extractions
    strictly farther from dbar than another are dropped before the rest
    are restricted to p's schema. Closeness is bounded by the chase of
    `PdesSchema.live_sigma`, the pool of the general search."""
    prog = build_solution_program(system, p, dbar)
    full: dict[frozenset[Atom], Instance] = {}
    for m in stable_models(ground(prog)):
        inst = _extract_neighborhood(prog, m)
        full.setdefault(inst.atoms, inst)
    bound = r_chase(dbar, system.live_sigma(p, dbar)).atoms
    return solution_form(system, p, _minimal(
        list(full.values()),
        lambda d: closeness_profile(d.atoms, dbar.atoms, bound), closer_lt))


def asp_parts(system: PdesSchema, p: str, dbar: Instance) -> RepairSet:
    """`asp_solutions` as the one part of a factored set: the local
    solver that the peer recursion takes."""
    states = tuple(s.atoms for s in asp_solutions(system, p, dbar))
    return RepairSet(frozenset(), (states,), system.schemas[p], Budget())


def pca_via_asp(system: PdesSchema, p: str, d: PdesInstance,
                q: Query) -> PcaResult:
    """Certain answers over p's solutions, every peer p reaches solved
    through its own solution program."""
    return _certain_answers(system, p, d, q, asp_parts)


# ----------------------------------------------------------------- emitter

_BARE_RE = re.compile(r"[a-z][A-Za-z0-9_]*|0|-?[1-9][0-9]*")


def _emit_const(v: str) -> str:
    """v bare where ASP reads it as itself, a lowercase identifier (not
    the keyword ``not``) or a canonical integer; double-quoted otherwise,
    so that distinct constants stay distinct and none reads as a
    variable or as arithmetic."""
    return v if _BARE_RE.fullmatch(v) and v != "not" else '"%s"' % v


def _emit_term(t) -> str:
    if isinstance(t, Var):
        return t.name.upper()
    return _emit_const(t.value)


def _emit_lit(lit: Lit | Builtin) -> str:
    if isinstance(lit, Builtin):
        if len(lit.terms) == 1:  # isnull / isnotnull: a comparison with null
            lit = Builtin("eq" if lit.op == "isnull" else "neq",
                          (lit.terms[0], Cst(NULL)))
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
    generation order; `|` disjunction, `:-` arrows, `not` negation.
    Predicate names are written in lowercase, so SchemaError when two
    names of the program would be written alike."""
    written: dict[str, str] = {}
    for name in sorted({a.pred for a in prog.facts}
                       | {lit.pred for r in prog.rules
                          for lit in (*r.head, *r.body)
                          if isinstance(lit, Lit)}):
        other = written.setdefault(name.lower(), name)
        if other != name:
            raise SchemaError("predicates %r and %r are both written %s"
                              % (other, name, name.lower()))
    lines = []
    for a in sorted(prog.facts, key=lambda a: (a.pred, a.args)):
        if a.args:
            lines.append("%s(%s)." % (a.pred.lower(),
                                      ",".join(map(_emit_const, a.args))))
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
