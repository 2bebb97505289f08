"""Reference routes that the tests check `pdes` against. No product
route calls them; each decides the same question a second way.

- Null semantics: `n_holds_direct` evaluates a constraint directly, with
  its relevant variables restricted away from null, against
  `nullsem.n_holds`, which evaluates the rewritten constraint
  classically. `n_rewrite_query` and `sql_safe` are the same rewriting
  for queries, against `nullsem.n_answers`.
- The body join and the check: `naive_join` joins by nested loops over
  each predicate's sorted atoms, with no index, against `nullsem.join`;
  `holds_by_enumeration` tries every witness of the working universe,
  with no join, against `nullsem.holds_instantiation`.
- The one order: `reference_order` sorts assignments by their ground
  atoms' `atom_sort_key`s, then by their values of the variables that
  range over the sorted universe, against `nullsem.in_order`.
- Delta repairs: `exhaustive_delta_repairs` grounds each constraint over
  the Herbrand base by brute force and checks every subset of it
  classically, with no move and no closure, against
  `repair.delta_repairs`.
- The import fixpoint: `least_model_by_checks` ranks every import
  head, with or without existentials, and adds it only where
  `nullsem.holds_instantiation` finds its instantiation violated,
  against `system.least_model`, which adds a head without existentials
  unless it `nullsem.escapes`.
- Solution programs: `reference_ground` grounds every rule over the
  whole universe, and `reference_stable_models` tries every subset of
  the derivable atoms with an all-subsets minimality check, against
  `asp.ground` and `asp.stable_models`. `extract_instance` reads a peer's
  instance off a stable model.
- The command line: `reference_parser` reads the same grammar with
  argparse, abbreviations of options refused, against `cli._parse_args`.

The exhaustive null-repair oracle stays in `pdes.repair`
(`exhaustive_null_repairs`, with `nullsem.n_holds` and
`lang.n_rewrite_constraint` that it calls), since the benchmark's own
checks import it from there.
"""

import argparse
from itertools import combinations, product

from pdes.asp import GroundRule, _extract_neighborhood, _ground_rule
from pdes.core import (DEFAULT_CAP, NULL, Atom, Instance, atom_sort_key,
                       restrict)
from pdes.lang import Builtin, Cst, Var, relevant_vars, term_vars
from pdes.nullsem import (_universe, eval_builtin, ground_atom,
                          holds_instantiation, instantiations,
                          working_universe)
from pdes.repair import NULL_BASED


# ------------------------------------------------------------ null semantics

def n_holds_direct(d, c) -> bool:
    """Null-semantics satisfaction by direct evaluation of the
    unrewritten constraint, with relevant-variable quantifier
    restriction."""
    return all(holds_instantiation(d, c, s, classical=False)
               for s in instantiations(d, c, _universe(d, c)))


def _match(terms, args, s):
    """s extended so that terms read args, or None when it cannot be."""
    t = dict(s)
    for term, v in zip(terms, args):
        if isinstance(term, Cst):
            if term.value != v:
                return None
        elif t.setdefault(term.name, v) != v:
            return None
    return t


def naive_join(d, atoms, *starts):
    """`nullsem.join` by nested loops: each start, extended through the
    atoms in turn, each scanning its predicate's atoms of d in
    `atom_sort_key` order."""
    def extend(s, rest):
        if not rest:
            yield s
            return
        facts = sorted((f for f in d.atoms if f.pred == rest[0].pred),
                       key=atom_sort_key)
        for f in facts:
            t = _match(rest[0].terms, f.args, s)
            if t is not None:
                yield from extend(t, rest[1:])

    return [t for s in starts for t in extend(s, tuple(atoms))]


def reference_order(assignments, atoms, tail=()):
    """`nullsem.in_order` by its definition: the order of a join over
    sorted atoms, extended over the sorted universe. The assignments are
    sorted by the `atom_sort_key` of each of atoms grounded, then by the
    values of tail's variables."""
    return sorted(assignments, key=lambda s: (
        [atom_sort_key(ground_atom(a, s)) for a in atoms],
        [s[v] for v in tail]))


def holds_by_enumeration(d, c, s, classical) -> bool:
    """`nullsem.holds_instantiation` by brute force: a relevant universal
    null satisfies vacuously (null semantics); otherwise some disjunct
    holds for some choice of its existentials over the working universe
    of (d, c), relevant ones not null, its ground atoms in d and its
    builtins true."""
    rel = frozenset() if classical else c.relevant
    if any(s[v] == NULL for v in c.univ_vars if v in rel):
        return True
    universe = working_universe(d, c)
    for disj in c.head:
        for combo in product(universe, repeat=len(disj.exist_vars)):
            full = {**s, **dict(zip(disj.exist_vars, combo))}
            if any(full[v] == NULL for v in disj.exist_vars if v in rel):
                continue
            if all(ground_atom(a, full) in d for a in disj.atoms) and all(
                    eval_builtin(b, full, classical) for b in disj.builtins):
                return True
    return False


def n_rewrite_query(q):
    """Append v != null for every relevant variable of the query, in
    declaration order (free variables first)."""
    rel = relevant_vars(q)
    extra = tuple(Builtin("neq", (Var(v), Cst(NULL)))
                  for v in dict.fromkeys(q.free_vars + q.exist_vars)
                  if v in rel)
    return q._replace(builtins=q.builtins + extra)


def sql_safe(q) -> bool:
    """False when some conjunct of q compares a term with null directly."""
    return not any(b.op in ("eq", "neq") and Cst(NULL) in b.terms
                   for b in q.builtins)


# ------------------------------------------------------------ delta repairs

def exhaustive_delta_repairs(base, sigma, frozen_preds=()):
    """The atom sets of the repairs of base under the delta preorder, by
    enumeration over the Herbrand base of base's working universe: every
    subset of its atoms of predicates not frozen, beside base's atoms of
    the frozen ones, that satisfies sigma classically (null an ordinary
    value) and whose symmetric difference with base holds no other's
    strictly. Each constraint is grounded once, every variable over the
    universe, into its body and its witnesses (the atoms of a head
    disjunct grounded where its builtins hold), as bit masks over the
    Herbrand base. Differences are tried by size, and one that holds a
    kept difference is not checked. No move and no closure is read;
    exponential, for cross-checking only."""
    universe = working_universe(base, *sigma)
    herbrand = [Atom(p, args) for p, n in sorted(base.schema.arities.items())
                for args in product(universe, repeat=n)]
    bit = {a: 1 << i for i, a in enumerate(herbrand)}

    def mask(atoms):
        return sum(bit[a] for a in set(atoms))

    grounded = []
    for c in sigma:
        for combo in product(universe, repeat=len(c.univ_vars)):
            s = dict(zip(c.univ_vars, combo))
            fulls = ((disj, {**s, **dict(zip(disj.exist_vars, e))})
                     for disj in c.head
                     for e in product(universe, repeat=len(disj.exist_vars)))
            grounded.append((mask(ground_atom(a, s) for a in c.body), [
                mask(ground_atom(a, full) for a in disj.atoms)
                for disj, full in fulls
                if all(eval_builtin(b, full, True) for b in disj.builtins)]))
    start = mask(base.atoms)
    free = [i for i, a in enumerate(herbrand) if a.pred not in frozen_preds]
    kept, found = [], set()
    for size in range(len(free) + 1):
        for flips in combinations(free, size):
            delta = sum(1 << i for i in flips)
            if any(k & delta == k for k in kept):
                continue
            m = start ^ delta
            if all(body & ~m or any(not w & ~m for w in witnesses)
                   for body, witnesses in grounded):
                kept.append(delta)
                found.add(frozenset(a for a in herbrand if bit[a] & m))
    return found


# -------------------------------------------------------- the import fixpoint

def least_model_by_checks(system, p, dbar):
    """`system.least_model` with a witness check for every head: each
    binding of each import body (`naive_join`) ranks its head atom,
    existentials null, by its nulls, heads without existentials first
    (-1); each rank in turn adds the heads whose instantiation does not
    hold over the atoms so far."""
    classical = system.preorder != NULL_BASED
    ranked = {}
    for c in system.live_sigma(p, dbar):
        target = next(d for d in c.head if d.atoms)
        nulls = dict.fromkeys(target.exist_vars, NULL)
        for s in naive_join(dbar, c.body, {}):
            a = ground_atom(target.atoms[0], {**s, **nulls})
            ranked.setdefault(a.args.count(NULL) if nulls else -1,
                              []).append((c, s, a))
    atoms = dbar.atoms
    for rank in sorted(ranked):
        cur = Instance(atoms, dbar.schema)
        atoms = atoms.union(a for c, s, a in ranked[rank]
                            if not holds_instantiation(cur, c, s, classical))
    return Instance(atoms, dbar.schema)


# --------------------------------------------------------- solution programs

def extract_instance(prog, m, preds):
    """The instance a stable model m of prog assigns to the peer that owns
    preds: its atoms that were or became true and were not deleted."""
    return restrict(_extract_neighborhood(prog, m), preds)


# The product grounder, the derivability trim, the 2^|atoms| mask loop and
# the all-subsets minimality check, kept as oracles for ground and
# stable_models.

def reference_ground(prog):
    uni = sorted({c for a in prog.facts for c in a.args} | {NULL}
                 | {t.value for r in prog.rules for item in (*r.head, *r.body)
                    for t in item.terms if isinstance(t, Cst)})
    out = {}
    for r in prog.rules:
        if r.derived:
            continue
        vs = sorted({v for lit in (*r.head, *r.body)
                     for v in term_vars(lit.terms)})
        for combo in product(uni, repeat=len(vs)):
            g = _ground_rule(r, dict(zip(vs, combo)), prog.facts)
            if g is not None:
                out.setdefault(g)
    return tuple(out)


def _satisfies(rules, m):
    return all(not set(r.pos) <= m or set(r.head) & m for r in rules)


def _is_stable(rules, m):
    red = [r for r in rules if not set(r.neg) & m]
    if not _satisfies(red, m):
        return False
    elems = sorted(m)
    return not any(
        _satisfies(red, frozenset(a for i, a in enumerate(elems)
                                  if mask >> i & 1))
        for mask in range(2 ** len(elems) - 1))


def derivable_atoms(rules):
    derivable, changed = set(), True
    while changed:
        changed = False
        for r in rules:
            if set(r.pos) <= derivable and not set(r.head) <= derivable:
                derivable |= set(r.head)
                changed = True
    return derivable


def reference_stable_models(rules):
    derivable = derivable_atoms(rules)
    trimmed = [GroundRule(r.head, r.pos,
                          tuple(a for a in r.neg if a in derivable))
               for r in rules if set(r.pos) <= derivable]
    atoms = sorted(derivable)
    subsets = (frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)
               for mask in range(2 ** len(atoms)))
    return {m for m in subsets if _is_stable(trimmed, m)}


# ------------------------------------------------------------- command line

def reference_parser() -> argparse.ArgumentParser:
    """The command line's grammar as argparse reads it, each option
    spelt out in full. parse_args leaves the parser as it was."""
    ap = argparse.ArgumentParser(
        prog="pdes", allow_abbrev=False,
        description="Peer data exchange systems with trust and nulls.")
    ap.add_argument("--cap", type=int, default=None,
                    help="candidate cap (default: PDES_CAP or %d)"
                    % DEFAULT_CAP)
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, help, peer=True, query=False):
        sp = sub.add_parser(name, help=help, allow_abbrev=False)
        if name == "asp":
            sp.add_argument("asp_action", choices=("emit", "solve"))
        sp.add_argument("file", help="definition file")
        sp.add_argument("--format", choices=("text", "json"),
                        default="text")
        if peer:
            sp.add_argument("--peer", required=True)
        if query:
            sp.add_argument("--query", default=None)

    add("check", "parse and report", peer=False)
    add("chase", "restricted chase of a peer's neighborhood instance")
    add("repairs", "repairs wrt local constraints")
    add("ns", "neighborhood solutions")
    add("solutions", "solution instances")
    add("core", "intersection of solutions")
    add("pca", "peer-consistent answers", query=True)
    add("import-solve", "import-case solver")
    add("asp", "solution programs")
    return ap
