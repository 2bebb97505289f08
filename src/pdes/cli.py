"""Command-line front end.

Exit codes: 0 success, 1 semantic refusal (cycles, inconsistent usage,
a bad --query or cap, non-import systems passed to import-solve, systems
or constraints that no solution program encodes), 2 parse error in the
definition file, 3 candidate cap exceeded. The candidate cap comes from
--cap or the PDES_CAP environment variable. The library returns search
order; this module alone orders what it lists, canonically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .asp import (asp_solutions, build_solution_program, emit_text, ground,
                  stable_models)
from .chase import r_chase
from .core import (DEFAULT_CAP, CapExceeded, Instance, SchemaError,
                   atom_sort_key)
from .deffile import Definition, load_definition
from .importmode import (GENERAL, UNRESTRICTED, classify, import_solve,
                         restricted_import_solve)
from .lang import ParseError, parse_query, ref_acyclic
from .repair import preorder_repairs
from .system import (core_instance, inc_atom, neighborhood_solutions,
                     peer_consistent_answers, solution_core, solutions)

EXIT_OK = 0
EXIT_REFUSED = 1
EXIT_PARSE = 2
EXIT_CAP = 3


class Refusal(Exception):
    pass


def _instance_lines(inst: Instance) -> list[str]:
    return [str(a) for a in sorted(inst.atoms, key=atom_sort_key)]


def _closest_first(insts, base: Instance) -> list[list[str]]:
    """Fewest changes against base first, then by the atoms' sort keys."""
    return [_instance_lines(r) for r in sorted(insts, key=lambda r: (
        len(base.atoms ^ r.atoms), sorted(map(atom_sort_key, r.atoms))))]


def _numbered(label: str, groups: list[list[str]]) -> list[str]:
    """`label N:` above each group's lines, indented, N from 1."""
    lines = []
    for i, g in enumerate(groups, 1):
        lines.append("%s %d:" % (label, i))
        lines += ["  " + s for s in g]
    return lines


def _neighborhood_instance(defn: Definition, p: str) -> Instance:
    sysm = defn.system
    atoms = set(defn.instance.of(p).atoms)
    for q in sorted(sysm.strict_neighbors(p)):
        atoms |= defn.instance.of(q).atoms
    return Instance(atoms, sysm.neighborhood_schema(p))


def _emit(payload: dict, text_lines: list[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


# -------------------------------------- subcommands: (payload, text lines)

def _cmd_check(defn: Definition, args, cap: int):
    sysm = defn.system
    flags = classify(sysm)
    lines = ["peers: " + ", ".join(sorted(sysm.peers))]
    edges = ["%s -[%s]-> %s" % (p, t, q) for (p, q, t) in sysm.graph()]
    lines += ["edge: " + e for e in edges]
    ra = {}
    for p in sorted(sysm.peers):
        ok, witness = ref_acyclic(sysm.sigma_of(p))
        ra[p] = ok
        lines.append("ref-acyclic %s: %s" % (p, "yes" if ok else
                                             "no (%s)" % " -> ".join(witness)))
    for p in sorted(sysm.peers):
        lines.append("import-kind %s: %s" % (p, flags[p]))
    return ({"peers": sorted(sysm.peers), "edges": edges, "ref_acyclic": ra,
             "import_kind": flags}, lines)


def _cmd_chase(defn: Definition, args, cap: int):
    dbar = _neighborhood_instance(defn, args.peer)
    lines = _instance_lines(r_chase(dbar, defn.system.sigma_of(args.peer)))
    return {"peer": args.peer, "chase": lines}, lines


def _cmd_repairs(defn: Definition, args, cap: int):
    base = defn.instance.of(args.peer)
    rs = preorder_repairs(defn.system.preorder, base,
                          defn.system.sigma.get((args.peer, args.peer), ()),
                          cap=cap)
    groups = _closest_first(rs.repairs, base)
    return ({"peer": args.peer, "repairs": groups},
            _numbered("repair", groups))


def _cmd_ns(defn: Definition, args, cap: int):
    dbar = _neighborhood_instance(defn, args.peer)
    ns = neighborhood_solutions(defn.system, args.peer, dbar, cap=cap)
    groups = _closest_first(ns, dbar)
    lines = _numbered("neighborhood solution", groups)
    if not groups:
        lines.append("no neighborhood solutions")
    return {"peer": args.peer, "neighborhood_solutions": groups}, lines


def _inconsistent(peer: str, key: str):
    return ({"peer": peer, key: [], "inconsistent": True},
            ["inconsistent: %s" % str(inc_atom(peer))])


def _solution_lines(res):
    if res.inconsistent:
        payload, lines = _inconsistent(res.peer, "solutions")
        return {**payload, "core": []}, lines
    groups = sorted(map(_instance_lines, res.solutions), key=sorted)
    return ({"peer": res.peer, "solutions": groups,
             "core": _instance_lines(res.core), "inconsistent": False},
            _numbered("solution", groups))


def _cmd_solutions(defn: Definition, args, cap: int):
    return _solution_lines(solutions(defn.system, args.peer, defn.instance,
                                     cap=cap))


def _cmd_core(defn: Definition, args, cap: int):
    core = solution_core(defn.system, args.peer, defn.instance, cap=cap)
    if inc_atom(args.peer) in core:
        return _inconsistent(args.peer, "core")
    lines = _instance_lines(core)
    return {"peer": args.peer, "core": lines, "inconsistent": False}, lines


def _get_query(defn: Definition, args):
    if args.query:
        try:
            return parse_query("query %s : %s" % (args.peer, args.query))
        except ParseError as e:
            raise Refusal("bad query: %s" % e) from e
    if args.peer in defn.queries:
        return defn.queries[args.peer]
    raise Refusal("no query given (--query) and none in the definition file")


def _answers_lines(ans: frozenset[tuple[str, ...]]) -> list[str]:
    if ans == {()}:
        return ["true"]
    return ["<%s>" % ",".join(t) for t in sorted(ans)]


def _cmd_pca(defn: Definition, args, cap: int):
    q = _get_query(defn, args)
    res = peer_consistent_answers(defn.system, args.peer, defn.instance, q,
                                  cap=cap)
    if res.inconsistent:
        return _inconsistent(args.peer, "pca")
    return ({"peer": args.peer, "pca": sorted(list(t) for t in res.answers),
             "inconsistent": False}, _answers_lines(res.answers))


def _cmd_import_solve(defn: Definition, args, cap: int):
    sysm = defn.system
    flags = classify(sysm)
    reached = {flags[q] for q in sysm.accessible(args.peer)}
    if GENERAL in reached:
        raise Refusal("system is not of the import kind for peer %r"
                      % args.peer)
    if reached == {UNRESTRICTED}:
        lines = _instance_lines(import_solve(sysm, args.peer, defn.instance,
                                             flags))
        return {"peer": args.peer, "solutions": [lines], "unique": True}, lines
    return _solution_lines(restricted_import_solve(
        sysm, args.peer, defn.instance, cap, flags))


def _cmd_asp(defn: Definition, args, cap: int):
    dbar = core_instance(defn.system, args.peer, defn.instance, cap)
    prog = build_solution_program(defn.system, args.peer, dbar)
    if args.asp_action == "emit":
        text = emit_text(prog)
        return ({"peer": args.peer, "program": text.splitlines()},
                [text.rstrip("\n")])
    models = sorted(stable_models(ground(prog, cap), cap=cap),
                    key=lambda m: (len(m), sorted(m)))
    model_groups = [sorted(map(str, m)) for m in models]
    insts = asp_solutions(defn.system, args.peer, dbar, cap=cap)
    sol_groups = sorted(map(_instance_lines, insts), key=sorted)
    lines = ["warning: " + w for w in prog.warnings]
    lines += _numbered("model", model_groups)
    if not model_groups:
        lines.append("no stable models")
    lines += _numbered("solution", sol_groups)
    return ({"peer": args.peer, "models": model_groups,
             "solutions": sol_groups, "warnings": list(prog.warnings)},
            lines)


# ------------------------------------------------------------------ main

@cache  # parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pdes",
        description="Peer data exchange systems with trust and nulls.")
    ap.add_argument("--cap", type=int, default=None,
                    help="candidate cap (default: PDES_CAP or %d)"
                    % DEFAULT_CAP)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, peer=True, query=False):
        sp.add_argument("file", help="definition file")
        sp.add_argument("--format", choices=("text", "json"),
                        default="text")
        if peer:
            sp.add_argument("--peer", required=True)
        if query:
            sp.add_argument("--query", default=None)

    common(sub.add_parser("check", help="parse and report"), peer=False)
    common(sub.add_parser("chase", help="restricted chase of a peer's "
                          "neighborhood instance"))
    common(sub.add_parser("repairs", help="repairs wrt local constraints"))
    common(sub.add_parser("ns", help="neighborhood solutions"))
    common(sub.add_parser("solutions", help="solution instances"))
    common(sub.add_parser("core", help="intersection of solutions"))
    common(sub.add_parser("pca", help="peer-consistent answers"),
           query=True)
    common(sub.add_parser("import-solve", help="import-case solver"))
    asp = sub.add_parser("asp", help="solution programs")
    asp.add_argument("asp_action", choices=("emit", "solve"))
    common(asp)
    return ap


_HANDLERS = {
    "check": _cmd_check, "chase": _cmd_chase, "repairs": _cmd_repairs,
    "ns": _cmd_ns, "solutions": _cmd_solutions, "core": _cmd_core,
    "pca": _cmd_pca, "import-solve": _cmd_import_solve, "asp": _cmd_asp,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    cap = args.cap
    if cap is None:
        try:
            cap = int(os.environ.get("PDES_CAP", DEFAULT_CAP))
        except ValueError:
            print("error: PDES_CAP must be an integer, not %r"
                  % os.environ["PDES_CAP"], file=sys.stderr)
            return EXIT_REFUSED
    if cap < 1:
        print("error: cap must be >= 1", file=sys.stderr)
        return EXIT_REFUSED
    try:
        defn = load_definition(args.file)
    except ParseError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return EXIT_PARSE
    except OSError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_PARSE
    except SchemaError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_REFUSED
    try:
        payload, lines = _HANDLERS[args.command](defn, args, cap)
    except (Refusal, SchemaError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_REFUSED
    except CapExceeded as e:
        print("cap exceeded: %s" % e, file=sys.stderr)
        return EXIT_CAP
    _emit(payload, lines, args.format)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
