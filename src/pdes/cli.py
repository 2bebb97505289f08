"""Command-line front end.

Exit codes: 0 success, 1 semantic refusal (cycles, inconsistent usage,
a bad --query or cap, non-import systems passed to import-solve, systems
or constraints that no solution program encodes), 2 parse error in the
definition file, 3 candidate cap exceeded. The candidate cap comes from
--cap or the PDES_CAP environment variable. Output is canonically
ordered and deterministic.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .asp import (asp_solutions, build_solution_program, emit_text, ground,
                  stable_models)
from .chase import r_chase
from .core import (DEFAULT_CAP, CapExceeded, Instance, SchemaError,
                   atom_sort_key)
from .deffile import Definition, load_definition
from .importmode import (GENERAL, UNRESTRICTED, classify, import_solve,
                         restricted_import_solve)
from .lang import ParseError, parse_query, ref_acyclic
from .repair import NULL_BASED, delta_repairs, null_repairs
from .system import (core_instance, inc_atom, neighborhood_solutions,
                     peer_consistent_answers, solutions)

EXIT_OK = 0
EXIT_REFUSED = 1
EXIT_PARSE = 2
EXIT_CAP = 3


class Refusal(Exception):
    pass


def _instance_lines(inst: Instance) -> list[str]:
    return [str(a) for a in sorted(inst.atoms, key=atom_sort_key)]


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


# ------------------------------------------------------------ subcommands

def _cmd_check(defn: Definition, args, cap: int) -> int:
    sysm = defn.system
    cls = classify(sysm)
    lines = ["peers: " + ", ".join(sorted(sysm.peers))]
    edges = []
    for (p, q, t) in sysm.graph().edges:
        edges.append("%s -[%s]-> %s" % (p, t, q))
    lines += ["edge: " + e for e in edges]
    ra = {}
    for p in sorted(sysm.peers):
        ok, witness = ref_acyclic(sysm.sigma_of(p))
        ra[p] = ok
        lines.append("ref-acyclic %s: %s" % (p, "yes" if ok else
                                             "no (%s)" % " -> ".join(witness)))
    for p in sorted(sysm.peers):
        lines.append("import-kind %s: %s" % (p, cls.peer_flags[p]))
    payload = {"peers": sorted(sysm.peers), "edges": edges,
               "ref_acyclic": ra, "import_kind": dict(cls.peer_flags)}
    _emit(payload, lines, args.format)
    return EXIT_OK


def _cmd_chase(defn: Definition, args, cap: int) -> int:
    dbar = _neighborhood_instance(defn, args.peer)
    out = r_chase(dbar, defn.system.sigma_of(args.peer))
    lines = _instance_lines(out)
    _emit({"peer": args.peer, "chase": lines}, lines, args.format)
    return EXIT_OK


def _cmd_repairs(defn: Definition, args, cap: int) -> int:
    sysm = defn.system
    local = sysm.sigma.get((args.peer, args.peer), ())
    base = defn.instance.of(args.peer)
    if sysm.preorder == NULL_BASED:
        rs = null_repairs(base, local, cap=cap)
    else:
        rs = delta_repairs(base, local, cap=cap)
    groups = [_instance_lines(r) for r in rs.repairs]
    _emit({"peer": args.peer, "repairs": groups},
          _numbered("repair", groups), args.format)
    return EXIT_OK


def _cmd_ns(defn: Definition, args, cap: int) -> int:
    dbar = _neighborhood_instance(defn, args.peer)
    ns = neighborhood_solutions(defn.system, args.peer, dbar, cap=cap)
    groups = [_instance_lines(s) for s in ns]
    lines = _numbered("neighborhood solution", groups)
    if not groups:
        lines.append("no neighborhood solutions")
    _emit({"peer": args.peer, "neighborhood_solutions": groups}, lines,
          args.format)
    return EXIT_OK


def _solution_lines(res) -> tuple[dict, list[str]]:
    if res.inconsistent:
        return ({"peer": res.peer, "solutions": [], "core": [],
                 "inconsistent": True},
                ["inconsistent: %s" % str(inc_atom(res.peer))])
    groups = [_instance_lines(s) for s in res.solutions]
    return ({"peer": res.peer, "solutions": groups,
             "core": _instance_lines(res.core), "inconsistent": False},
            _numbered("solution", groups))


def _cmd_solutions(defn: Definition, args, cap: int) -> int:
    res = solutions(defn.system, args.peer, defn.instance, cap=cap)
    payload, lines = _solution_lines(res)
    _emit(payload, lines, args.format)
    return EXIT_OK


def _cmd_core(defn: Definition, args, cap: int) -> int:
    res = solutions(defn.system, args.peer, defn.instance, cap=cap)
    if res.inconsistent:
        lines = ["inconsistent: %s" % str(inc_atom(args.peer))]
        _emit({"peer": args.peer, "core": [], "inconsistent": True},
              lines, args.format)
    else:
        lines = _instance_lines(res.core)
        _emit({"peer": args.peer, "core": lines, "inconsistent": False},
              lines, args.format)
    return EXIT_OK


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


def _cmd_pca(defn: Definition, args, cap: int) -> int:
    q = _get_query(defn, args)
    res = peer_consistent_answers(defn.system, args.peer, defn.instance, q,
                                  cap=cap)
    if res.inconsistent:
        lines = ["inconsistent: %s" % str(res.marker)]
        _emit({"peer": args.peer, "pca": [], "inconsistent": True},
              lines, args.format)
    else:
        lines = _answers_lines(res.answers)
        _emit({"peer": args.peer, "pca": sorted(list(t) for t in res.answers),
               "inconsistent": False}, lines, args.format)
    return EXIT_OK


def _cmd_import_solve(defn: Definition, args, cap: int) -> int:
    sysm = defn.system
    cls = classify(sysm)
    flags = {q: cls.peer_flags[q] for q in sysm.accessible(args.peer)}
    if any(f == GENERAL for f in flags.values()):
        raise Refusal("system is not of the import kind for peer %r"
                      % args.peer)
    if all(f == UNRESTRICTED for f in flags.values()):
        inst = import_solve(sysm, args.peer, defn.instance)
        lines = _instance_lines(inst)
        _emit({"peer": args.peer, "solutions": [lines], "unique": True},
              lines, args.format)
        return EXIT_OK
    res = restricted_import_solve(sysm, args.peer, defn.instance, cap=cap)
    payload, lines = _solution_lines(res)
    _emit(payload, lines, args.format)
    return EXIT_OK


def _cmd_asp(defn: Definition, args, cap: int) -> int:
    dbar = core_instance(defn.system, args.peer, defn.instance, cap)
    prog = build_solution_program(defn.system, args.peer, dbar)
    if args.asp_action == "emit":
        text = emit_text(prog)
        _emit({"peer": args.peer, "program": text.splitlines()},
              [text.rstrip("\n")], args.format)
        return EXIT_OK
    models = stable_models(ground(prog), cap=cap)
    model_groups = [sorted(map(str, m)) for m in models]
    insts = asp_solutions(defn.system, args.peer, dbar, cap=cap)
    sol_groups = [_instance_lines(i) for i in insts]
    lines = ["warning: " + w for w in prog.warnings]
    lines += _numbered("model", model_groups)
    if not model_groups:
        lines.append("no stable models")
    lines += _numbered("solution", sol_groups)
    _emit({"peer": args.peer, "models": model_groups,
           "solutions": sol_groups, "warnings": list(prog.warnings)},
          lines, args.format)
    return EXIT_OK


# ------------------------------------------------------------------ main

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
        return _HANDLERS[args.command](defn, args, cap)
    except (Refusal, SchemaError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_REFUSED
    except CapExceeded as e:
        print("cap exceeded: %s" % e, file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
