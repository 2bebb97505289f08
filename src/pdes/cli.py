"""Command-line front end.

Exit codes: 0 success, 1 semantic refusal (cycles, inconsistent usage,
a bad --query or cap, non-import systems passed to import-solve, systems
or constraints that no solution program encodes, two predicate names
that asp emit would write alike) or stdout closed before the output was
written, 2 parse error in the definition file or usage error, 3
candidate cap exceeded. A usage error, such as a missing --peer, prints
`usage: ...` and `pdes: error: ...` to stderr and nothing to stdout;
options are spelt out in full, never abbreviated. The candidate cap
comes from --cap or the PDES_CAP environment variable. The library
returns search order; this module alone orders what it lists,
canonically.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from .asp import (asp_solutions, build_solution_program, emit_text, ground,
                  stable_models)
from .chase import r_chase
from .core import (DEFAULT_CAP, CapExceeded, Instance, SchemaError,
                   atom_sort_key, capped)
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
    # each atom was checked against its peer's schema at parse, and
    # peers own disjoint predicates, so the neighbourhood schema fits it
    sysm = defn.system
    atoms = set(defn.instance.of(p).atoms)
    for q in sorted(sysm.strict_neighbors(p)):
        atoms |= defn.instance.of(q).atoms
    return Instance._trusted(frozenset(atoms), sysm.neighborhood_schema(p))


def _emit(payload: dict, text_lines: list[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


# -------------------------------------- subcommands: (payload, text lines)

def _cmd_check(defn: Definition, args):
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


def _cmd_chase(defn: Definition, args):
    dbar = _neighborhood_instance(defn, args.peer)
    lines = _instance_lines(r_chase(dbar, defn.system.sigma_of(args.peer)))
    return {"peer": args.peer, "chase": lines}, lines


def _cmd_repairs(defn: Definition, args):
    base = defn.instance.of(args.peer)
    rs = preorder_repairs(defn.system.preorder, base,
                          defn.system.sigma.get((args.peer, args.peer), ()))
    groups = _closest_first(rs.repairs, base)
    return ({"peer": args.peer, "repairs": groups},
            _numbered("repair", groups))


def _cmd_ns(defn: Definition, args):
    dbar = _neighborhood_instance(defn, args.peer)
    ns = neighborhood_solutions(defn.system, args.peer, dbar)
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


def _cmd_solutions(defn: Definition, args):
    return _solution_lines(solutions(defn.system, args.peer, defn.instance))


def _cmd_core(defn: Definition, args):
    core = solution_core(defn.system, args.peer, defn.instance)
    if inc_atom(args.peer) in core:
        return _inconsistent(args.peer, "core")
    lines = _instance_lines(core)
    return {"peer": args.peer, "core": lines, "inconsistent": False}, lines


def _get_query(defn: Definition, args):
    # the peer first, so that an unknown one is named as elsewhere
    defn.system._check_peer(args.peer)
    if args.query is not None:
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


def _cmd_pca(defn: Definition, args):
    q = _get_query(defn, args)
    res = peer_consistent_answers(defn.system, args.peer, defn.instance, q)
    if res.inconsistent:
        return _inconsistent(args.peer, "pca")
    return ({"peer": args.peer, "pca": sorted(list(t) for t in res.answers),
             "inconsistent": False}, _answers_lines(res.answers))


def _cmd_import_solve(defn: Definition, args):
    sysm = defn.system
    flags = classify(sysm)
    reached = {flags[q] for q in sysm.accessible(args.peer)}
    if GENERAL in reached:
        raise Refusal("system is not of the import kind for peer %r"
                      % args.peer)
    if reached == {UNRESTRICTED}:
        lines = _instance_lines(import_solve(sysm, args.peer, defn.instance))
        return {"peer": args.peer, "solutions": [lines], "unique": True}, lines
    return _solution_lines(restricted_import_solve(
        sysm, args.peer, defn.instance))


def _cmd_asp(defn: Definition, args):
    dbar = core_instance(defn.system, args.peer, defn.instance)
    prog = build_solution_program(defn.system, args.peer, dbar)
    if args.asp_action == "emit":
        text = emit_text(prog)
        return ({"peer": args.peer, "program": text.splitlines()},
                [text.rstrip("\n")])
    models = sorted(stable_models(ground(prog)),
                    key=lambda m: (len(m), sorted(m)))
    model_groups = [sorted(map(str, m)) for m in models]
    insts = asp_solutions(defn.system, args.peer, dbar)
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

#: each subcommand: its handler, its help line, and what it takes beside
#: FILE and --format: the options --peer and --query, and a choice of
#: action words, such as emit|solve, that comes before FILE
_COMMANDS = {
    "check": (_cmd_check, "parse and report", ()),
    "chase": (_cmd_chase, "restricted chase of P's neighborhood instance",
              ("--peer",)),
    "repairs": (_cmd_repairs, "repairs wrt local constraints", ("--peer",)),
    "ns": (_cmd_ns, "neighborhood solutions", ("--peer",)),
    "solutions": (_cmd_solutions, "solution instances", ("--peer",)),
    "core": (_cmd_core, "intersection of solutions", ("--peer",)),
    "pca": (_cmd_pca, "peer-consistent answers", ("--peer", "--query")),
    "import-solve": (_cmd_import_solve, "import-case solver", ("--peer",)),
    "asp": (_cmd_asp, "solution programs", ("emit|solve", "--peer")),
}

#: each option: the name of its value, and its help line
_OPTIONS = {
    "--cap": ("N", "candidate cap (default: PDES_CAP or %d)" % DEFAULT_CAP),
    "--format": ("text|json", "output format (default: text)"),
    "--peer": ("P", "the peer to answer for"),
    "--query": ("Q", "pca's query (default: P's query in FILE)"),
}
_HELP = ("-h", "--help")


def _form(command: str) -> str:
    """command with its action words, FILE and the options it takes."""
    takes = _COMMANDS[command][2]
    words = [command] + [t for t in takes if t[0] != "-"] + ["FILE"]
    return " ".join(words + [("%s %s" if t == "--peer" else "[%s %s]")
                             % (t, _OPTIONS[t][0]) for t in takes
                             if t[0] == "-"])


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: pdes [-h] [--cap N] SUBCOMMAND ... FILE"
    return "usage: pdes [--cap N] %s [--format %s]" % (
        _form(command), _OPTIONS["--format"][0])


def _help() -> str:
    commands = [(_form(c), entry[1]) for c, entry in _COMMANDS.items()]
    options = [(", ".join(_HELP), "print this help and exit")] + [
        ("%s %s" % (o, meta), text) for o, (meta, text) in _OPTIONS.items()]
    width = max(len(form) for form, _ in commands)
    return "\n".join(
        [_usage(None), "", "Peer data exchange systems with trust and nulls.",
         "", "subcommands, each followed by its FILE and options in any "
         "order:"]
        + ["  %-*s  %s" % (width, *row) for row in commands]
        + ["", "options, each as --opt VALUE or --opt=VALUE:"]
        + ["  %-*s  %s" % (width, *row) for row in options])


def _fail(command: str | None, message: str):
    print(_usage(command), file=sys.stderr)
    print("pdes: error: " + message, file=sys.stderr)
    sys.exit(EXIT_PARSE)


def _is_option(word: str, known: tuple[str, ...]) -> bool:
    """Whether word is an option: it starts with '-' and is not '-' or a
    negative number; a word with a space is one only if a known option
    comes before its '='."""
    if word[:1] != "-" or word == "-":
        return False
    if word.partition("=")[0] in known:
        return True
    digits = word[1:].replace(".", "", 1)
    return " " not in word and not (digits.isdecimal()
                                    and not word.endswith("."))


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """argv read in one pass: --cap before the subcommand; after it,
    FILE, its action word and its options in any order, each option as
    `--opt VALUE` or `--opt=VALUE` and the last of a repeated one
    counting. A `--` where a positional is still to come, or just after
    one, ends the options. No option is abbreviated. Exits 0 after
    printing the help, and 2 after a usage error."""
    args = SimpleNamespace(command=None, asp_action=None, file=None,
                           cap=None, format="text", peer=None, query=None)
    known = _HELP + ("--cap",)
    # the positionals still to read: attribute, its choices, its name
    slots = [("command", _COMMANDS, "SUBCOMMAND")]
    rest = False  # after --
    loose = False  # the last word read was a positional
    words = iter(argv)
    for word in words:
        if word == "--" and args.command and not rest and (slots or loose):
            rest = True
        elif not rest and _is_option(word, known):
            loose = False
            name, eq, value = word.partition("=")
            if name not in known:
                _fail(args.command, "unrecognized option %r" % word)
            if name in _HELP:
                if eq:
                    _fail(args.command, "%s takes no value" % name)
                print(_help())
                sys.exit(EXIT_OK)
            if not eq:
                value = next(words, None)
                if value is None or _is_option(value, known):
                    _fail(args.command, "%s needs a value" % name)
            meta = _OPTIONS[name][0]
            if name == "--cap":
                try:
                    value = int(value)
                except ValueError:
                    _fail(args.command, "--cap takes an integer, not %r"
                          % value)
            elif "|" in meta and value not in meta.split("|"):
                _fail(args.command, "%s takes %s, not %r"
                      % (name, meta, value))
            setattr(args, name[2:], value)
        elif not slots:
            _fail(args.command, "unexpected argument %r" % word)
        else:
            attr, choices, what = slots.pop(0)
            loose = True
            if choices is not None and word not in choices:
                _fail(args.command, "%r is not one of %s"
                      % (word, "|".join(choices)))
            setattr(args, attr, word)
            if attr == "command":
                takes = _COMMANDS[word][2]
                known = _HELP + ("--format",) + tuple(
                    t for t in takes if t[0] == "-")
                slots = [("asp_action", t.split("|"), t) for t in takes
                         if t[0] != "-"] + [("file", None, "FILE")]
    missing = [what for _, _, what in slots]
    if "--peer" in known and args.peer is None:
        missing.append("--peer P")
    if missing:
        _fail(args.command, "missing " + ", ".join(missing))
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
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
        with capped(cap):
            payload, lines = _COMMANDS[args.command][0](defn, args)
    except (Refusal, SchemaError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_REFUSED
    except CapExceeded as e:
        print("cap exceeded: %s" % e, file=sys.stderr)
        return EXIT_CAP
    try:
        _emit(payload, lines, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away: stdout points at devnull from here, so
        # that the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_REFUSED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
