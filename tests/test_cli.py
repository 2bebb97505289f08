"""Command-line interface: golden outputs, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pdes.cli import _build_parser, main
from pdes.core import SchemaError
from pdes.repair import RepairSet

from conftest import (FIXTURES, GOLDEN, HERE, child_env, fixture_path,
                      load)

sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
import families  # noqa: E402

# (golden file, CLI arguments)
GOLDEN_CASES = [
    ("check_2_2.txt", ["check", "ex_2_2.pdes"]),
    ("check_2_2.json", ["check", "ex_2_2.pdes", "--format", "json"]),
    ("pca_1_1.txt", ["pca", "ex_1_1.pdes", "--peer", "P1"]),
    ("pca_1_1.json", ["pca", "ex_1_1.pdes", "--peer", "P1",
                      "--format", "json"]),
    ("ns_3_2.txt", ["ns", "ex_3_2.pdes", "--peer", "P1"]),
    ("solutions_3_6.json", ["solutions", "ex_3_6.pdes", "--peer", "P2",
                            "--format", "json"]),
    ("core_3_6.txt", ["core", "ex_3_6.pdes", "--peer", "P2"]),
    ("repairs_5_5.txt", ["repairs", "ex_5_5.pdes", "--peer", "P"]),
    ("chase_5_2.txt", ["chase", "ex_5_2.pdes", "--peer", "P"]),
    ("import_6_1.txt", ["import-solve", "ex_6_1.pdes", "--peer", "P1"]),
    ("asp_emit_6_2.txt", ["asp", "emit", "ex_6_2.pdes", "--peer", "P1"]),
    ("asp_solve_cyclic_same.txt", ["asp", "solve", "cyclic_same.pdes",
                                   "--peer", "P1"]),
    ("pca_4_11.txt", ["pca", "ex_4_11.pdes", "--peer", "P"]),
]


def run_cli(args, env_extra=None):
    args = [a if a.endswith(".pdes") is False else fixture_path(a)
            for a in args]
    return subprocess.run([sys.executable, "-m", "pdes.cli"] + args,
                          capture_output=True, text=True,
                          env=child_env(**(env_extra or {})))


def run_inprocess(args, capsys):
    args = [a if a.endswith(".pdes") is False else fixture_path(a)
            for a in args]
    code = main(args)
    return code, capsys.readouterr().out


class TestGolden:
    @pytest.mark.parametrize("golden,args", GOLDEN_CASES,
                             ids=[g for g, _ in GOLDEN_CASES])
    def test_output_matches_golden(self, golden, args, capsys):
        with open(os.path.join(GOLDEN, golden), encoding="utf-8") as fh:
            expected = fh.read()
        code, out = run_inprocess(args, capsys)
        assert code == 0
        assert out == expected

    def test_cli_orders_what_it_lists(self, monkeypatch, capsys):
        # the library returns repairs, solutions and models in search
        # order; handed over reversed, they are still listed as before
        import pdes.cli as cli

        def flip(items):
            return tuple(reversed(items))
        flips = {
            # each part's states reversed reverse the whole product
            "preorder_repairs": lambda r: RepairSet(
                r.shared, tuple(map(flip, r.parts)), r.schema, r.budget),
            "neighborhood_solutions": flip,
            "solutions": lambda r: r._replace(solutions=flip(r.solutions)),
            "stable_models": flip,
            "asp_solutions": flip,
        }
        for name, after in flips.items():
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *a, real=real, after=after,
                                **k: after(real(*a, **k)))
        for golden in ("repairs_5_5.txt", "ns_3_2.txt", "solutions_3_6.json",
                       "asp_solve_cyclic_same.txt"):
            with open(os.path.join(GOLDEN, golden), encoding="utf-8") as fh:
                expected = fh.read()
            assert run_inprocess(dict(GOLDEN_CASES)[golden], capsys) == \
                (0, expected), golden

    def test_json_outputs_are_valid_json(self, capsys):
        for golden, args in GOLDEN_CASES:
            if golden.endswith(".json"):
                _, out = run_inprocess(args, capsys)
                json.loads(out)


HEAD_CASES = {
    "A": "peer P1 : R/3\npeer P2 : S/2\ntrust P1 less P2\n"
         "dec P1 P2 : forall x,y : S(x,y) -> exists z : R(x,z,z)\n"
         "instance P2 : S(a,b)\n",
    "B": "peer P1 : R/2\npeer P2 : S/2\ntrust P1 less P2\n"
         "dec P1 P2 : forall x,y : S(x,y) -> exists z : R(x,x)\n"
         "instance P2 : S(b,a)\n",
}
CHECK_REPORT = ("peers: P1, P2\nedge: P1 -[less]-> P2\nref-acyclic P1: yes\n"
                "ref-acyclic P2: yes\nimport-kind P1: %s\n"
                "import-kind P2: unrestricted_import\n")


class TestExitCodes:
    def test_success(self, capsys):
        code, _ = run_inprocess(["check", "ex_6_1.pdes"], capsys)
        assert code == 0

    def test_cycle_refused_with_witness(self):
        for args in (["check"], ["pca", "--peer", "P1"]):
            res = run_cli(args + ["cyclic_graph.pdes"])
            assert res.returncode == 1
            assert res.stderr == ("error: accessibility graph has a cycle: "
                                  "P1 -> P2 -> P1\n")

    def test_missing_query_refused(self):
        res = run_cli(["pca", "ex_2_2.pdes", "--peer", "P1"])
        assert res.returncode == 1

    def test_non_import_system_refused(self):
        res = run_cli(["import-solve", "ex_2_2.pdes", "--peer", "P2"])
        assert res.returncode == 1

    def test_solution_program_refuses_delta_preorder(self, capsys):
        for name in ("ex_1_1.pdes", "ex_3_2.pdes", "ex_3_4.pdes",
                     "ex_3_6.pdes"):
            peer = sorted(load(name).system.peers)[0]
            for action in ("emit", "solve"):
                code = main(["asp", action, fixture_path(name),
                             "--peer", peer])
                out, err = capsys.readouterr()
                assert (code, out) == (1, ""), (name, action)
                assert err.startswith("error: "), (name, action)

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.pdes"
        bad.write_text("peer P : R/1\nnonsense\n")
        res = run_cli(["check", str(bad)])
        assert res.returncode == 2
        assert "parse error" in res.stderr

    def test_malformed_atom_is_a_parse_error_naming_its_line(self, tmp_path,
                                                             capsys):
        bad = tmp_path / "bad.pdes"
        bad.write_text("peer P1 : R/2\ninstance P1 : R(a b, c)\n")
        code = main(["check", str(bad)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("parse error: line 2: ")

    def test_instance_atom_of_the_wrong_arity_names_its_line(self, tmp_path,
                                                            capsys):
        bad = tmp_path / "bad.pdes"
        bad.write_text("peer P : R/2\ninstance P : R(a)\n")
        code = main(["check", str(bad)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == "parse error: line 2: 'R' has arity 2, not 1, in R(a)\n"

    def test_missing_file(self):
        res = run_cli(["check", "/no/such/file.pdes"])
        assert res.returncode == 2

    def test_file_that_is_not_utf8_is_a_parse_error(self, tmp_path, capsys):
        # its UnicodeDecodeError used to escape main as a traceback
        bad = tmp_path / "latin1.pdes"
        bad.write_bytes(b"peer P : R/1\ninstance P : R(\xff)\n")
        assert (main(["check", str(bad)]), *capsys.readouterr()) == (
            2, "", "parse error: byte 28 is not UTF-8 (invalid start byte)\n")

    def test_cap_exceeded(self):
        res = run_cli(["--cap", "2", "asp", "solve", "ex_6_2.pdes",
                       "--peer", "P1"])
        assert res.returncode == 3
        assert "cap" in res.stderr

    def test_pca_and_core_never_charge_the_product(self, tmp_path, capsys):
        # an FD over six two-valued keys: its search reaches 13 states,
        # which fit a cap of 32; listing its 64 solutions does not
        fam = families.conflicts(1, k=6, m=0, c=0)
        path = tmp_path / "fd6.pdes"
        path.write_text(fam.text, encoding="utf-8")
        runs = {}
        for cmd in ("pca", "core", "solutions"):
            code = main(["--cap", "32", cmd, str(path), "--peer", "P1"])
            runs[cmd] = (code, *capsys.readouterr())
        assert runs["pca"] == (0, families.answers_text(fam.answers), "")
        assert runs["core"] == (0, "", "")
        assert runs["solutions"] == (
            3, "", "cap exceeded: search space of 77 candidates exceeds "
            "cap 32\n")

    def test_cap_from_environment(self):
        res = run_cli(["asp", "solve", "ex_6_2.pdes", "--peer", "P1"],
                      env_extra={"PDES_CAP": "2"})
        assert res.returncode == 3

    def test_bad_cap_in_environment(self, monkeypatch, capsys):
        monkeypatch.setenv("PDES_CAP", "abc")
        code = main(["check", fixture_path("ex_6_1.pdes")])
        assert code == 1
        assert capsys.readouterr().err == \
            "error: PDES_CAP must be an integer, not 'abc'\n"

    def test_unsafe_query_in_file_is_a_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "unsafe.pdes"
        bad.write_text("peer P1 : R/2\nquery P1 : R(x,y), z = x\n")
        code = main(["check", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("parse error: line 2: variable 'z' not bound")

    def test_variable_declared_twice_is_a_parse_error(self, tmp_path,
                                                      capsys):
        bad = tmp_path / "twice.pdes"
        bad.write_text("peer P1 : R/2, S/1\n"
                       "dec P1 P1 : forall x,x : R(x,x) -> S(x)\n")
        code = main(["check", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("parse error: line 2: variable 'x' declared "
                              "twice")

    @pytest.mark.parametrize("dec,err", [
        ("forall x : R(x) -> exists z : S(z) or exists z : T(z)",
         "existential variable reuse in "
         "forall x: R(x) -> exists z: S(z) or exists z: T(z)"),
        ("forall x : R(x) -> U(x,null)",
         "explicit null in constraint forall x: R(x) -> U(x,null)"),
        ("forall : R(x) -> false",
         "expected a variable in 'dec P P : forall : R(x) -> false'"),
    ], ids=["reused-existential", "explicit-null", "empty-quantifier"])
    def test_constraint_shape_is_a_parse_error(self, tmp_path, capsys, dec,
                                               err):
        bad = tmp_path / "shape.pdes"
        bad.write_text("peer P : R/1, S/1, T/1, U/2\ndec P P : %s\n" % dec)
        assert (main(["check", str(bad)]), *capsys.readouterr()) == \
            (2, "", "parse error: line 2: %s\n" % err)

    def test_unsafe_query_option_is_refused(self, capsys):
        code = main(["pca", fixture_path("ex_1_1.pdes"), "--peer", "P1",
                     "--query", "R1(x,y,z), w = x"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: bad query: variable 'w' not bound")

    # Each file names a predicate the solvers generate: before they were
    # refused, `pca_via_asp` and `asp solve` lost the import of aux1(a),
    # `asp solve` dropped dom(z), and `pca` read inc_P2() as P2's marker
    # and answered nothing instead of <a>.
    @pytest.mark.parametrize("pred,text", [
        ("aux1", "peer P1 : R1/1\npeer P2 : aux1/1\n"
                 "dec P1 P2 : forall x : aux1(x) -> R1(x)\n"
                 "instance P2 : aux1(a)\n"),
        ("dom", "peer P1 : R1/1, dom/1\npeer P2 : R2/1\n"
                "dec P1 P2 : forall x : R2(x) -> R1(x)\n"
                "instance P1 : dom(z)\ninstance P2 : R2(a)\n"),
        ("inc_P2", "peer P1 : R1/1, inc_P2/0\npeer P2 : R2/1\n"
                   "dec P1 P2 : forall x : R2(x) -> R1(x)\n"
                   "instance P1 : inc_P2()\ninstance P2 : R2(a)\n"),
    ], ids=["aux1", "dom", "inc_P2"])
    def test_generated_predicate_names_are_refused(self, tmp_path, capsys,
                                                   pred, text):
        path = tmp_path / "reserved.pdes"
        path.write_text(text + "trust P1 less P2\nquery P1 : R1(x)\n")
        for argv in (["pca"], ["solutions"], ["asp", "solve"]):
            code = main(argv + [str(path), "--peer", "P1"])
            out, err = capsys.readouterr()
            assert (code, out) == (1, ""), argv
            assert err.startswith("error: predicate %r of " % pred), err

    # Before atoms were checked for arity, check accepted both files; with
    # the body mismatch, solutions and import-solve read R(x) as a prefix
    # of R(a,b) and added S(a), while asp solve did not; the head mismatch
    # failed late, with a different message on each route.
    @pytest.mark.parametrize("dec,err", [
        ("forall x : R(x) -> S(x)",
         "'R' has arity 2, not 1, in dec P P : forall x: R(x) -> S(x)"),
        ("forall x,y : R(x,y) -> S(x,y)",
         "'S' has arity 1, not 2, in dec P P : forall x,y: R(x,y) -> S(x,y)"),
    ], ids=["body", "head"])
    def test_constraint_atom_of_wrong_arity_is_refused(self, tmp_path,
                                                       capsys, dec, err):
        path = tmp_path / "arity.pdes"
        path.write_text("peer P : R/2, S/1\ninstance P : R(a,b)\n"
                        "dec P P : %s\nquery P : S(x)\n" % dec)
        for argv in (["check"], ["pca", "--peer", "P"],
                     ["solutions", "--peer", "P"],
                     ["import-solve", "--peer", "P"],
                     ["asp", "solve", "--peer", "P"]):
            code = main(argv + [str(path)])
            assert (code, *capsys.readouterr()) == \
                (1, "", "error: %s\n" % err), argv

    # S(x,y) on S/1 ended in a KeyError traceback; R(x) on R/2 answered <a>
    @pytest.mark.parametrize("query,err", [
        ("S(x,y)", "'S' has arity 1, not 2, in query P : S(x,y)"),
        ("R(x)", "'R' has arity 2, not 1, in query P : R(x)")])
    def test_query_atom_of_wrong_arity_is_refused(self, tmp_path, capsys,
                                                  query, err):
        path = tmp_path / "query.pdes"
        path.write_text("peer P : R/2, S/1\ninstance P : R(a,b)\n")
        code = main(["pca", str(path), "--peer", "P", "--query", query])
        assert (code, *capsys.readouterr()) == (1, "", "error: %s\n" % err)

    # Heads a null cannot fill. Before the import and program routes read
    # Constraint.problematic and anchored: on A, check called P1 an
    # unrestricted import, import-solve died with an IndexError and asp
    # solve gave R(a,null,null), which violates the constraint; on B,
    # asp solve printed "no stable models" and exited 0.
    @pytest.mark.parametrize("case,argv,code,out,err", [
        ("A", ["solutions"], 0, "inconsistent: inc_P1()\n", ""),
        ("A", ["import-solve"], 1, "",
         "error: system is not of the import kind for peer 'P1'\n"),
        ("A", ["check"], 0, CHECK_REPORT % "general", ""),
        ("A", ["asp", "solve"], 1, "", "error: existential constraint "
         "forall x,y: S(x,y) -> exists z: R(x,z,z) is not of the "
         "supported single-atom form\n"),
        ("B", ["solutions"], 0, "solution 1:\n  R(b,b)\n", ""),
        ("B", ["import-solve"], 0, "R(b,b)\n", ""),
        ("B", ["check"], 0, CHECK_REPORT % "unrestricted_import", ""),
        ("B", ["asp", "solve"], 1, "", "error: existential constraint "
         "forall x,y: S(x,y) -> exists z: R(x,x) is not of the "
         "supported single-atom form\n"),
    ], ids=["%s-%s" % (c, cmd) for c in "AB"
            for cmd in ("solutions", "import-solve", "check", "asp")])
    def test_head_a_null_cannot_fill(self, tmp_path, capsys, case, argv,
                                     code, out, err):
        path = tmp_path / "head.pdes"
        path.write_text(HEAD_CASES[case])
        peer = [] if argv == ["check"] else ["--peer", "P1"]
        assert (main(argv + [str(path)] + peer), *capsys.readouterr()) == \
            (code, out, err)


    # refusals as documented, each with its exit code and exact message
    @pytest.mark.parametrize("argv,text,code,err", [
        (["solutions", "FILE", "--peer", "Nope"], "peer P : R/1\n", 1,
         "error: unknown peer 'Nope'\n"),
        (["--cap", "0", "solutions", "FILE", "--peer", "P"],
         "peer P : R/1\n", 1, "error: cap must be >= 1\n"),
        (["check", "FILE"], None, 2,
         "error: [Errno 2] No such file or directory: '{path}'\n"),
        (["check", "FILE"], "peer P : R/1\npeer Q : S/1\n"
         "dec P Q : forall x : S(x) -> R(x)\n", 1,
         "error: no trust relationship for ('P', 'Q')\n"),
        (["check", "FILE"], "peer P : R/1\ntrust P less P\n", 1,
         "error: a peer must trust itself as 'same'\n"),
    ], ids=["unknown-peer", "cap-0", "missing-file", "no-trust",
            "self-less"])
    def test_documented_refusal(self, tmp_path, capsys, argv, text, code,
                                err):
        path = tmp_path / "refused.pdes"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        argv = [str(path) if a == "FILE" else a for a in argv]
        assert (main(argv), *capsys.readouterr()) == \
            (code, "", err.format(path=path))


class TestDeterminism:
    @pytest.mark.parametrize("golden,args", GOLDEN_CASES[:6],
                             ids=[g for g, _ in GOLDEN_CASES[:6]])
    def test_hash_seed_does_not_change_output(self, golden, args):
        with open(os.path.join(GOLDEN, golden), encoding="utf-8") as fh:
            expected = fh.read()
        for seed in ("0", "1", "2"):
            res = run_cli(args, env_extra={"PYTHONHASHSEED": seed})
            assert res.returncode == 0
            assert res.stdout == expected, seed


    def test_hash_seed_does_not_change_multi_part_solutions(self, tmp_path):
        # three FD keys and two null witnesses: five conflict parts
        path = tmp_path / "parts.pdes"
        path.write_text(
            "peer P1 : R1/2\npeer P2 : R2/2\ntrust P1 same P2\n"
            "dec P1 P1 : forall x,y,z : R1(x,y), R1(x,z) -> y = z\n"
            "dec P1 P2 : forall x,y : R2(x,y) -> exists z : R1(x,z)\n"
            "instance P1 : R1(k1,a), R1(k1,b), R1(k2,c), R1(k2,d), "
            "R1(k3,e), R1(k3,f), R1(k4,g)\n"
            "instance P2 : R2(w1,h), R2(w2,i)\n")
        out = _one_output_under_seeds(["solutions", str(path), "--peer", "P1"])
        assert out.count("solution ") == 2 ** 5

    def test_hash_seed_does_not_change_equal_numbers(self, tmp_path):
        # int() reads 1 and 01, and 10 and 1_0, alike; their text orders them
        path = tmp_path / "numbers.pdes"
        path.write_text("peer P : R/1, S/1\n"
                        "dec P P : forall x : R(x) -> S(x)\n"
                        "instance P : R(1), R(01), R(1_0), R(10)\n")
        out = _one_output_under_seeds(["chase", str(path), "--peer", "P"])
        assert out == ("R(01)\nR(1)\nR(10)\nR(1_0)\n"
                       "S(01)\nS(1)\nS(10)\nS(1_0)\n")
        out = _one_output_under_seeds(["solutions", str(path), "--peer", "P"])
        assert out.count("solution ") == 2 ** 4


    def test_hash_seed_does_not_change_batch_then_fd(self, tmp_path):
        # P1's search inserts the copies of R2 as one batch, then finds
        # the FD violations from the batch and the state before it
        path = tmp_path / "batch.pdes"
        path.write_text(
            "peer P1 : R1/2\npeer P2 : R2/2\ntrust P1 less P2\n"
            "dec P1 P2 : forall x,y : R2(x,y) -> R1(x,y)\n"
            "dec P1 P1 : forall x,y,z : R1(x,y), R1(x,z) -> y = z\n"
            "instance P1 : R1(a,0), R1(a,2), R1(c,3), R1(c,4), R1(d,5)\n"
            "instance P2 : R2(a,1), R2(b,1), R2(e,6)\n")
        out = _one_output_under_seeds(["repairs", str(path), "--peer", "P1"])
        assert out.count("repair ") == 4
        out = _one_output_under_seeds(["solutions", str(path),
                                       "--peer", "P1"])
        assert out.count("solution ") == 2
        assert "R1(a,0)" not in out and "R1(a,2)" not in out


def _one_output_under_seeds(argv) -> str:
    """The stdout of a successful CLI run, the same under PYTHONHASHSEED
    1, 2 and 3."""
    outs = set()
    for seed in ("1", "2", "3"):
        res = run_cli(argv, env_extra={"PYTHONHASHSEED": seed})
        assert res.returncode == 0, res.stderr
        outs.add(res.stdout)
    assert len(outs) == 1, argv
    return outs.pop()


@pytest.mark.parametrize("name,peer,code", [
    ("ex_6_1.pdes", "P1", 0), ("ex_5_12.pdes", "P1", 0),
    ("ex_2_2.pdes", "P2", 1)])
def test_import_solve_classifies_once(name, peer, code, capsys, monkeypatch):
    import pdes.cli as cli_mod
    import pdes.importmode as importmode
    calls = []
    real = importmode.classify

    def counted(system):
        calls.append(1)
        return real(system)

    for mod in (cli_mod, importmode):
        monkeypatch.setattr(mod, "classify", counted)
    assert main(["import-solve", fixture_path(name), "--peer", peer]) == code
    capsys.readouterr()
    assert len(calls) == 1


def test_one_parser_serves_every_call(capsys):
    # the parser is built once per process: a call refused by it (exit 2)
    # leaves it as it was for the next one, as in a fresh process
    assert _build_parser() is _build_parser()
    good = ["pca", fixture_path("ex_1_1.pdes"), "--peer", "P1"]
    bad = good + ["--format", "xml"]
    got = []
    for argv in (bad, good):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        out, err = capsys.readouterr()
        got.append((code, out, err))
    want = [(r.returncode, r.stdout, r.stderr)
            for r in (run_cli(bad), run_cli(good))]
    assert got == want
    assert [code for code, _, _ in got] == [2, 0]


def test_cli_imports_only_the_standard_library():
    code = ("import sys; before = set(sys.modules); import pdes.cli; "
            "print(*sorted(set(sys.modules) - before))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=child_env())
    added = res.stdout.split()
    foreign = [m for m in added if m.split(".")[0] != "pdes"
               and m.split(".")[0] not in sys.stdlib_module_names]
    assert "pdes.cli" in added
    assert foreign == []


def test_cli_runs_without_dataclasses_or_inspect():
    # importing them, and making classes with them, once cost a new
    # process about a fifth of a CLI request; site preloads some modules,
    # so their absence is checked, not that the CLI added none
    golden = "asp_solve_cyclic_same.txt"
    argv = [fixture_path(a) if a.endswith(".pdes") else a
            for a in dict(GOLDEN_CASES)[golden]]
    code = ("import sys, pdes.cli; code = pdes.cli.main(%r); "
            "print(code, *sorted({'dataclasses', 'inspect'} & "
            "set(sys.modules)), file=sys.stderr)" % argv)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=child_env())
    with open(os.path.join(GOLDEN, golden), encoding="utf-8") as fh:
        assert (res.stdout, res.stderr) == (fh.read(), "0\n")


SUBCOMMANDS = (["chase"], ["repairs"], ["ns"], ["solutions"], ["core"],
               ["pca"], ["import-solve"], ["asp", "emit"], ["asp", "solve"])


def test_no_traceback_on_any_fixture(capsys):
    """Every subcommand on every fixture and peer ends in a documented
    exit code; no exception escapes main."""
    bad = []
    for name in sorted(os.listdir(FIXTURES)):
        path = fixture_path(name)
        try:
            peers = sorted(load(name).system.peers)
        except SchemaError:  # refused at load time, whatever the peer
            peers = ["P1"]
        argvs = [["check", path]] + [cmd + [path, "--peer", p]
                                     for cmd in SUBCOMMANDS for p in peers]
        for argv in argvs:
            try:
                code = main(argv)
            except Exception as e:  # any escape is a failure
                code = "%s: %s" % (type(e).__name__, e)
            capsys.readouterr()
            if code not in (0, 1, 2, 3):
                bad.append((name, argv, code))
    assert bad == []


FUZZ_COMMANDS = (["check"], ["pca"], ["solutions"], ["chase"],
                 ["import-solve"], ["asp", "solve"])
FUZZ_TOKENS = ("", "\n", " ", ",", ":", "(", ")", "->", "|", "=", "!=",
               "#", "x", "y", "null", "exists x :", "forall x :", "P1", "P9",
               "R1", "less", "same", "peer", "dec", "instance", "/0", "/9",
               "/", "()", "a b")

FIXTURE_TEXTS = [Path(fixture_path(n)).read_text(encoding="utf-8")
                 for n in sorted(os.listdir(FIXTURES))]


@st.composite
def mutated_fixture(draw):
    """A fixture's text with a few slices each replaced by nothing, a
    token, the slice twice, or another line of the text."""
    text = draw(st.sampled_from(FIXTURE_TEXTS))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 16)))
        new = draw(st.sampled_from(
            FUZZ_TOKENS + (text[i:j] * 2,) + tuple(text.splitlines(True))))
        text = text[:i] + new + text[j:]
    return text


@given(mutated_fixture())
@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
def test_mutated_definition_files_end_in_documented_exit_codes(tmp_path,
                                                                text):
    path = tmp_path / "mutated.pdes"
    path.write_text(text, encoding="utf-8")
    peers = re.findall(r"^\s*peer\s+(\w+)", text, re.M) or ["P1"]
    for cmd in FUZZ_COMMANDS:
        argv = ["--cap", "64"] + cmd + [str(path)]
        if cmd != ["check"]:
            argv += ["--peer", peers[0]]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2, 3), argv


# One line per run of every subcommand x fixture x peer x format, in
# process from the fixtures directory: the sha256 of (exit code, stdout,
# stderr), then the arguments.  Regenerate only when an output is meant to
# change: PYTHONPATH=src python tests/test_cli.py
SWEEP = os.path.join(GOLDEN, "sweep.sha256")


def _sweep_argvs():
    for name in sorted(os.listdir(FIXTURES)):
        try:
            peers = sorted(load(name).system.peers)
        except SchemaError:
            peers = ["P1"]
        for fmt in ("text", "json"):
            yield ["check", name, "--format", fmt]
            for cmd in SUBCOMMANDS:
                for p in peers:
                    yield cmd + [name, "--peer", p, "--format", fmt]


def _sweep_lines() -> list[str]:
    lines = []
    for argv in _sweep_argvs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        run = json.dumps([code, out.getvalue(), err.getvalue()])
        lines.append("%s  %s" % (hashlib.sha256(run.encode()).hexdigest(),
                                 " ".join(argv)))
    return lines


def test_sweep_matches_digest(monkeypatch):
    monkeypatch.chdir(FIXTURES)
    monkeypatch.delenv("PDES_CAP", raising=False)
    with open(SWEEP, encoding="utf-8") as fh:
        expected = fh.read().splitlines()
    got = _sweep_lines()
    changed = [g.split("  ", 1)[1] for g in got if g not in expected]
    assert changed == []
    assert got == expected


if __name__ == "__main__":
    os.chdir(FIXTURES)
    os.environ.pop("PDES_CAP", None)
    with open(SWEEP, "w", encoding="utf-8") as fh:
        fh.write("\n".join(_sweep_lines()) + "\n")
