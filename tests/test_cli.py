"""Command-line interface: golden outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest

from pdes.cli import main
from pdes.core import SchemaError

from conftest import FIXTURES, GOLDEN, fixture_path, load

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
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "pdes.cli"] + args,
                          capture_output=True, text=True, env=env)


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

    def test_json_outputs_are_valid_json(self, capsys):
        for golden, args in GOLDEN_CASES:
            if golden.endswith(".json"):
                _, out = run_inprocess(args, capsys)
                json.loads(out)


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

    def test_missing_file(self):
        res = run_cli(["check", "/no/such/file.pdes"])
        assert res.returncode == 2

    def test_cap_exceeded(self):
        res = run_cli(["--cap", "2", "asp", "solve", "ex_6_2.pdes",
                       "--peer", "P1"])
        assert res.returncode == 3
        assert "cap" in res.stderr

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

    def test_unsafe_query_option_is_refused(self, capsys):
        code = main(["pca", fixture_path("ex_1_1.pdes"), "--peer", "P1",
                     "--query", "R1(x,y,z), w = x"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: bad query: variable 'w' not bound")


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


def test_cli_imports_only_the_standard_library():
    code = ("import sys; before = set(sys.modules); import pdes.cli; "
            "print(*sorted(set(sys.modules) - before))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    added = res.stdout.split()
    foreign = [m for m in added if m.split(".")[0] != "pdes"
               and m.split(".")[0] not in sys.stdlib_module_names]
    assert "pdes.cli" in added
    assert foreign == []


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
