"""The benchmark's own checks: generators against independent routes,
tracing that repeats exactly, and refusal to run without the sources.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import families  # noqa: E402
import layers  # noqa: E402
from pdes.asp import asp_solutions  # noqa: E402
from pdes.core import Instance, restrict  # noqa: E402
from pdes.deffile import parse_definition  # noqa: E402
from pdes.importmode import import_solve  # noqa: E402
from pdes.nullsem import n_answers  # noqa: E402
from pdes.repair import exhaustive_null_repairs  # noqa: E402
import pdes.cli  # noqa: E402


def _certain(instances, query) -> set[str]:
    per = [n_answers(s, query) for s in instances]
    return {t[0] for t in frozenset.intersection(*per)}


@pytest.mark.parametrize("make", [families.copy_chain, families.conflicts,
                                  families.asp_conflicts])
def test_same_seed_same_bytes_other_seed_same_shape(make):
    a, b, c = make(7), make(7), make(8)
    assert a.text == b.text
    assert a.text != c.text
    assert [len(line) for line in a.text.splitlines()[1:]] == \
        [len(line) for line in c.text.splitlines()[1:]]


@pytest.mark.parametrize("seed", [1, 2])
def test_copy_chain_closed_form_matches_import_fixpoint(seed):
    fam = families.copy_chain(seed, n=6)
    defn = parse_definition(fam.text)
    sol = import_solve(defn.system, "P1", defn.instance)
    assert _certain([sol], defn.queries["P1"]) == set(fam.answers)
    assert len(fam.answers) == 6


@pytest.mark.parametrize("seed", [1, 2])
def test_conflicts_closed_form_matches_exhaustive_oracle(seed):
    k, m, c = 1, 2, 1
    fam = families.conflicts(seed, k=k, m=m, c=c)
    defn = parse_definition(fam.text)
    sysm, d = defn.system, defn.instance
    dbar = Instance(d.of("P1").atoms | d.of("P2").atoms,
                    sysm.neighborhood_schema("P1"))
    reps = exhaustive_null_repairs(dbar, sysm.sigma_of("P1")).repairs
    own = sysm.schemas["P1"].preds()
    sols = {restrict(Instance(r.atoms, dbar.schema), own).atoms
            for r in reps}
    sols = [Instance(s, sysm.schemas["P1"]) for s in sols]
    assert len(sols) == fam.n_solutions == 2 ** (k + m)
    assert _certain(sols, defn.queries["P1"]) == set(fam.answers)


def test_asp_conflicts_closed_form_matches_solution_program():
    fam = families.asp_conflicts(3)
    defn = parse_definition(fam.text)
    sysm, d = defn.system, defn.instance
    dbar = Instance(d.of("P1").atoms | d.of("P2").atoms,
                    sysm.neighborhood_schema("P1"))
    sols = asp_solutions(sysm, "P1", dbar)
    assert len(sols) == fam.n_solutions == 8
    assert _certain(sols, defn.queries["P1"]) == set(fam.answers)


def _traced_run(path: str) -> layers.Tracer:
    tracer = layers.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert pdes.cli.main(["asp", "solve", "--peer", "P1", path]) == 0
    finally:
        tracer.uninstall()
    return tracer


def test_traced_counts_repeat_and_wrappers_come_off(tmp_path):
    path = str(tmp_path / "asp.pdes")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(families.asp_conflicts(5).text)
    before = {k: v for k, v in vars(pdes.cli).items() if callable(v)}
    first, second = _traced_run(path), _traced_run(path)
    assert {k: v for k, v in vars(pdes.cli).items() if callable(v)} == before
    assert first.calls == second.calls and first.counts == second.counts
    assert first.calls["asp.ground"] == 2
    assert first.absent == []
    keys = {s[0] for s in first.spans}
    assert {"cli", "deffile", "asp.ground", "asp.stable"} <= keys
    roots = [s for s in first.spans if s[4] is None]
    assert [s[0] for s in roots] == ["cli"]


def test_missing_function_reported_absent(monkeypatch):
    monkeypatch.setattr(layers, "SPECS", layers.SPECS + (
        layers.Spec("gone", "pdes.repair", "no_such_function"),))
    tracer = layers.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["pdes.repair.no_such_function"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "copy_chain",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""
