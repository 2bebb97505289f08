"""End-to-end acceptance checks over the bundled example systems."""

import itertools
import os
import random
import subprocess
import sys
import time

import pytest

from pdes import repair
from pdes.asp import asp_solutions, build_solution_program, ground, \
    pca_via_asp, stable_models
from pdes.chase import r_chase, split_sigma
from pdes.core import (DEFAULT_CAP, NULL, Atom, Instance, Schema,
                       SchemaError, atom)
from pdes.importmode import import_solve, restricted_import_solve
from pdes.lang import parse_constraint, parse_query
from pdes.nullsem import n_answers, n_holds, n_holds_direct
from pdes.repair import exhaustive_null_repairs, null_repairs
from pdes.system import (PdesInstance, PdesSchema, _solve, inc_atom,
                         neighborhood_solutions, peer_consistent_answers,
                         solutions)

from conftest import FIXTURES, GOLDEN, fixture_path, load


def atoms_of(inst) -> frozenset[str]:
    return frozenset(map(str, inst.atoms))


def solution_sets(insts) -> set[frozenset[str]]:
    return {atoms_of(i) for i in insts}


def neighborhood(defn, p) -> Instance:
    d = set(defn.instance.of(p).atoms)
    for q in sorted(defn.system.strict_neighbors(p)):
        d |= defn.instance.of(q).atoms
    return Instance(d, defn.system.neighborhood_schema(p))


def core_neighborhood(system, p, inst) -> Instance:
    d = set(inst.of(p).atoms)
    for q in sorted(system.strict_neighbors(p)):
        res = solutions(system, q, inst)
        if res.inconsistent:
            d.add(inc_atom(q))
        else:
            d |= res.core.atoms
    return Instance(d, system.neighborhood_schema(p))


class Stopwatch:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


# 1 ---------------------------------------------------------------------

def test_01_less_trusted_neighbor_widens_answers():
    defn = load("ex_1_1.pdes")
    with Stopwatch() as sw:
        res = peer_consistent_answers(defn.system, "P1", defn.instance,
                                      defn.queries["P1"])
    assert res.answers == {("c",), ("f",), ("d",)}
    assert sw.elapsed < 1.0


# 2 ---------------------------------------------------------------------

EXPECTED_SIX = {
    frozenset({"R1(c,4,2)", "R1(d,5,3)", "R1(f,3,5)", "R2(c,4)", "R2(d,5)",
               "S1(3)", "S2(4,2)", "S2(5,3)"}),
    frozenset({"R1(c,4,2)", "R1(f,3,5)", "R2(c,4)", "S1(3)", "S1(7)",
               "S2(4,2)", "S2(5,3)", "S2(5,7)"}),
    frozenset({"R1(c,4,2)", "R1(f,3,5)", "R2(c,4)", "S1(3)", "S2(4,2)",
               "S2(5,3)"}),
    frozenset({"R1(c,4,2)", "R1(d,5,3)", "R1(d,5,7)", "R1(f,3,5)", "R2(c,4)",
               "R2(d,5)", "S1(3)", "S1(7)", "S2(4,2)", "S2(5,3)", "S2(5,7)"}),
    frozenset({"R1(c,4,2)", "R1(f,3,5)", "R2(c,4)", "R2(d,5)", "S2(4,2)"}),
    frozenset({"R1(c,4,2)", "R1(d,5,7)", "R1(f,3,5)", "R2(c,4)", "R2(d,5)",
               "S1(7)", "S2(4,2)", "S2(5,7)"}),
}


def test_02_equal_trust_yields_six_neighborhood_solutions():
    defn = load("ex_3_2.pdes")
    with Stopwatch() as sw:
        ns = neighborhood_solutions(defn.system, "P1",
                                    neighborhood(defn, "P1"))
        res = peer_consistent_answers(defn.system, "P1", defn.instance,
                                      defn.queries["P1"])
    assert solution_sets(ns) == EXPECTED_SIX
    assert res.answers == {("c",), ("f",)}
    assert sw.elapsed < 1.0


# 3 ---------------------------------------------------------------------

def test_03_unsatisfiable_obligations_answer_with_marker():
    defn = load("ex_3_4.pdes")
    ns = neighborhood_solutions(defn.system, "P",
                                neighborhood(defn, "P"))
    assert ns == ()
    res = peer_consistent_answers(defn.system, "P", defn.instance,
                                  defn.queries["P"])
    assert res.inconsistent and res.marker == inc_atom("P")


# 4 ---------------------------------------------------------------------

def test_04_transitive_chain_answers_through_cores():
    defn = load("ex_3_6.pdes")
    res2 = solutions(defn.system, "P2", defn.instance)
    assert len(res2.solutions) == 2
    assert atoms_of(res2.core) == {"R2(c,4)", "R2(d,5)", "S2(5,3)"}
    res1 = solutions(defn.system, "P1", defn.instance)
    assert solution_sets(res1.solutions) == {
        frozenset({"R1(c,4,2)", "R1(f,3,5)", "R1(d,5,3)", "S1(3)"})}
    pca = peer_consistent_answers(defn.system, "P1", defn.instance,
                                  defn.queries["P1"])
    assert pca.answers == {("f",)}


# 5 ---------------------------------------------------------------------

class TestCriterion05NullAwareQueries:
    def test_comparison_through_null(self):
        defn = load("ex_4_2.pdes")
        assert n_answers(defn.instance.of("P"),
                         defn.queries["P"]) == {(NULL,)}

    def test_join_through_null(self):
        defn = load("ex_4_6.pdes")
        assert n_answers(defn.instance.of("P"),
                         defn.queries["P"]) == {("a", "f"), ("c", "g")}

    def test_existential_witnesses(self):
        c = parse_constraint("forall x : R(x) -> exists y : T(x,y), S(y)")
        schema = Schema({"R": 1, "T": 2, "S": 1})
        cases = [
            ({atom("R", "a")}, False),
            ({atom("R", "a"), atom("T", "a", NULL), atom("S", NULL)}, False),
            ({atom("R", "a"), atom("T", "a", "b"), atom("S", "b")}, True),
            ({atom("R", NULL)}, True),
            (set(), True),
        ]
        for atoms, expected in cases:
            assert n_holds(Instance(atoms, schema), c) is expected

    def test_rewriting_text(self):
        from pdes.lang import n_rewrite_constraint, n_rewrite_query
        fd = parse_constraint(
            "forall x,y,z1,z2 : R(x,y,z1), R(x,y,z2) -> z1 = z2")
        assert str(n_rewrite_constraint(fd)) == (
            "forall x,y,z1,z2: R(x,y,z1), R(x,y,z2) -> "
            "isnull(x) or isnull(y) or isnull(z1) or isnull(z2) or z1=z2")
        guard = parse_constraint("forall x,y,z : R(x,y,z) -> isnotnull(x)")
        assert n_rewrite_constraint(guard) == guard
        q = parse_query("exists y : P0(x,y), y > 5")
        assert str(n_rewrite_query(q)) == "exists y: P0(x,y), y>5, y!=null"

    def test_null_answer_from_non_relevant_variable(self):
        defn = load("ex_4_11.pdes")
        assert n_answers(defn.instance.of("P"),
                         defn.queries["P"]) == {("f",), (NULL,)}


# 6 ---------------------------------------------------------------------

ONE_PRED = [
    "forall x,y,z : R(x,y), R(x,z) -> y = z",
    "forall x,y : R(x,y) -> R(y,x)",
    "forall x,y : R(x,y) -> exists z : R(y,z)",
    "forall x,y : R(x,y), R(y,x) -> false",
    "forall x,y : R(x,y) -> x = y or isnull(x)",
]
TWO_PRED = [
    "forall x,y : R(x,y) -> S(x,y)",
    "forall x,y : R(x,y), S(y,x) -> false",
    "forall x,y : R(x,y) -> exists z : S(x,z)",
    "forall x,y,z : R(x,y), S(y,z) -> R(x,z) or x = z",
    "forall x,y,z : R(x,y), S(x,z) -> y = z",
]


def test_06_rewriting_soundness_exhaustive():
    dom = ["a", "b", NULL]
    pairs = list(itertools.product(dom, repeat=2))
    with Stopwatch() as sw:
        schema1 = Schema({"R": 2})
        cs1 = [parse_constraint(t) for t in ONE_PRED]
        for mask in range(2 ** len(pairs)):
            d = Instance({Atom("R", t) for i, t in enumerate(pairs)
                          if mask >> i & 1}, schema1)
            for c in cs1:
                assert n_holds(d, c) == n_holds_direct(d, c)
        schema2 = Schema({"R": 2, "S": 2})
        cs2 = [parse_constraint(t) for t in TWO_PRED]
        universe = [Atom(p, t) for p in ("R", "S") for t in pairs]
        for size in range(5):
            for combo in itertools.combinations(universe, size):
                d = Instance(set(combo), schema2)
                for c in cs2:
                    assert n_holds(d, c) == n_holds_direct(d, c)
    assert sw.elapsed < 60.0


# 7 ---------------------------------------------------------------------

def test_07_chase_behaviors_and_laws():
    defn = load("ex_5_2.pdes")
    sigma = defn.system.sigma_of("P")
    split = split_sigma(sigma)
    schema = defn.system.schemas["P"]

    def chase(atoms, cs=None):
        return r_chase(Instance(set(atoms), schema),
                       split if cs is None else split_sigma(cs))

    with Stopwatch() as sw:
        # a null in a relevant position does not propagate
        assert atom("R", "a", NULL) not in chase(
            [atom("T", "a", NULL)], sigma[:1])
        assert atom("R", "a", "b") in chase([atom("T", "a", "b")], sigma[:1])
        # a head builtin can block generation entirely
        assert chase([atom("R", "a", "a")], (sigma[5],)).atoms == \
            {atom("R", "a", "a")}
        out = chase([atom("R", "a", "b")], (sigma[5],))
        assert atom("Q", "a", "b", NULL) in out
        # a disjunctive head contributes every viable disjunct
        out = chase([atom("R", "a", "b"), atom("S", "b", "c")], (sigma[1],))
        assert atom("Q", "a", "b", "c") in out and atom("T", "a", "c") in out
        # a null witness does not re-trigger a relevant constraint
        assert chase([atom("Q", "a", "b", NULL)], (sigma[2],)).atoms == \
            {atom("Q", "a", "b", NULL)}
        # equalities and denials are left violated
        assert not n_holds(chase([atom("T", "a", "b"), atom("T", "a", "c")]),
                           sigma[3])
        assert not n_holds(chase([atom("T", "a", "b"), atom("S", "a", "b")]),
                           sigma[4])

        generating = tuple(sigma[i] for i in (0, 1, 2, 6))
        rng = random.Random(20240817)
        dom = ["a", "b", "c", NULL]
        for _ in range(200):
            atoms = set()
            for _ in range(rng.randint(0, 6)):
                pred = rng.choice(["T", "R", "S", "Q"])
                k = schema.arity(pred)
                atoms.add(Atom(pred, tuple(rng.choice(dom)
                                           for _ in range(k))))
            d = Instance(atoms, schema)
            out = r_chase(d, split)
            assert d.atoms <= out.atoms
            assert r_chase(out, split).atoms == out.atoms
            for c in generating:
                assert n_holds(out, c)
    assert sw.elapsed < 30.0


# 8 ---------------------------------------------------------------------

def test_08_problematic_existential_empties_the_instance():
    defn = load("ex_5_4.pdes")
    rs = null_repairs(defn.instance.of("P"), defn.system.sigma_of("P"))
    assert [r.atoms for r in rs.repairs] == [frozenset()]


@pytest.mark.xfail(reason="the closeness preorder, read literally, leaves "
                   "a second minimal repair; see the design notes",
                   strict=True)
def test_08_deletion_only_repair_claimed_unique():
    defn = load("ex_5_5.pdes")
    rs = null_repairs(defn.instance.of("P"), defn.system.sigma_of("P"))
    assert solution_sets(rs.repairs) == {frozenset({"T(a,b)", "S(a,c)"})}


def test_08_deletion_only_repairs_observed():
    defn = load("ex_5_5.pdes")
    rs = null_repairs(defn.instance.of("P"), defn.system.sigma_of("P"))
    assert solution_sets(rs.repairs) == {
        frozenset({"T(a,b)", "S(a,c)"}), frozenset({"T(a,c)"})}


def test_08_repairs_match_exhaustive_oracle():
    rng = random.Random(4242)
    schema = Schema({"T": 2, "S": 2})
    dom = ["a", "b", "c", NULL]
    shapes = (
        "forall x,y,z : T(x,y), T(x,z) -> y = z",
        "forall x,y : T(x,y), S(x,y) -> false",
        "forall x,y : T(x,y) -> S(x,y)",
        "forall x,y : S(x,y) -> exists z : T(x,z)",
    )
    for _ in range(100):
        atoms = {Atom(rng.choice(["T", "S"]),
                      (rng.choice(dom), rng.choice(dom)))
                 for _ in range(rng.randint(0, 4))}
        sigma = tuple(parse_constraint(t)
                      for t in rng.sample(shapes, rng.randint(1, 2)))
        base = Instance(atoms, schema)
        got = null_repairs(base, sigma)
        want = exhaustive_null_repairs(base, sigma)
        assert {r.atoms for r in got.repairs} == \
            {r.atoms for r in want.repairs}


# 9 ---------------------------------------------------------------------

def test_09_null_preorder_solutions():
    defn = load("ex_5_6.pdes")
    ns = neighborhood_solutions(defn.system, "P1", neighborhood(defn, "P1"))
    assert [s.atoms for s in ns] == [frozenset()]

    defn = load("ex_5_7.pdes")
    res2 = solutions(defn.system, "P2", defn.instance)
    assert atoms_of(res2.core) == {"R2(d,5)"}
    res4 = solutions(defn.system, "P4", defn.instance)
    assert solution_sets(res4.solutions) == {
        frozenset({"R4(d,5,1)", "R4(c,4,null)"})}


# 10 --------------------------------------------------------------------

def test_10_import_solutions_and_scaling():
    defn = load("ex_6_1.pdes")
    via_fixpoint = import_solve(defn.system, "P1", defn.instance)
    general = solutions(defn.system, "P1", defn.instance)
    assert atoms_of(via_fixpoint) == {"R1(a,2)", "R1(d,5)"}
    assert solution_sets(general.solutions) == {atoms_of(via_fixpoint)}

    defn65 = load("ex_6_5.pdes")
    res65 = solutions(defn65.system, "P1", defn65.instance)
    assert solution_sets(res65.solutions) == {
        frozenset({"R1(a,2)", "R1(d,5)"})}
    via_programs = pca_via_asp(defn65.system, "P1", defn65.instance,
                               defn65.queries["P1"])
    direct = peer_consistent_answers(defn65.system, "P1", defn65.instance,
                                     defn65.queries["P1"])
    assert via_programs.answers == direct.answers == {("a", "2"), ("d", "5")}

    defn12 = load("ex_5_12.pdes")
    assert restricted_import_solve(defn12.system, "P1",
                                   defn12.instance).inconsistent

    defn13 = load("ex_5_13.pdes")
    res13 = restricted_import_solve(defn13.system, "P", defn13.instance)
    assert len(res13.solutions) == 2


def _chain_system(n_facts: int, n_peers: int = 2):
    """P1 -less-> P2 -less-> ... Pk with copy rules and the facts at Pk."""
    peers = ["P%d" % i for i in range(1, n_peers + 1)]
    schemas = {p: Schema({"R" + p[1:]: 2}) for p in peers}
    sigma = {(p, q): (parse_constraint(
        "dec %s %s : forall x,y : R%s(x,y) -> R%s(x,y)"
        % (p, q, q[1:], p[1:])),) for p, q in zip(peers, peers[1:])}
    trust = frozenset((p, "less", q) for p, q in zip(peers, peers[1:]))
    sysm = PdesSchema(peers=frozenset(peers), schemas=schemas, sigma=sigma,
                      trust=trust)
    last = peers[-1]
    facts = {Atom("R" + last[1:], ("c%d" % i, str(i)))
             for i in range(n_facts)}
    inst = PdesInstance(sysm, {
        p: Instance(facts if p == last else set(), schemas[p])
        for p in peers})
    return sysm, inst


def test_10_import_fixpoint_scales_at_most_quadratically():
    sizes = [10, 25, 50, 100, 200]
    times = {}
    for n in sizes:
        sysm, inst = _chain_system(n)
        best = float("inf")
        for _ in range(3):
            with Stopwatch() as sw:
                out = import_solve(sysm, "P1", inst)
            best = min(best, sw.elapsed)
        assert len(out) == n
        times[n] = best
    # generous quadratic envelope with an additive floor for noise
    ratio = times[200] / max(times[10], 1e-4)
    assert ratio < (200 / 10) ** 2 * 4, times
    assert sum(times.values()) < 5.0, times


def test_10_copy_chain_checks_grow_linearly(monkeypatch):
    """On a copy chain every copy is forced, so each peer's repair search
    inserts them all in one batch and rescans once, not once per copy."""
    checks = []
    real = repair.holds_instantiation

    def counted(*args):
        checks.append(1)
        return real(*args)

    monkeypatch.setattr(repair, "holds_instantiation", counted)
    counts = {}
    for n in (40, 160):
        sysm, inst = _chain_system(n, n_peers=3)
        checks.clear()
        res = solutions(sysm, "P1", inst)
        assert len(res.solutions) == 1 and len(res.core) == n
        counts[n] = len(checks)
    assert counts[160] / counts[40] <= 5, counts


def test_10_copy_chain_fits_a_small_cap():
    # each peer's search holds its start state and one batched child
    sysm, inst = _chain_system(160, n_peers=3)
    res = solutions(sysm, "P1", inst, cap=8)
    assert len(res.solutions) == 1 and len(res.core) == 160


# 11 --------------------------------------------------------------------

_DEC_SHAPES = [
    "forall x,y : {src}(x,y) -> {dst}(x,y)",
    "forall x,y : {src}(x,y) -> exists z : {dst}(x,z)",
    "forall x,y : {dst}(x,y), {src}(x,y) -> false",
    "forall x,y : {src}(x,y) -> {dst}(x,y) or x = y",
]
_LOCAL_FD = "forall x,y,z : {r}(x,y), {r}(x,z) -> y = z"


def _random_system(rng):
    n = rng.choice([2, 2, 3])
    peers = ["P%d" % i for i in range(1, n + 1)]
    schemas = {p: Schema({"R%d" % i: 2}) for i, p in enumerate(peers, 1)}
    edges = [("P1", "P2")]
    if n == 3:
        edges.append(rng.choice([("P2", "P3"), ("P1", "P3")]))
    trust, sigma = set(), {}
    for (p, q) in edges:
        trust.add((p, rng.choice(["less", "same"]), q))
        shape = rng.choice(_DEC_SHAPES)
        text = shape.format(src="R" + q[1], dst="R" + p[1])
        sigma[(p, q)] = (parse_constraint(
            "dec %s %s : %s" % (p, q, text)),)
    if rng.random() < 0.4:
        sigma[("P1", "P1")] = (parse_constraint(
            "dec P1 P1 : " + _LOCAL_FD.format(r="R1")),)
    sysm = PdesSchema(peers=frozenset(peers), schemas=schemas,
                      sigma=sigma, trust=frozenset(trust))
    dom = ["a", "b", "c"]
    data = {}
    for i, p in enumerate(peers, 1):
        pool = dom + [NULL] if p == "P1" else dom
        data[p] = Instance(
            {Atom("R%d" % i, (rng.choice(pool), rng.choice(pool)))
             for _ in range(rng.randint(0, 2))}, schemas[p])
    return sysm, PdesInstance(sysm, data)


_ASP_UNSUPPORTED = {("ex_5_2.pdes", "P"), ("ex_5_4.pdes", "P"),
                    ("ex_5_6.pdes", "P1")}


def _asp_route(system, p, inst):
    return _solve(system, p, inst, asp_solutions, DEFAULT_CAP, {})


def test_11_programs_agree_with_direct_solver():
    # Every peer is solved through its own program, its neighbors too.
    # The minimality filter in asp_solutions is part of the route: the
    # programs alone may admit extra models when a deletion re-opens an
    # existential obligation that a null witness then satisfies.
    rng = random.Random(11)
    compared = refused = 0
    with Stopwatch() as sw:
        for name in sorted(os.listdir(FIXTURES)):
            if name == "cyclic_graph.pdes":  # refused at load: a cycle
                continue
            defn = load(name)
            sysm, inst = defn.system, defn.instance
            for p in sorted(sysm.peers):
                # unsupported shapes, and the delta preorder, which the
                # programs' != null guards cannot encode
                if (name, p) in _ASP_UNSUPPORTED or (
                        sysm.preorder == "delta" and sysm.sigma_of(p)):
                    with pytest.raises(SchemaError):
                        _asp_route(sysm, p, inst)
                    refused += 1
                    continue
                want = solution_sets(solutions(sysm, p, inst).solutions)
                got = solution_sets(_asp_route(sysm, p, inst).solutions)
                assert want == got, (name, p)
                compared += 1
        for trial in range(200):
            sysm, inst = _random_system(rng)
            for p in sorted(sysm.peers):
                want = solution_sets(solutions(sysm, p, inst).solutions)
                got = solution_sets(_asp_route(sysm, p, inst).solutions)
                assert want == got, (trial, p)
    assert (compared, refused) == (34, 9)
    assert sw.elapsed < 300.0


# 12 --------------------------------------------------------------------

def test_12_equal_trust_systems_always_have_solutions():
    rng = random.Random(12)
    for trial in range(200):
        while True:
            sysm, inst = _random_system(rng)
            if all(t[1] == "same" for t in sysm.trust):
                break
        ns = neighborhood_solutions(
            sysm, "P1", core_neighborhood(sysm, "P1", inst))
        assert len(ns) >= 1, trial
        res = solutions(sysm, "P1", inst)
        assert not res.inconsistent and len(res.solutions) >= 1, trial


# 13 --------------------------------------------------------------------

def test_13_reference_cycles_and_post_filter():
    defn = load("cyclic_same.pdes")
    dbar = neighborhood(defn, "P1")
    prog = build_solution_program(defn.system, "P1", dbar)
    assert prog.warnings
    assert len(stable_models(ground(prog))) == 2
    filtered = asp_solutions(defn.system, "P1", dbar)
    assert solution_sets(filtered) == {frozenset({"R1(a,b)"})}

    defn = load("cyclic_less.pdes")
    dbar = neighborhood(defn, "P1")
    prog = build_solution_program(defn.system, "P1", dbar)
    assert len(stable_models(ground(prog))) == 1
    insts = asp_solutions(defn.system, "P1", dbar)
    assert solution_sets(insts) == {frozenset({"R1(a,b)"})}


# 14 --------------------------------------------------------------------

CLI_CASES = [
    ("check_2_2.json", ["check", "ex_2_2.pdes", "--format", "json"]),
    ("ns_3_2.txt", ["ns", "ex_3_2.pdes", "--peer", "P1"]),
    ("solutions_3_6.json", ["solutions", "ex_3_6.pdes", "--peer", "P2",
                            "--format", "json"]),
    ("chase_5_2.txt", ["chase", "ex_5_2.pdes", "--peer", "P"]),
    ("asp_emit_6_2.txt", ["asp", "emit", "ex_6_2.pdes", "--peer", "P1"]),
    ("asp_solve_cyclic_same.txt", ["asp", "solve", "cyclic_same.pdes",
                                   "--peer", "P1"]),
]


@pytest.mark.parametrize("golden,args", CLI_CASES,
                         ids=[g for g, _ in CLI_CASES])
def test_14_cli_output_is_byte_identical_across_runs(golden, args):
    with open(os.path.join(GOLDEN, golden), "rb") as fh:
        expected = fh.read()
    args = [fixture_path(a) if a.endswith(".pdes") else a for a in args]
    settings = [
        {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1"},
        {"PYTHONHASHSEED": "1", "OMP_NUM_THREADS": "2"},
        {"PYTHONHASHSEED": "2", "OMP_NUM_THREADS": "4"},
    ]
    for env_extra in settings:
        env = dict(os.environ, **env_extra)
        res = subprocess.run([sys.executable, "-m", "pdes.cli"] + args,
                             capture_output=True, env=env)
        assert res.returncode == 0, res.stderr
        assert res.stdout == expected, env_extra
