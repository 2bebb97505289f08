"""Seeded definition-file families for the benchmark, each with its
expected answers in closed form.

A seed changes only constant names and values. Tuple counts, the number
of distinct constants and the sort order of the constants by structural
role stay fixed, so every request of a workload does the same work and
the latency tail reflects the program rather than the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

COPY_CHAIN_N = 48
CONFLICTS_SIZES = {"k": 3, "m": 3, "c": 4}
ASP_CONFLICTS_SIZES = {"k": 2, "m": 1, "c": 0}

# the paper's example fixtures run by cli_examples: the golden cases of
# the CLI tests, then the documented refusals with their exit codes
GOLDEN_CASES = (
    ("check_2_2.txt", ("check", "ex_2_2.pdes")),
    ("check_2_2.json", ("check", "ex_2_2.pdes", "--format", "json")),
    ("pca_1_1.txt", ("pca", "ex_1_1.pdes", "--peer", "P1")),
    ("pca_1_1.json", ("pca", "ex_1_1.pdes", "--peer", "P1",
                      "--format", "json")),
    ("ns_3_2.txt", ("ns", "ex_3_2.pdes", "--peer", "P1")),
    ("solutions_3_6.json", ("solutions", "ex_3_6.pdes", "--peer", "P2",
                            "--format", "json")),
    ("core_3_6.txt", ("core", "ex_3_6.pdes", "--peer", "P2")),
    ("repairs_5_5.txt", ("repairs", "ex_5_5.pdes", "--peer", "P")),
    ("chase_5_2.txt", ("chase", "ex_5_2.pdes", "--peer", "P")),
    ("import_6_1.txt", ("import-solve", "ex_6_1.pdes", "--peer", "P1")),
    ("asp_emit_6_2.txt", ("asp", "emit", "ex_6_2.pdes", "--peer", "P1")),
    ("asp_solve_cyclic_same.txt", ("asp", "solve", "cyclic_same.pdes",
                                   "--peer", "P1")),
    ("pca_4_11.txt", ("pca", "ex_4_11.pdes", "--peer", "P")),
)
REFUSALS = (
    (1, ("check", "cyclic_graph.pdes")),
    (1, ("pca", "ex_2_2.pdes", "--peer", "P1")),
    (1, ("import-solve", "ex_2_2.pdes", "--peer", "P2")),
    (3, ("--cap", "2", "asp", "solve", "ex_6_2.pdes", "--peer", "P1")),
)


@dataclass(frozen=True)
class Family:
    """One generated definition file, the `pdes` arguments that follow
    the file name, and the answers the closed form predicts."""

    text: str
    args: tuple[str, ...]
    answers: frozenset[str]
    n_solutions: int


def _names(rng: random.Random, prefix: str, n: int) -> list[str]:
    """n distinct constants, returned in sorted order so that the i-th
    one always plays the i-th role whatever the seed."""
    return ["%s%06d" % (prefix, x)
            for x in sorted(rng.sample(range(10 ** 6), n))]


def _instance_line(peer: str, atoms: list[str]) -> str:
    return "instance %s : %s" % (peer, ", ".join(atoms)) if atoms else ""


def answers_text(answers) -> str:
    """`pdes pca` text output for a set of unary answers."""
    return "".join("<%s>\n" % a for a in sorted(answers))


def copy_chain(seed: int, n: int = COPY_CHAIN_N) -> Family:
    """P1 -less-> P2 -less-> P3 with copy rules and n tuples at P3: one
    solution, and every key at P3 is a certain answer at P1."""
    rng = random.Random(seed)
    keys = _names(rng, "k", n)
    vals = _names(rng, "v", n)
    lines = [
        "# copy chain, seed %d" % seed,
        "peer P1 : R1/2",
        "peer P2 : R2/2",
        "peer P3 : R3/2",
        "trust P1 less P2",
        "trust P2 less P3",
        "dec P1 P2 : forall x,y : R2(x,y) -> R1(x,y)",
        "dec P2 P3 : forall x,y : R3(x,y) -> R2(x,y)",
        _instance_line("P3", ["R3(%s,%s)" % kv for kv in zip(keys, vals)]),
        "query P1 : exists y : R1(x,y)",
    ]
    return Family("\n".join(lines) + "\n", ("pca", "--peer", "P1"),
                  frozenset(keys), 1)


def conflicts(seed: int, k: int = 3, m: int = 3, c: int = 4,
              args: tuple[str, ...] = ("pca", "--peer", "P1")) -> Family:
    """P1 -same-> P2. P1 has a local FD over k keys that each hold two
    values plus c clean keys; P2 holds m keys that need a null witness
    at P1. Each conflict key keeps one of its values and each witness is
    either inserted at P1 or its source deleted at P2, so there are
    2^(k+m) solutions and the certain answers are the conflict keys plus
    the clean keys."""
    rng = random.Random(seed)
    keys = _names(rng, "k", k + m + c)
    vals = _names(rng, "v", 2 * k + c + m)
    conflict, witness, clean = keys[:k], keys[k:k + m], keys[k + m:]
    p1 = ["R1(%s,%s)" % (x, vals[2 * i + j])
          for i, x in enumerate(conflict) for j in (0, 1)]
    p1 += ["R1(%s,%s)" % (x, vals[2 * k + i]) for i, x in enumerate(clean)]
    p2 = ["R2(%s,%s)" % (x, vals[2 * k + c + i])
          for i, x in enumerate(witness)]
    lines = [
        "# FD conflicts with null witnesses, seed %d" % seed,
        "peer P1 : R1/2",
        "peer P2 : R2/2",
        "trust P1 same P2",
        "dec P1 P1 : forall x,y,z : R1(x,y), R1(x,z) -> y = z",
        "dec P1 P2 : forall x,y : R2(x,y) -> exists z : R1(x,z)",
        _instance_line("P1", sorted(p1)),
        _instance_line("P2", sorted(p2)),
        "query P1 : exists y : R1(x,y)",
    ]
    return Family("\n".join(lines) + "\n", args,
                  frozenset(conflict + clean), 2 ** (k + m))


def asp_conflicts(seed: int) -> Family:
    """The conflicts family, small enough for the solution program."""
    return conflicts(seed, args=("asp", "solve", "--peer", "P1"),
                     **ASP_CONFLICTS_SIZES)
