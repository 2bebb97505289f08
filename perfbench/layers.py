"""Per-layer tracing from outside the program.

Each public function named in SPECS is wrapped at every `pdes` module
that binds it, because the package imports names with
``from .x import y``. A wrapped call is a frame: its self time is its
duration minus the durations of the wrapped calls made inside it. Leaf
frames (constraint checks and closeness comparisons, called thousands of
times per request) only add to their key's call count and time; all
other frames are also kept as spans with name, start, end, parent and
request id, held in memory and written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


def _len_result(_args, result) -> int:
    return len(result)


def _len_repairs(_args, result) -> int:
    return len(result.repairs)


def _len_solutions(_args, result) -> int:
    return len(result.solutions)


def _chase_added(args, result) -> int:
    return len(result.atoms) - len(args[0].atoms)


def _dbar_atoms(args, _result) -> int:
    return len(args[2])


@dataclass(frozen=True)
class Spec:
    """Wrap ``module.name`` under ``key``. With ``only`` set, wrap just the
    binding in that module; otherwise wrap every binding in `pdes`.
    ``counters`` add a number derived from (args, result) per call."""

    key: str
    module: str
    name: str
    only: str | None = None
    leaf: bool = False
    counters: tuple[tuple[str, Callable], ...] = ()


SPECS = (
    Spec("cli", "pdes.cli", "main", only="pdes.cli"),
    Spec("deffile", "pdes.deffile", "load_definition"),
    Spec("system", "pdes.system", "peer_consistent_answers"),
    Spec("system", "pdes.system", "solutions",
         counters=(("system.solutions_out", _len_solutions),)),
    Spec("system.ns", "pdes.system", "neighborhood_solutions",
         counters=(("system.dbar_atoms", _dbar_atoms),
                   ("system.ns_out", _len_result))),
    Spec("repair", "pdes.repair", "null_repairs",
         counters=(("repair.repairs_out", _len_repairs),)),
    Spec("repair", "pdes.repair", "delta_repairs",
         counters=(("repair.repairs_out", _len_repairs),)),
    Spec("repair.checks", "pdes.nullsem", "holds_instantiation",
         only="pdes.repair", leaf=True),
    Spec("repair.comparisons", "pdes.repair", "closer_lt",
         only="pdes.repair", leaf=True),
    Spec("repair.comparisons", "pdes.repair", "delta_lt",
         only="pdes.repair", leaf=True),
    Spec("chase", "pdes.chase", "r_chase",
         counters=(("chase.atoms_added", _chase_added),)),
    Spec("chase.checks", "pdes.nullsem", "holds_instantiation",
         only="pdes.chase", leaf=True),
    Spec("nullsem.answers", "pdes.nullsem", "n_answers", leaf=True),
    Spec("nullsem.answers", "pdes.nullsem", "classical_answers", leaf=True),
    Spec("importmode", "pdes.importmode", "import_solve"),
    Spec("importmode", "pdes.importmode", "restricted_import_solve"),
    Spec("importmode", "pdes.importmode", "classify"),
    Spec("importmode", "pdes.importmode", "least_model"),
    Spec("asp", "pdes.asp", "asp_solutions"),
    Spec("asp", "pdes.asp", "pca_via_asp"),
    Spec("asp.build", "pdes.asp", "build_solution_program"),
    Spec("asp.ground", "pdes.asp", "ground",
         counters=(("asp.ground.rules", _len_result),)),
    Spec("asp.stable", "pdes.asp", "stable_models",
         counters=(("asp.models_out", _len_result),)),
    Spec("asp.comparisons", "pdes.repair", "closer_lt",
         only="pdes.asp", leaf=True),
)


class Tracer:
    """Frames, spans and counters of one run. ``install`` wraps the
    functions, ``uninstall`` restores them; between the two, every
    wrapped call is recorded against ``request``."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.request = 0
        self._stack: list[list] = []  # [span index or None, child seconds]
        self._saved: list[tuple] = []

    # ----------------------------------------------------------- wrapping

    def install(self) -> None:
        self.absent = []
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "pdes" or n.startswith("pdes.")]
        targets = []
        for spec in SPECS:  # resolve every target before wrapping any
            try:
                target = getattr(importlib.import_module(spec.module),
                                 spec.name)
            except (ImportError, AttributeError):
                self.absent.append("%s.%s" % (spec.module, spec.name))
                continue
            bound = [(m, attr) for m in mods
                     if spec.only in (None, m.__name__)
                     for attr, v in vars(m).items() if v is target]
            if bound:
                targets.append((spec, target, bound))
            else:
                self.absent.append("%s.%s" % (spec.only or spec.module,
                                              spec.name))
        for spec, target, bound in targets:
            wrapper = self._wrap(spec, target)
            for m, attr in bound:
                self._saved.append((m, attr, target))
                setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, target in reversed(self._saved):
            setattr(m, attr, target)
        self._saved = []

    def _wrap(self, spec: Spec, fn: Callable) -> Callable:
        key, leaf, counters = spec.key, spec.leaf, spec.counters
        stack, spans = self._stack, self.spans
        calls, self_s, counts = self.calls, self.self_s, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if leaf:
                frame = [None, 0.0]
            else:
                parent = next((f[0] for f in reversed(stack)
                               if f[0] is not None), None)
                frame = [len(spans), 0.0]
                spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                calls[key] += 1
                self_s[key] += end - start - frame[1]
                if not leaf:
                    spans[frame[0]] = (key, fn.__name__, start, end, parent,
                                       self.request)
            for name, count in counters:
                counts[name] += count(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------ output

    def state(self) -> dict:
        """Counters and spans as plain data, for merging and writing."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts), "absent": list(self.absent),
                "spans": [list(s) for s in self.spans]}

    def merge(self, state: dict, request: int | None = None) -> None:
        """Add another tracer's state, such as a traced child process's,
        renumbering its spans; ``request`` replaces their request id."""
        for k, v in state["calls"].items():
            self.calls[k] += v
        for k, v in state["self_s"].items():
            self.self_s[k] += v
        for k, v in state["counts"].items():
            self.counts[k] += v
        self.absent = sorted(set(self.absent) | set(state["absent"]))
        base = len(self.spans)
        for key, fn, start, end, parent, req in state["spans"]:
            self.spans.append((key, fn, start, end,
                               None if parent is None else parent + base,
                               req if request is None else request))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["key", "function", "start", "end",
                                  "parent", "request"],
                       **self.state()}, fh)


def metrics(tr: Tracer, requests: int) -> dict[str, float]:
    """Per-layer metrics, each a mean per traced request."""
    def per(v):
        return v / requests

    c, s, n = tr.calls, tr.self_s, tr.counts
    ns_out = n["system.ns_out"]
    return {
        "repair.calls": per(c["repair"]),
        "repair.self_s": per(s["repair"]),
        "repair.repairs_out": per(n["repair.repairs_out"]),
        "repair.checks": per(c["repair.checks"]),
        "repair.checks_s": per(s["repair.checks"]),
        "repair.comparisons": per(c["repair.comparisons"]),
        "repair.comparisons_s": per(s["repair.comparisons"]),
        "chase.calls": per(c["chase"]),
        "chase.self_s": per(s["chase"]),
        "chase.atoms_added": per(n["chase.atoms_added"]),
        "chase.checks": per(c["chase.checks"]),
        "chase.checks_s": per(s["chase.checks"]),
        "system.ns.calls": per(c["system.ns"]),
        "system.dbar_atoms": per(n["system.dbar_atoms"]),
        "system.ns_out": per(ns_out),
        "system.solutions_out": per(n["system.solutions_out"]),
        "system.useful_ratio": (n["system.solutions_out"] / ns_out
                                if ns_out else 0.0),
        "system.self_s": per(s["system"] + s["system.ns"]),
        "nullsem.answers.calls": per(c["nullsem.answers"]),
        "nullsem.answers_s": per(s["nullsem.answers"]),
        "importmode.calls": per(c["importmode"]),
        "importmode.self_s": per(s["importmode"]),
        "asp.self_s": per(s["asp"]),
        "asp.build_s": per(s["asp.build"]),
        "asp.ground.calls": per(c["asp.ground"]),
        "asp.ground.rules": per(n["asp.ground.rules"]),
        "asp.ground_s": per(s["asp.ground"]),
        "asp.stable.calls": per(c["asp.stable"]),
        "asp.stable_s": per(s["asp.stable"]),
        "asp.models_out": per(n["asp.models_out"]),
        "asp.comparisons": per(c["asp.comparisons"]),
        "asp.comparisons_s": per(s["asp.comparisons"]),
        "deffile.calls": per(c["deffile"]),
        "deffile.self_s": per(s["deffile"]),
        "cli.self_s": per(s["cli"]),
    }
