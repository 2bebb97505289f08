"""The pdes benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client sends its next request only after the previous one
completes. A request is one `pdes` subcommand on one definition file.
The solver workloads call `pdes.cli.main` in-process, so that interpreter
start-up does not swamp the solver; `cli_examples` starts the CLI as a
subprocess per request. Every output is checked against a reference that
does not come from the route being timed; a wrong output, a traceback or
an unexpected exit code counts as failed and never stops the run.

With ``--trace 0`` the run reports the end-to-end metrics. With
``--trace 1`` it alternates traced and untraced rounds, reports the
per-layer metrics of the traced ones (see layers.py) and the tracing
overhead, and writes the spans to ``.perfbench/trace-<workload>.json``.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import families
from layers import Tracer, metrics as layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(ROOT, "tests", "fixtures")
GOLDEN = os.path.join(ROOT, "tests", "golden")
WORK = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 5
WARMUP_REQUESTS = 1
# a percentile is reported from at least this many samples beyond it
TAIL_SAMPLES = 10

# Host speed on shared machines drifts by up to a half over seconds to
# minutes with no change to the program, more than any run length within
# the time budget averages out. Every timing is therefore scaled to a
# reference speed: a fixed pure-Python probe, independent of `pdes`, is
# timed just before and just after it, and the time is multiplied by
# PROBE_REF_S over their mean. PROBE_REF_S is the probe's time on the
# host the baseline came from; changing it re-bases every figure.
PROBE_REF_S = 0.0055

def _ordered(x: int, y: int) -> tuple[int, int]:
    return (x, y) if x < y else (y, x)


def _probe_once() -> None:
    d = {"k%d" % i: (i, i * 7 % 13) for i in range(5000)}
    sorted(d.items(), key=lambda kv: kv[1])
    seen, out = set(), []
    for i in range(6000):
        t = _ordered(i % 97, i % 89)
        if t not in seen:
            seen.add(t)
            out.append(t)
    out.sort()


def probe() -> float:
    """Best of two timings of a loop that builds, probes and sorts dicts,
    sets and tuples, the operations `pdes` spends its time on; chosen
    because its slowdown under host contention tracks the workloads'."""
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        _probe_once()
        best = min(best, time.perf_counter() - start)
    return best


def _scale(elapsed: float, before: float, after: float) -> float:
    return elapsed * PROBE_REF_S * 2 / (before + after)


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PDES_CAP"}
    env["PYTHONPATH"] = SRC
    return env


def _run_child(cmd: list[str], workdir: str) -> tuple[int, bytes, bytes,
                                                     float]:
    """Run cmd to completion: its exit code, stdout, stderr and peak RSS
    in MB. Output goes through files in workdir, so that the child can be
    reaped with os.wait4, which gives its own resource usage."""
    with tempfile.TemporaryFile(dir=workdir) as out, \
            tempfile.TemporaryFile(dir=workdir) as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=out,
                                stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read(), usage.ru_maxrss / 1024


class InProcess:
    """A solver workload: one generated file, the same subcommand on it
    for every request, output checked against the closed form."""

    def __init__(self, name: str, make, seed: int):
        self.name, self.make, self.seed = name, make, seed
        self.expected = None  # set by reference(), after the warm-ups

    def setup(self, workdir: str) -> None:
        """Write the input and make the discarded warm-up requests."""
        fam = self.make(self.seed)
        self.path = os.path.join(workdir, self.name + ".pdes")
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(fam.text)
        self.family = fam
        self.argv = list(fam.args) + [self.path]
        for _ in range(WARMUP_REQUESTS):
            self.request(self.argv, None)

    def reference(self) -> None:
        """The expected stdout. For `asp solve` it is the solution part,
        rendered from `solutions` on the same file, which must agree with
        the closed-form solution count."""
        fam = self.family
        if fam.args[0] == "pca":
            self.expected = families.answers_text(fam.answers)
            return
        from pdes.core import atom_sort_key
        from pdes.deffile import load_definition
        from pdes.system import solutions
        defn = load_definition(self.path)
        res = solutions(defn.system, "P1", defn.instance)
        lines = []
        for i, s in enumerate(res.solutions, 1):
            lines.append("solution %d:" % i)
            lines += ["  " + str(a)
                      for a in sorted(s.atoms, key=atom_sort_key)]
        self.expected = "".join(line + "\n" for line in lines)
        if len(res.solutions) != fam.n_solutions:
            print("reference: %d solutions, closed form %d"
                  % (len(res.solutions), fam.n_solutions), file=sys.stderr)
            self.expected = None

    def rounds(self):
        while True:
            yield [self.argv]

    def request(self, argv, tracer) -> tuple[float, bool]:
        import pdes.cli
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = pdes.cli.main(argv)
        except (Exception, SystemExit) as e:  # counted, never raised
            elapsed = time.perf_counter() - start
            print("%s: %s: %r" % (self.name, type(e).__name__, e),
                  file=sys.stderr)
            return elapsed, False
        finally:
            if tracer is not None:
                tracer.uninstall()
        elapsed = time.perf_counter() - start
        return elapsed, code == 0 and self._check(out.getvalue())

    def _check(self, out: str) -> bool:
        if self.expected is None:  # during warm-up, or no trusted reference
            return False
        if self.family.args[0] == "pca":
            return out == self.expected
        at = out.find("solution 1:\n")
        return at >= 0 and (at == 0 or out[at - 1] == "\n") \
            and out[at:] == self.expected

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class CliExamples:
    """The paper's example fixtures through the `pdes` CLI, one subprocess
    per request, in a seeded order: golden stdout byte for byte, and the
    documented exit codes of the refusals."""

    name = "cli_examples"

    def __init__(self, seed: int):
        self.seed = seed
        self.expected: dict[str, bytes] = {}  # set by reference()
        self.peak_mb = 0.0  # the largest request child's peak RSS
        self.cases = [(0, args, golden)
                      for golden, args in families.GOLDEN_CASES]
        self.cases += [(code, args, None) for code, args in families.REFUSALS]

    def setup(self, workdir: str) -> None:
        """Compile the bytecode caches and make the discarded warm-up
        requests."""
        self.workdir = workdir
        compileall.compile_dir(os.path.join(SRC, "pdes"), quiet=1)
        for case in self.cases[:WARMUP_REQUESTS]:
            self.request(case, None)

    def reference(self) -> None:
        self.expected = {}
        for _, _, golden in self.cases:
            if golden is not None:
                with open(os.path.join(GOLDEN, golden), "rb") as fh:
                    self.expected[golden] = fh.read()

    def rounds(self):
        rng = random.Random(self.seed)
        while True:
            order = list(self.cases)
            rng.shuffle(order)
            yield order

    def request(self, case, tracer) -> tuple[float, bool]:
        code, args, golden = case
        args = [os.path.join(FIXTURES, a) if a.endswith(".pdes") else a
                for a in args]
        if tracer is None:
            cmd = [sys.executable, "-m", "pdes.cli"] + args
        else:
            state = os.path.join(self.workdir, "child-trace.json")
            cmd = [sys.executable, os.path.join(HERE, "child.py"), state] \
                + args
        start = time.perf_counter()
        returncode, stdout, stderr, peak_mb = _run_child(cmd, self.workdir)
        elapsed = time.perf_counter() - start
        self.peak_mb = max(self.peak_mb, peak_mb)
        ok = returncode == code and b"Traceback" not in stderr
        if tracer is not None:
            try:
                with open(state, encoding="utf-8") as fh:
                    tracer.merge(json.load(fh), tracer.request)
                os.remove(state)
            except FileNotFoundError:  # the child died before writing it
                ok = False
        if golden is not None:
            ok = ok and stdout == self.expected.get(golden)
        if not ok and self.expected:
            print("%s: %s exit %d" % (self.name, " ".join(case[1]),
                                      returncode), file=sys.stderr)
        return elapsed, ok

    def peak_rss_mb(self) -> float:
        return self.peak_mb


WORKLOADS = {
    "copy_chain": lambda seed: InProcess("copy_chain", families.copy_chain,
                                         seed),
    "conflicts": lambda seed: InProcess("conflicts", families.conflicts,
                                        seed),
    "asp_conflicts": lambda seed: InProcess(
        "asp_conflicts", families.asp_conflicts, seed),
    "cli_examples": CliExamples,
}


def _set_up(wl, workdir: str) -> tuple[float, float]:
    """Set the workload up SETUP_REPEATS times, each in a fresh
    interpreter (setup_child.py), so that every repeat pays the costs a
    new process pays once; the median of (import + inputs + warm-up) and
    of the import alone. Then set it up once more, untimed, in this
    process, which makes the measured requests."""
    totals, imports = [], []
    for i in range(SETUP_REPEATS):
        rep = os.path.join(workdir, "setup%d" % i)
        os.makedirs(rep)
        before = probe()
        res = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_child.py"), wl.name,
             str(wl.seed), rep],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            check=True)
        after = probe()
        times = json.loads(res.stdout.splitlines()[-1])
        totals.append(_scale(times["setup_s"], before, after))
        imports.append(_scale(times["import_s"], before, after))
    wl.setup(workdir)
    return statistics.median(totals), statistics.median(imports)


def _percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Run:
    """Scaled request times of the complete rounds, untraced and traced;
    the scaled wall time of those untraced requests, from the end of one
    probe to the start of the next, which takes in the client's own work
    between requests; the unscaled times and the probes of all requests;
    the attempted and failed counts, and the merged tracer of the
    complete traced rounds with their request count."""

    plain: list[float] = field(default_factory=list)
    plain_wall: float = 0.0
    traced: list[float] = field(default_factory=list)
    raw: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    tracer: Tracer = field(default_factory=Tracer)
    traced_requests: int = 0


def measure(wl, seconds: float, trace: bool) -> Run:
    """Run rounds until the time is up; each request's time is scaled by
    the probes around it. Traced runs alternate traced and untraced
    rounds, starting traced. Only complete rounds feed the timings and
    the layer metrics, so that every case of a round weighs the same and
    the counts repeat exactly; a run ends only after one complete round
    of each kind it makes."""
    run = Run()
    request_id = 0
    deadline = time.perf_counter() + seconds
    before = probe()
    mark = time.perf_counter()
    run.probes.append(before)
    for index, batch in enumerate(wl.rounds()):
        tracer = Tracer() if trace and index % 2 == 0 else None
        kept = run.traced if tracer is not None else run.plain
        must_finish = not kept
        times, wall = [], 0.0
        for req in batch:
            if time.perf_counter() >= deadline and not must_finish:
                break
            request_id += 1
            if tracer is not None:
                tracer.request = request_id
            elapsed, ok = wl.request(req, tracer)
            until = time.perf_counter()
            after = probe()
            times.append(_scale(elapsed, before, after))
            wall += _scale(until - mark, before, after)
            run.raw.append(elapsed)
            run.probes.append(after)
            before = after
            mark = time.perf_counter()
            run.attempted += 1
            run.failed += not ok
        if len(times) < len(batch):  # the time is up mid-round
            break
        kept.extend(times)
        if tracer is not None:
            run.tracer.merge(tracer.state())
            run.traced_requests += len(times)
        else:
            run.plain_wall += wall
    return run


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pdes", "cli.py")):
        print("error: no pdes sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.pop("PDES_CAP", None)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    import pdes.cli
    if not os.path.abspath(pdes.cli.__file__).startswith(SRC + os.sep):
        print("error: pdes imported from %s, not %s"
              % (pdes.cli.__file__, SRC), file=sys.stderr)
        return 2

    # keep the probe and the work it scales, children included, on one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=WORK)
    try:
        wl = WORKLOADS[args.workload](args.seed)
        setup_s, import_s = _set_up(wl, workdir)
        wl.reference()
        run = measure(wl, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        # layer times are scaled by the run's median probe
        speed = PROBE_REF_S / statistics.median(run.probes)
        values = {k: v * speed if units[k] == "s" else v
                  for k, v in layer_metrics(run.tracer,
                                            run.traced_requests).items()}
        values["cli.import_s"] = import_s
        values["trace.latency_p50_s"] = statistics.median(run.traced)
        values["trace.overhead_s"] = statistics.median(run.traced) - \
            statistics.median(run.plain)
        values["trace.absent"] = len(run.tracer.absent)
        run.tracer.write(os.path.join(WORK, "trace-%s.json" % args.workload))
        for name in run.tracer.absent:
            print("absent: %s" % name, file=sys.stderr)
    else:
        beyond = len(run.plain) - math.ceil(0.9 * len(run.plain))
        if beyond < TAIL_SAMPLES:
            print("warning: only %d samples beyond p90" % beyond,
                  file=sys.stderr)
        values = {
            "setup_s": setup_s,
            "latency_p50_s": statistics.median(run.plain),
            "latency_p90_s": _percentile(run.plain, 0.9),
            "throughput_rps": len(run.plain) / run.plain_wall,
            "peak_rss_mb": wl.peak_rss_mb(),
        }
    print("%s seed %d: %d attempted, %d timed, %d failed, unscaled p50 "
          "%.4f s" % (args.workload, args.seed, run.attempted,
                      len(run.plain) + len(run.traced), run.failed,
                      statistics.median(run.raw)), file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
