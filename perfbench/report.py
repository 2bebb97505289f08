"""Print every benchmark metric by name and unit, for each workload.

    python3 perfbench/report.py --seed 1 --seconds 28

Runs run.py once untraced and once traced per workload, then prints
one line per metric: workload, name, value, unit. It adds the sample
count and ``failed_ratio`` (failed over attempted requests), which
run.py reports through its ``attempted`` and ``failed`` keys. Exits 1
if any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("copy_chain", "conflicts", "asp_conflicts", "cli_examples")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=os.path.dirname(HERE),
                         capture_output=True, text=True)
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        raise SystemExit("%s exited %d" % (" ".join(cmd), res.returncode))
    return json.loads(res.stdout.splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28)
    args = ap.parse_args()
    correct = True
    for wl in WORKLOADS:
        for trace in (0, 1):
            out = run(wl, args.seed, args.seconds, trace)
            correct &= out["correct"]
            kind = "traced" if trace else "untraced"
            print("%-14s %-24s %14d %s" % (wl, kind + ".samples",
                                           out["attempted"], "count"))
            if not trace:
                print("%-14s %-24s %14.6g %s" % (
                    wl, "failed_ratio", out["failed"] / out["attempted"],
                    "1"))
            for name, m in out["metrics"].items():
                print("%-14s %-24s %14.6g %s" % (wl, name, m["value"],
                                                 m["unit"]))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
