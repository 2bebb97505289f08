"""One set-up of a workload in a fresh interpreter.

    python setup_child.py WORKLOAD SEED WORKDIR

Times `import pdes.cli` and then the workload's set-up in WORKDIR
(writing its inputs and the discarded warm-up requests), and prints both
times as one JSON object. run.py starts it for each set-up repeat, so
every repeat pays the one-time costs of a new process: imports, memos
and caches filled on the first call.
"""

import json
import sys
import time


def main() -> int:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    import run  # the benchmark's own modules, before the clock starts
    assert "pdes" not in sys.modules
    start = time.perf_counter()
    import pdes.cli  # noqa: F401
    imported = time.perf_counter()
    run.WORKLOADS[workload](seed).setup(workdir)
    end = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "setup_s": end - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
