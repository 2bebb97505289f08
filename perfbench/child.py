"""Run one `pdes` command in a fresh interpreter with tracing on.

    python child.py STATE.json PDES-ARGS...

Runs the command under the tracer of layers.py, writes the tracer state
to STATE.json and exits with the command's exit code. run.py starts it
for the traced requests of `cli_examples`.
"""

import json
import sys


def main() -> int:
    state_path, argv = sys.argv[1], sys.argv[2:]
    import pdes.cli
    from layers import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        code = pdes.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(state_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.state(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
