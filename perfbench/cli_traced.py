"""Run the dialectid command line in this process with spans recorded.

    python3 perfbench/cli_traced.py SPANS_JSON dialectid-arguments...

Times `import dialectid.cli`, wraps the traced functions (see spans.py),
runs the command and writes {"import_s", "spans", "counts"} to SPANS_JSON.
The exit status is the command's own. Used by the traced `cli` workload.
"""

import json
import os
import sys
import time

from spans import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    start = time.perf_counter()
    import dialectid.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.phase = "op"
    tracer.op = 0
    tracer.install()
    try:
        status = dialectid.cli.run(argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans, "counts": tracer.counts}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
