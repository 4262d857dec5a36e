"""Child-process entry points of the benchmark.

    child.py setup WORKLOAD SEED [--small]
        time the import of fuchsian.cli plus building the workload's job
        list in a fresh interpreter; prints the seconds.
    child.py trace OUT.json CLI-ARGS...
        run `fuchsian.cli.main(CLI-ARGS)` with the tracer installed, write
        the trace summary and spans to OUT.json, exit with the CLI's code.

PYTHONPATH must point at the checkout's src directory.
"""

import json
import sys
from time import perf_counter


def main(argv) -> int:
    if argv[0] == "setup":
        import workloads
        t0 = perf_counter()
        workloads.setup(argv[1], int(argv[2]), "--small" in argv)
        print(perf_counter() - t0)
        return 0
    if argv[0] == "trace":
        import fuchsian.cli
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            code = fuchsian.cli.main(argv[2:])
        finally:
            tracer.uninstall()
        with open(argv[1], "w") as fh:
            json.dump({"summary": tracer.summary(),
                       "spans": tracer.written_spans()}, fh)
        return code
    raise SystemExit(f"unknown mode {argv[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
