"""Regenerate reference.json, the expected output of every job any seed can
draw.  Run from the checkout root:

    python3 perfbench/make_reference.py

Only regenerate when a change is meant to alter outputs, and say which
outputs changed and why.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import workloads  # noqa: E402
from fuchsian import builtin, cli, solver  # noqa: E402


def main() -> int:
    ref = {"solve-dense": {}, "certify-grid": {}, "cli-small": {}}
    for s in range(len(workloads.SOLVE_SHAPES)):
        for v in range(workloads.SOLVE_VARIANTS):
            eq = builtin.parse_equation(workloads.solve_document(s, v))
            sol = solver.solve_formal(eq, eq.F.k_t, verify=True)
            assert sol.verified, (s, v)
            ref["solve-dense"][f"{s}/{v}"] = workloads.series_digest(sol.u)

    certify = [["remark3"], ["remark3_forced"]] + [
        ["remark3", "--seed", str(s)] for s in range(workloads.CERTIFY_SEEDS)]
    builtins = workloads.BUILTINS
    small = ([["check", b] for b in builtins]
             + [["solve", b, "--order", str(k)] for b in builtins
                for k in workloads.CLI_SOLVE_ORDERS]
             + [["verify-example", b] for b in builtins]
             + [["certify", "remark2"]])
    env = dict(os.environ, PYTHONPATH=SRC)
    with tempfile.TemporaryDirectory(dir=os.path.dirname(HERE)) as tmp:
        out = os.path.join(tmp, "report.json")
        for argv in certify:
            code = cli.main(["certify", *argv, "--out", out])
            with open(out, "rb") as fh:
                ref["certify-grid"][" ".join(argv)] = \
                    workloads.observe_report(code, fh.read())
        for argv in small:
            code = subprocess.run([sys.executable, "-m", "fuchsian.cli",
                                   *argv, "--out", out], env=env).returncode
            with open(out, "rb") as fh:
                ref["cli-small"][" ".join(argv)] = \
                    workloads.observe_report(code, fh.read())
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
