"""Behaviour lock over a wide spread of CLI invocations: for each argv in
tests/golden/corpus.json, the exit code and the sha256 of what main writes
to stdout.  The goldens keep whole reports for a few invocations; this
keeps one digest line for each of many, so a change that moves one byte of
any of these reports fails here and names the invocation.

Equation files are named relative to one folder that holds the golden
inputs and the solve-dense documents of perfbench/workloads.py (shape s,
variant 1, as dense_<s>_1.json), so input.path and input.sha256 are the
same wherever the suite runs.  The n = 3 probe d3.json stays out: its
shift takes seconds.

After a declared report change, rewrite the manifest with
`PYTHONPATH=src python tests/test_report_corpus.py` and list every changed
line.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from fuchsian.cli import main

TESTS = Path(__file__).resolve().parent
INPUTS = TESTS / "golden" / "inputs"
MANIFEST = TESTS / "golden" / "corpus.json"
GOLDEN_FILES = ("complex_pair.json", "dense_0_0.json", "irrational_real.json")
DENSE_SHAPES = range(10)


def _load_workloads():
    path = TESTS.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("corpus_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    # dataclass looks its module up in sys.modules
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


def corpus_argvs() -> list:
    certify_flags = [[], *(["--seed", str(s)] for s in range(1, 9)),
                     ["--w", "1,1,2;-1/3,2,1"], ["--kappa", "1/7"],
                     ["--eps00", "1/3"], ["--grid", "7x3"], ["--grid", "1x1"],
                     ["--grid", "13x2"], ["--order", "6"]]
    argvs = []
    for name in ("remark2", "remark3", "remark3_forced"):
        argvs += [["check", name], ["solve", name],
                  ["solve", name, "--order", "4"],
                  ["solve", name, "--order", "6"], ["verify-example", name]]
    argvs.append(["certify", "remark2"])
    for name in ("remark3", "remark3_forced"):
        argvs += [["certify", name, *flags] for flags in certify_flags]
    for name in GOLDEN_FILES:
        argvs += [["check", name], ["solve", name], ["certify", name],
                  ["certify", name, "--kappa", "2/5", "--grid", "6x6"]]
    for s in DENSE_SHAPES:
        name = f"dense_{s}_1.json"
        argvs += [["solve", name],
                  ["certify", name, "--kappa", "2/5", "--grid", "6x6"]]
    # exit 2: refused flags, a refused test function, an unreadable input
    argvs += [["check", "remark3", "--order", "0"],
              ["solve", "remark3", "--x-order", "-1"],
              ["certify", "remark3", "--grid", "0x5"],
              ["certify", "remark3", "--kappa", "1/2"],
              ["certify", "remark3", "--eps00", "0"],
              ["certify", "remark3", "--tol", "0"],
              ["certify", "remark3", "--tfloor", "1"],
              ["certify", "remark3", "--w", "1,0,0"],
              ["certify", "remark3", "--w", "1,11,0"],
              ["verify-example", "remark3", "--exponent-p", "65"],
              ["check", "missing.json"]]
    return argvs


def run_corpus() -> list:
    """Run every argv of the corpus in process; one manifest line each."""
    workloads = _load_workloads()
    lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as folder:
        for name in GOLDEN_FILES:
            shutil.copyfile(INPUTS / name, Path(folder) / name)
        for s in DENSE_SHAPES:
            (Path(folder) / f"dense_{s}_1.json").write_text(
                json.dumps(workloads.solve_document(s, 1)))
        os.chdir(folder)
        try:
            for argv in corpus_argvs():
                out = io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main(argv)
                digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
                lines.append({"argv": argv, "code": code,
                              "stdout_sha256": digest})
        finally:
            os.chdir(cwd)
    return lines


def test_every_report_matches_its_manifest_line():
    manifest = json.loads(MANIFEST.read_text())
    assert [line["argv"] for line in manifest] == corpus_argvs()
    changed = [(want["argv"], want["code"], got["code"])
               for want, got in zip(manifest, run_corpus()) if want != got]
    assert changed == []


if __name__ == "__main__":
    MANIFEST.write_text("[\n" + ",\n".join(
        json.dumps(line) for line in run_corpus()) + "\n]\n")
