"""The benchmark checks every certify-grid job against the exit code, report
sha256 and violation counts in perfbench/reference.json, and every
solve-dense job against the verified flag and the digest of the exact
series.  Running those jobs here, in process as the benchmark does (every
certify job, every solve job), makes a change in report bytes, in the
solver or in its check fail the suite too, not only the benchmark."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from fuchsian import builtin, cli, solver

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  BENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    # dataclass looks its module up in sys.modules
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


WORKLOADS = _load_workloads()
observe_report = WORKLOADS.observe_report
REFERENCES = json.loads((BENCH / "reference.json").read_text())
REFERENCE = REFERENCES["certify-grid"]


@pytest.mark.parametrize("label", list(REFERENCE))
def test_certify_report_matches_benchmark_reference(label, tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(["certify", *label.split(), "--out", str(out)])
    assert observe_report(code, out.read_bytes()) == REFERENCE[label]


@pytest.mark.parametrize("label", list(REFERENCES["solve-dense"]))
def test_solve_matches_benchmark_reference(label):
    shape, variant = map(int, label.split("/"))
    eq = builtin.parse_equation(WORKLOADS.solve_document(shape, variant))
    sol = solver.solve_formal(eq, eq.F.k_t, verify=True)
    assert sol.verified
    assert (WORKLOADS.series_digest(sol.u)
            == REFERENCES["solve-dense"][label])
