"""Behaviour lock: canonical reports of the built-in CLI invocations.

Each report under tests/golden/ is what one invocation wrote with `--out`;
equation files named in an invocation live in tests/golden/inputs/.  A rerun must reproduce it byte for byte; a change that moves a
float in a report must regenerate the file and say which float and why.
"""

from pathlib import Path

import pytest

from fuchsian.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

CASES = [
    ("check_remark3.json", ["check", "remark3"], 0),
    ("solve_remark3_forced.json", ["solve", "remark3_forced"], 0),
    ("certify_remark3.json", ["certify", "remark3"], 1),
    ("certify_remark3_forced.json", ["certify", "remark3_forced"], 1),
    ("certify_remark3_seed7.json", ["certify", "remark3", "--seed", "7"], 1),
    ("verify-example_remark3.json", ["verify-example", "remark3"], 0),
    ("check_remark2.json", ["check", "remark2"], 0),
    ("verify-example_remark2.json", ["verify-example", "remark2"], 0),
    ("verify-example_remark3_forced.json",
     ["verify-example", "remark3_forced"], 0),
    # remark2 has no exponent margin h: the HypothesisViolated path
    ("certify_remark2.json", ["certify", "remark2"], 2),
    # irrational indicial roots, read from tests/golden/inputs/: real ones
    # (s^2 + 3 s + 1) and a complex pair (s^2 + s + 1)
    ("check_irrational_real.json", ["check", "irrational_real.json"], 0),
    ("check_complex_pair.json", ["check", "complex_pair.json"], 0),
    # solve-dense shape 0 variant 0: shift_z and substitute_z_linear expand
    # a 150-term right-hand side, where the built-ins expand 3 terms;
    # --kappa 2/5 keeps the anchor time above float underflow
    ("certify_dense_0_0.json",
     ["certify", "dense_0_0.json", "--grid", "6x6", "--kappa", "2/5"], 1),
]


@pytest.mark.parametrize("name,argv,code", CASES,
                         ids=[name[:-5] for name, _, _ in CASES])
def test_golden_report(tmp_path, monkeypatch, name, argv, code):
    # file inputs are named relative to their folder, so input.path is
    # the same wherever the suite runs
    monkeypatch.chdir(INPUTS)
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
