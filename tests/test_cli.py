"""Command-line interface: exit codes, report shapes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuchsian import cli
from fuchsian.builtin import read_equation_source
from fuchsian.cli import MAX_GRID_POINTS, _parse_grid, main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    return rc, json.loads(out), err


# -- check ---------------------------------------------------------------


def test_check_remark3(capsys):
    rc, rep, _ = run_json(capsys, "check", "remark3")
    assert rc == 0
    res = rep["results"]
    assert res["exponents_exact"] == ["-2", "-1"]
    assert res["h_exact"] == "9/20"
    assert res["decay_applicable"] is True
    assert res["unique_formal"] is True


def test_check_remark2(capsys):
    rc, rep, _ = run_json(capsys, "check", "remark2")
    assert rc == 0
    res = rep["results"]
    assert res["exponents_exact"] == ["-1", "0"]
    assert res["h_exact"] is None
    assert res["decay_applicable"] is False


def test_check_unknown_name_fails_cleanly(capsys):
    rc, out, err = run(capsys, "check", "not_an_instance")
    assert rc == 2
    assert "not_an_instance" in err


def test_check_file_input(tmp_path, capsys):
    doc = {
        "name": "toy", "m": 2, "n": 1,
        "terms": [{"coeff": [-3, 1, 0, 1], "t_pow": 0, "x_pows": [0],
                   "z_pows": [{"i": 1, "alpha": [0], "pow": 1}]},
                  {"coeff": [-2, 1, 0, 1], "t_pow": 0, "x_pows": [0],
                   "z_pows": [{"i": 0, "alpha": [0], "pow": 1}]}],
        "truncation": {"K_t": 6, "K_x": 8, "K_z": 3},
    }
    p = tmp_path / "toy.json"
    p.write_text(json.dumps(doc))
    rc, rep, _ = run_json(capsys, "check", str(p))
    assert rc == 0
    assert rep["results"]["exponents_exact"] == ["-2", "-1"]
    assert rep["input"]["sha256"]


def test_check_non_object_truncation_is_input_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"m": 2, "n": 1, "terms": [],
                             "truncation": [1, 2]}))
    rc, rep, _ = run_json(capsys, "check", str(p))
    assert rc == 2
    assert rep["error"] == {"type": "InputError",
                            "message": "truncation must be an object"}


def test_check_non_string_name_is_input_error(tmp_path, capsys):
    p = tmp_path / "named.json"
    p.write_text(json.dumps({"m": 2, "n": 1, "terms": [], "name": 5,
                             "truncation": {"K_t": 2, "K_x": 2, "K_z": 2}}))
    rc, rep, _ = run_json(capsys, "check", str(p))
    assert rc == 2
    assert rep["error"] == {"type": "InputError",
                            "message": "name must be a string"}


@pytest.mark.parametrize("argv,cap,term,message", [
    # a t-free, jet-free forcing term past K_x = 12 (at x^12 it is kept,
    # and check refuses it under hypothesis A2)
    (["check"], None, {"t_pow": 0, "x_pows": [13]},
     "terms[3] is t^0 of x-degree 13, beyond the caps truncation.K_t = 10, "
     "K_x = 12"),
    # 5 t^3 z02^2 past K_t = 2: refused before certify does any work
    (["certify", "--order", "1", "--grid", "4x4"], 2,
     {"t_pow": 3, "x_pows": [0], "z_pows": [{"i": 0, "alpha": [2],
                                              "pow": 2}]},
     "terms[3] is t^3 of x-degree 0, beyond the caps truncation.K_t = 2, "
     "K_x = 12"),
], ids=["x13-check", "t3-certify"])
def test_term_past_the_t_or_x_truncation_is_input_error(
        tmp_path, capsys, argv, cap, term, message):
    doc = json.loads(read_equation_source("remark3")[0])
    if cap is not None:
        doc["truncation"]["K_t"] = cap
    doc["terms"].append({"coeff": [5, 1, 0, 1], **term})
    p = tmp_path / "remark3_past.json"
    p.write_text(json.dumps(doc))
    rc, rep, _ = run_json(capsys, argv[0], str(p), *argv[1:])
    assert rc == 2
    assert rep["error"] == {"type": "InputError", "message": message}


@pytest.mark.parametrize("command", ["check", "solve", "certify"])
def test_term_past_K_z_is_input_error(tmp_path, capsys, command):
    # remark3 at K_z = 1 would lose its only nonlinear term, z02^2
    doc = json.loads(read_equation_source("remark3")[0])
    doc["truncation"]["K_z"] = 1
    p = tmp_path / "remark3_kz1.json"
    p.write_text(json.dumps(doc))
    rc, rep, _ = run_json(capsys, command, str(p))
    assert rc == 2
    assert rep["error"] == {
        "type": "InputError",
        "message": "terms[2].z_pows must have z-degree at most "
                   "truncation.K_z = 1, got 2"}


def test_check_bool_order_is_input_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"m": True, "n": 1, "terms": [],
                             "truncation": {"K_t": 4, "K_x": 4, "K_z": 2}}))
    rc, rep, _ = run_json(capsys, "check", str(p))
    assert rc == 2
    assert rep["error"]["type"] == "InputError"


@pytest.mark.parametrize("text", [
    '{"m": 2, "n": 1, "x": 1' + "0" * 5000 + "}",   # past the digit limit
    "[" * 100000,                                  # past the decoder's stack
], ids=["long-integer", "deep-nesting"])
def test_check_undecodable_json_is_input_error(tmp_path, capsys, text):
    p = tmp_path / "bad.json"
    p.write_text(text)
    rc, rep, _ = run_json(capsys, "check", str(p))
    assert rc == 2
    assert rep["error"]["type"] == "InputError"
    assert rep["error"]["message"].startswith(f"invalid JSON in {p.stem}")


def test_check_order_zero_is_input_error(capsys):
    rc, rep, _ = run_json(capsys, "check", "remark3", "--order", "0")
    assert rc == 2
    assert rep["error"] == {"type": "InputError",
                            "message": "--order must be at least 1, got 0"}
    assert "results" not in rep


def test_check_directory_input_fails_cleanly(tmp_path, capsys):
    rc, out, err = run(capsys, "check", str(tmp_path))
    assert rc == 2
    assert "cannot read" in err


def test_check_empty_path_names_a_missing_file(tmp_path, capsys):
    # an empty path is no file; it is not the current directory.  Nor is a
    # file's path with a trailing slash, which names a directory
    doc = tmp_path / "remark3.json"
    doc.write_bytes(read_equation_source("remark3")[0])
    for source in ("", f"{doc}/"):
        rc, out, err = run(capsys, "check", source)
        assert rc == 2
        assert out == ""
        assert err == (f"error: no such equation file or builtin: {source!r} "
                       "(builtins: remark2, remark3, remark3_forced)\n")


def test_input_digest_is_of_the_parsed_bytes(tmp_path, capsys):
    p = tmp_path / "toy.json"
    data = json.dumps({"m": 2, "n": 1, "terms": [],
                       "truncation": {"K_t": 4, "K_x": 4, "K_z": 2}}).encode()
    p.write_bytes(data)
    rc, rep, _ = run_json(capsys, "check", str(p))
    assert rc == 0
    assert rep["input"] == {"path": str(p),
                            "sha256": hashlib.sha256(data).hexdigest()}


# SHA-256 pads to 64-byte blocks: 55 and 56 bytes straddle the one-block
# limit of the length field, 119 and 120 the two-block one
PADDING_EDGES = (55, 56, 64, 119, 120, 128)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.one_of(
    st.sampled_from(PADDING_EDGES).flatmap(
        lambda size: st.binary(min_size=size, max_size=size)),
    st.binary(max_size=64),
    st.binary(min_size=129, max_size=2000)))
@example(b"")
@example(bytes(range(55)))
@example(bytes(range(56)))
@example(bytes(range(64)))
@example(bytes(range(119)))
@example(bytes(range(120)))
@example(bytes(range(128)))
@example(bytes(range(256)) * 5)
def test_input_digest_binding_is_sha256(data):
    assert cli.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


def test_input_digest_falls_back_to_hashlib():
    # without the interpreter's built-in SHA-256 module the binding is
    # hashlib's, and the report's digest does not change
    script = ("import sys\n"
              "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
              "import contextlib, hashlib, io, json\n"
              "from fuchsian import cli\n"
              "buf = io.StringIO()\n"
              "with contextlib.redirect_stdout(buf):\n"
              "    cli.main(['check', 'remark3'])\n"
              "print(cli.sha256 is hashlib.sha256)\n"
              "print(json.loads(buf.getvalue())['input']['sha256'])")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0, out.stderr
    digest = hashlib.sha256(read_equation_source("remark3")[0]).hexdigest()
    assert out.stdout.splitlines() == ["True", digest]


# -- solve ---------------------------------------------------------------


def test_solve_forced_instance(capsys):
    rc, rep, _ = run_json(capsys, "solve", "remark3_forced", "--order", "4")
    assert rc == 0
    res = rep["results"]
    assert res["terms"] == [{"coeff": [1, 6, 0, 1], "t_pow": 1, "x_pows": [0]}]
    assert res["verified"] is True
    assert res["order"] == 4


def test_solve_homogeneous_is_zero(capsys):
    rc, rep, _ = run_json(capsys, "solve", "remark3", "--order", "4")
    assert rc == 0
    assert rep["results"]["terms"] == []


def test_solve_order_zero_is_input_error(capsys):
    rc, rep, _ = run_json(capsys, "solve", "remark3_forced", "--order", "0")
    assert rc == 2
    assert rep["error"] == {"type": "InputError",
                            "message": "--order must be at least 1, got 0"}
    assert "results" not in rep


def test_solve_default_x_order_too_small_names_degree_zero(capsys):
    # K_x = 12 leaves no x-degree at t-order 7: x-degree 0 needs 2 * 7
    rc, rep, _ = run_json(capsys, "solve", "remark3_forced", "--order", "7")
    assert rc == 2
    assert rep["error"] == {
        "type": "TruncationExhausted",
        "message": "need k_x >= 14 on the right-hand side for x-degree 0 "
                   "at t-order 7 (have 12)"}


def test_certify_names_the_order_and_cap_the_shift_needs(capsys):
    # the order-6 base solution of remark3_forced keeps x-cap 12 - 2 * 6 =
    # 0, too few for the shift's second x-derivatives (remark3's is zero:
    # its order-6 certify needs no shift and runs, tests/golden/corpus.json)
    rc, rep, _ = run_json(capsys, "certify", "remark3_forced", "--order", "6")
    assert rc == 2
    assert rep["error"] == {
        "type": "TruncationExhausted",
        "message": "need k_x >= 14 on the right-hand side to shift by a base "
                   "solution of t-order 6, whose x-cap 0 is below m = 2 "
                   "(have 12)"}


def test_solve_negative_x_order_is_input_error(capsys):
    rc, rep, _ = run_json(capsys, "solve", "remark3_forced", "--order", "3",
                          "--x-order", "-1")
    assert rc == 2
    assert rep["error"] == {"type": "InputError",
                            "message": "--x-order must be at least 0, got -1"}
    assert "results" not in rep


# -- certify -------------------------------------------------------------


def test_certify_order_zero_is_input_error(capsys):
    rc, rep, _ = run_json(capsys, "certify", "remark3", "--order", "0")
    assert rc == 2
    assert rep["error"] == {"type": "InputError",
                            "message": "--order must be at least 1, got 0"}
    assert "results" not in rep


def test_certify_reports_honest_violations(capsys):
    rc, rep, _ = run_json(capsys, "certify", "remark3", "--grid", "12x12")
    # the barrier inequality fails for a test function that is not a
    # solution; the command reports it and exits nonzero
    assert rc == 1
    barrier = rep["results"]["barrier"]
    assert not barrier["checks"]["barrier_dineq"]["ok"]
    assert barrier["checks"]["growth_bound_le_h"]["ok"]
    assert barrier["checks"]["phi_vs_q"]["ok"]
    assert barrier["checks"]["dphi_vs_dq"]["ok"]
    assert barrier["checks"]["envelope"]["ok"]
    chars = rep["results"]["characteristics"]
    assert chars["status"] == "extended-to-floor"
    assert chars["weighted_decay"]["ok"]
    assert chars["radius_bounds"]["ok"]
    assert chars["reaches_origin"]["ok"]
    assert rep["results"]["params_certificate"]["ok"]
    assert rep["ok"] is False


def test_certify_hypothesis_violated_exits_two(capsys):
    rc, out, err = run(capsys, "certify", "remark2", "--grid", "8x8")
    assert rc == 2
    rep = json.loads(out)
    assert rep["error"]["type"] == "HypothesisViolated"


def test_certify_deterministic_output(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    rc1, *_ = run(capsys, "certify", "remark3", "--grid", "10x10",
                  "--out", str(a))
    rc2, *_ = run(capsys, "certify", "remark3", "--grid", "10x10",
                  "--out", str(b))
    assert rc1 == rc2 == 1
    assert a.read_bytes() == b.read_bytes()


def test_certify_seeded_w_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "certify", "remark3", "--grid", "8x8", "--seed", "7",
        "--out", str(a))
    run(capsys, "certify", "remark3", "--grid", "8x8", "--seed", "7",
        "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_certify_corrupted_eps00_flags_growth_bound(capsys):
    rc, rep, _ = run_json(capsys, "certify", "remark3", "--grid", "10x10",
                          "--eps00", "9/2")
    assert rc == 1
    chk = rep["results"]["barrier"]["checks"]["growth_bound_le_h"]
    assert not chk["ok"]
    assert chk["violations"] == 100


@pytest.mark.parametrize("flag,value,fragment", [
    ("--eps00", "0", "--eps00 must be"),
    ("--eps00", "-1", "--eps00 must be"),
    ("--eps00", "1/0", "--eps00 must be"),
    ("--eps00", "abc", "--eps00 must be"),
    ("--kappa", "abc", "--kappa must be"),
    ("--kappa", "0", "--kappa must be"),
    ("--kappa", "1/2", "--kappa must be"),
    ("--kappa", "1/0", "--kappa must be"),
    # in range as rationals, but 0 or out of range as the floats the
    # barrier evaluates
    ("--kappa", "1e-400", "--kappa 1e-400 underflows to 0 as a float"),
    ("--eps00", "1e-330", "--eps00 1e-330 underflows to 0 as a float"),
    ("--eps00", "1e400", "--eps00 1e400 overflows a float"),
    ("--tol", "-1", "--tol must be"),
    ("--tol", "0", "--tol must be"),
    ("--tol", "nan", "--tol must be"),
    ("--tol", "inf", "--tol must be"),
    ("--tfloor", "0", "--tfloor must"),
    ("--tfloor", "1", "--tfloor must"),
    ("--tfloor", "-0.5", "--tfloor must"),
    ("--tfloor", "nan", "--tfloor must"),
    ("--tfloor", "inf", "--tfloor must"),
    ("--grid", "bogus", "grid must look like"),
    ("--grid", "0x5", "at least one point per axis"),
    # 10^10 points: refused from the spec alone, never run
    ("--grid", "100000x100000", "grid may hold at most 100000 points"),
    ("--grid", "317x316", "grid may hold at most 100000 points"),
    ("--w", "bogus", "coeff,tpow"),
    ("--w", "1,0,2", "must vanish at t = 0"),
    # a zero test function used to pass every check vacuously
    ("--w", "0,1,2", "w sums to zero: '0,1,2'"),
    ("--w", "1,1,2;-1,1,2", "w sums to zero: '1,1,2;-1,1,2'"),
    # past the 256 bits of an equation file's coefficients: 10^400 made
    # the profiles overflow a float, an internal error with exit 3
    ("--w", "1" + "0" * 400 + ",1,2", "coeff needs more than 256 bits"),
    ("--w", f"1,1,2;-1/{2 ** 256},2,0", "w term 1: coeff needs more than"),
    # Fraction would expand these exponents as 10 ** exp, seconds each
    ("--kappa", "1e-10000000",
     "--kappa '1e-10000000' has a decimal exponent of more than four"),
    ("--eps00", "2.5E+1_000_000",
     "--eps00 '2.5E+1_000_000' has a decimal exponent of more than four"),
    ("--w", "1,1,2;1e10000,2,0",
     "w term 1: coeff '1e10000' has a decimal exponent of more than four"),
])
@pytest.mark.parametrize("name", ["remark3", "remark2"])
def test_certify_bad_flag_is_input_error(capsys, name, flag, value, fragment):
    # remark2 has no margin h: a bad flag must still be named, not
    # masked by the hypothesis check
    rc, rep, _ = run_json(capsys, "certify", name, flag, value)
    assert rc == 2
    assert rep["error"]["type"] == "InputError"
    assert fragment in rep["error"]["message"]
    # refused before any work: no results were written
    assert "results" not in rep


def test_huge_decimal_exponent_is_refused_before_fraction(capsys,
                                                         monkeypatch):
    # the bound is read from the text: Fraction never sees the exponent
    def fraction(text, *rest):
        raise AssertionError(f"Fraction({text!r}) was called")

    monkeypatch.setattr(cli, "Fraction", fraction)
    for flag, value in (("--kappa", "1e-10000000"), ("--eps00", "1e10000001"),
                        ("--w", "-7e-100000,1,2")):
        rc, rep, _ = run_json(capsys, "certify", "remark3", f"{flag}={value}")
        assert rc == 2, rep
        assert "decimal exponent of more than four digits" \
            in rep["error"]["message"]


def test_grid_ceiling_admits_the_grids_in_use():
    # the default, choose_params' 12x12 and every grid the tests run
    for spec in ("50x50", "12x12", "8x8", "2x2", "1000x100"):
        nt, nrho = _parse_grid(spec)
        assert nt * nrho <= MAX_GRID_POINTS


def test_certify_underflowing_tfloor_is_input_error(capsys):
    # 5e-324 passes the (0, 1) check, but times the anchor time it is 0.0;
    # the product is known only after the grid has fixed the anchor time
    rc, rep, _ = run_json(capsys, "certify", "remark3", "--grid", "4x4",
                          "--tfloor", "5e-324")
    assert rc == 2
    assert rep["error"]["type"] == "InputError"
    message = rep["error"]["message"]
    assert "--tfloor 5e-324" in message and "underflows" in message


def test_certify_explicit_w(capsys):
    rc, rep, _ = run_json(capsys, "certify", "remark3", "--grid", "8x8",
                          "--w", "1/2,1,2")
    assert rc in (0, 1)
    assert rep["results"]["w_terms"] == [
        {"coeff": [1, 2, 0, 1], "t_pow": 1, "x_pows": [2]}]


def test_certify_w_at_the_coefficient_bit_limit_runs(capsys):
    # the profiles of a 256-bit coefficient stay finite floats: the box
    # search gives up on the huge one, and the tiny one runs the grid
    big = 2 ** 256 - 1
    rc, rep, _ = run_json(capsys, "certify", "remark3", "--grid", "4x4",
                          "--w", f"{big},1,2;1/{big},2,1")
    assert rc == 2 and rep["error"]["type"] == "SearchExhausted"
    rc, rep, _ = run_json(capsys, "certify", "remark3", "--grid", "4x4",
                          "--w", f"1/{big},1,2")
    assert rc in (0, 1)


def test_certify_malformed_w_exits_two(capsys):
    rc, rep, _ = run_json(capsys, "certify", "remark3", "--w", "bogus")
    assert rc == 2
    assert rep["error"]["type"] == "InputError"
    assert "coeff,tpow" in rep["error"]["message"]


@pytest.mark.parametrize("spec, fragment", [
    ("1,99,2", "t^99 of x-degree 2"),
    ("1,1,20", "t^1 of x-degree 20"),
])
def test_certify_w_beyond_caps_exits_two(capsys, spec, fragment):
    # remark3 tracks K_t = 10, K_x = 12; such a term used to vanish from w,
    # leaving w = 0 and a vacuous pass
    rc, rep, _ = run_json(capsys, "certify", "remark3", "--w", spec)
    assert rc == 2
    assert rep["error"]["type"] == "InputError"
    assert fragment in rep["error"]["message"]
    assert "K_t = 10, K_x = 12" in rep["error"]["message"]


def test_certify_csv_samples(tmp_path, capsys):
    csv = tmp_path / "path.csv"
    rc, rep, _ = run_json(capsys, "certify", "remark3", "--grid", "8x8",
                          "--csv", str(csv))
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "t,rho,q,weighted_q"
    assert len(lines) - 1 == rep["results"]["characteristics"]["samples"]
    first = lines[1].split(",")
    assert len(first) == 4
    float(first[0]), float(first[1]), float(first[2]), float(first[3])


def test_certify_unwritable_csv_is_input_error(tmp_path, capsys):
    csv = tmp_path / "missing" / "path.csv"
    rc, rep, _ = run_json(capsys, "certify", "remark3", "--grid", "8x8",
                          "--csv", str(csv))
    assert rc == 2
    assert rep["error"]["type"] == "InputError"
    assert rep["error"]["message"].startswith(f"cannot write --csv {str(csv)!r}")


def test_certify_timings_are_deterministic_counters(capsys):
    rc, rep, _ = run_json(capsys, "certify", "remark3", "--grid", "8x8")
    t = rep["timings"]
    assert t["grid_points"] == 64
    work = rep["results"]["barrier"]["work"]
    assert {k: t[k] for k in work} == work
    assert t["phi_evals"] > 0
    assert t["coefficient_evals"] > 0
    assert t["ode_steps_accepted"] > 0
    assert t["ode_steps_rejected"] >= 0


# -- verify-example ------------------------------------------------------


def test_verify_example_remark2(capsys):
    rc, rep, _ = run_json(capsys, "verify-example", "remark2")
    assert rc == 0
    res = rep["results"]
    assert res["residual_numeric"]["ok"]
    # the machinery must refuse this instance: a characteristic exponent
    # sits on the imaginary axis
    assert res["hypothesis_rejection"]["ok"]
    assert res["decay_profile"]["ok"]


def test_verify_example_remark3(capsys):
    rc, rep, _ = run_json(capsys, "verify-example", "remark3")
    assert rc == 0
    res = rep["results"]
    assert res["residual_symbolic"]["zero"]
    assert res["decay_constant"]["ok"]


def test_verify_example_remark3_forced(capsys):
    rc, rep, _ = run_json(capsys, "verify-example", "remark3_forced")
    assert rc == 0
    res = rep["results"]
    assert res["residual_symbolic"]["zero"]
    assert res["solver_match"]["ok"]


@pytest.mark.parametrize("name", ["remark2", "remark3"])
@pytest.mark.parametrize("flag,value,fragment", [
    ("--tol", "nan", "--tol must be"),
    ("--tol", "inf", "--tol must be"),
    ("--tol", "0", "--tol must be"),
    ("--tol", "-1", "--tol must be"),
    ("--exponent-p", "65", "--exponent-p must be in 0..64"),
    ("--exponent-p", "-1", "--exponent-p must be in 0..64"),
    ("--exponent-p", "260", "--exponent-p must be in 0..64"),
    ("--exponent-p", "100000", "--exponent-p must be in 0..64"),
])
def test_verify_example_bad_flag_is_input_error(capsys, name, flag, value,
                                                fragment):
    rc, rep, _ = run_json(capsys, "verify-example", name, flag, value)
    assert rc == 2
    assert rep["error"]["type"] == "InputError"
    assert fragment in rep["error"]["message"]
    assert "results" not in rep


@pytest.mark.parametrize("name", ["remark2", "remark3", "remark3_forced"])
def test_verify_example_largest_exponent_p_stays_finite(capsys, name):
    rc, rep, _ = run_json(capsys, "verify-example", name, "--exponent-p", "64")
    assert rc in (0, 1)
    rows = rep["results"]["decay_profile"]["rows"]
    assert all(0.0 < row["sup_scaled"] < float("inf") for row in rows)


# -- misc ----------------------------------------------------------------


def test_unwritable_out_exits_two_with_one_error_line(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    rc, stdout, err = run(capsys, "check", "remark3", "--out", str(out))
    assert rc == 2
    assert stdout == ""
    assert err.startswith(f"error: cannot write {str(out)!r}: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_unexpected_exception_is_an_internal_error_report(
        tmp_path, monkeypatch):
    import fuchsian.cli

    def boom(*_):
        raise RuntimeError("boom")

    monkeypatch.setattr(fuchsian.cli, "cmd_check", boom)
    out = tmp_path / "r.json"
    assert main(["check", "remark3", "--out", str(out)]) == 3
    error = json.loads(out.read_text())["error"]
    assert error == {"type": "internal_error", "message": "RuntimeError: boom"}


def test_parser_built_once_and_reused_cleanly(capsys):
    # main reuses one parser per process; an option given in one call must
    # not leak into the next, so successive calls repeat their reports
    from fuchsian.cli import build_parser
    assert build_parser() is build_parser()
    calls = [("solve", "remark3_forced", "--order", "4", "--x-order", "1"),
             ("solve", "remark3_forced", "--order", "4"),
             ("check", "remark3", "--order", "3"),
             ("verify-example", "remark3")]
    first = [run(capsys, *argv) for argv in calls]
    again = [run(capsys, *argv) for argv in calls]
    assert first == again
    assert [rc for rc, _, _ in first] == [0, 0, 0, 0]
    assert len({out for _, out, _ in first}) == len(calls)


def test_version_field_present(capsys):
    rc, rep, _ = run_json(capsys, "check", "remark3")
    import fuchsian
    assert rep["version"] == fuchsian.__version__
    assert rep["command"] == "check"


def test_console_script_entry_point():
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-m", "fuchsian.cli", "check",
                          "remark3"], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0
    assert json.loads(out.stdout)["results"]["h_exact"] == "9/20"


def test_cli_import_leaves_numpy_out():
    # the package root loads no submodule, and the CLI loads the
    # certificate layers only inside certify and verify-example and the
    # solver only inside the commands that solve; no layer
    # loads dataclasses, which would pull inspect into every process
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, fuchsian\n"
         "print(sorted(m for m in sys.modules if m.startswith('fuchsian.')))\n"
         "import fuchsian.cli\n"
         "print('numpy' in sys.modules)\n"
         "print([m for m in ('certificate', 'majorant', 'characteristics',\n"
         "                   'solver')\n"
         "       if 'fuchsian.' + m in sys.modules])\n"
         "print('dataclasses' in sys.modules)\n"
         "import fuchsian.certificate\n"
         "print('dataclasses' in sys.modules)"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]", "False", "[]", "False", "False"]
    # each command loads only the layers its branch runs
    layers = ("certificate", "majorant", "characteristics", "solver")
    script = ("import contextlib, io, sys\n"
              "from fuchsian.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    main(sys.argv[1:])\n"
              f"print(sorted(m for m in {layers!r}\n"
              "             if 'fuchsian.' + m in sys.modules))")
    for argv, loaded in [
            (["check", "remark3"], []),
            (["solve", "remark3_forced"], ["solver"]),
            (["verify-example", "remark3"], ["characteristics", "solver"]),
            (["verify-example", "remark3_forced"],
             ["characteristics", "solver"]),
            (["verify-example", "remark2"], ["characteristics"]),
            (["certify", "remark2"], []),
            (["certify", "remark3", "--grid", "2x2"], sorted(layers))]:
        out = subprocess.run([sys.executable, "-c", script, *argv],
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == [str(loaded)], argv
