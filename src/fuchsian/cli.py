"""Command-line front end.

Four commands: check (exponent and applicability analysis), solve (formal
series construction), certify (barrier verification plus the flow run),
verify-example (closed-form checks of the bundled instances).

Reports are canonical JSON: sorted keys, compact separators, floats in
their shortest round-trip form, exact rationals as "p/q" strings.  All
recorded work measures are deterministic counters, so byte-identical
inputs give byte-identical reports.  Exit codes: 0 clean, 1 checks ran
and found violations, 2 input, hypothesis or write error, 3 internal error
(an unexpected exception, reported as error type "internal_error").
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import cache, partial

from . import __version__
from .builtin import (
    BUILTIN_NAMES,
    MAX_COEFF_BITS,
    closed_form_eval,
    closed_form_series,
    parse_equation_bytes,
    read_equation_source,
    remark2_residual_grid,
)
from .equation import CharData, FuchsianEquation, applicability, decay_margin
from .errors import HypothesisViolated, InputError, ToolkitError
from .series import SeriesTX, alphas_of_degree

# The interpreter's built-in SHA-256 (_sha2 from 3.12, _sha256 before), which
# hashlib falls back to; hashlib itself would load OpenSSL for one digest.
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def _emit(report: dict, out: str | None):
    text = canonical_json(report) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _series_terms(u: SeriesTX) -> list:
    return [{"t_pow": k, "x_pows": list(alpha),
             "coeff": [c.re.numerator, c.re.denominator,
                       c.im.numerator, c.im.denominator]}
            for (k, alpha), c in u.sorted_terms()]


def _fraction(text: str, what: str) -> Fraction:
    """Fraction(text), refusing first a decimal exponent of five or more
    digits, which it expands as 10 ** exp: no value a float or a 256-bit
    coefficient holds needs one, as a mantissa has at most 4300 digits."""
    _, e, exp = text.replace("_", "").lower().partition("e")
    if e and len(exp.strip().lstrip("+-").lstrip("0")) > 4:
        raise InputError(f"{what} {text!r} has a decimal exponent of more "
                         "than four digits")
    return Fraction(text)


def _parse_w(spec: str, n: int, k_t: int, k_x: int) -> SeriesTX:
    """Monomial-sum syntax: terms separated by ';', each term
    'coeff,tpow,a1 a2 ... an' with coeff an integer or p/q whose numerator
    and denominator have at most MAX_COEFF_BITS bits, as in an equation."""
    w = SeriesTX.zero(n, k_t, k_x)
    for pos, chunk in enumerate(spec.split(";")):
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 3:
            raise InputError(
                f"w term {pos}: expected 'coeff,tpow,a1 ... an', got {chunk!r}")
        try:
            coeff = _fraction(parts[0], f"w term {pos}: coeff")
            tpow = int(parts[1])
            alpha = tuple(int(v) for v in parts[2].split())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"w term {pos}: {exc}") from None
        if len(alpha) != n:
            raise InputError(f"w term {pos}: alpha needs {n} entries")
        if tpow < 0 or any(a < 0 for a in alpha):
            raise InputError(f"w term {pos}: negative power")
        if max(abs(coeff.numerator), coeff.denominator) >> MAX_COEFF_BITS:
            raise InputError(f"w term {pos}: coeff needs more than "
                             f"{MAX_COEFF_BITS} bits in p or q")
        if tpow > k_t or sum(alpha) > k_x:
            raise InputError(
                f"w term {pos}: t^{tpow} of x-degree {sum(alpha)} lies beyond "
                f"the equation's caps K_t = {k_t}, K_x = {k_x}")
        w = w + SeriesTX.monomial(n, k_t, k_x, coeff, tpow, alpha)
    if w.is_zero():
        raise InputError(f"w sums to zero: {spec!r}")
    if w.t_order() == 0:
        raise InputError(f"w must vanish at t = 0: {spec!r} has a t^0 term")
    return w


def random_test_function(seed: int, n: int, k_t: int, k_x: int) -> SeriesTX:
    """Deterministic random polynomial test function with positive
    t-order: three monomials, t powers 1..2, x degree at most 2."""
    import random
    rng = random.Random(seed)
    alphas = [a for d in range(3) for a in alphas_of_degree(n, d)]
    w = SeriesTX.zero(n, k_t, k_x)
    for _ in range(3):
        coeff = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if rng.random() < 0.5:
            coeff = -coeff
        w = w + SeriesTX.monomial(n, k_t, k_x, coeff,
                                  rng.randint(1, 2), rng.choice(alphas))
    if w.is_zero() or w.t_order() == 0:
        # cancellations cannot reach t-order 0 here, but stay safe
        w = w + SeriesTX.monomial(n, k_t, k_x, Fraction(1), 1, (0,) * n)
    return w


def _make_w(args, eq: FuchsianEquation) -> SeriesTX:
    k_t, k_x = eq.F.k_t, eq.F.k_x
    if args.w:
        return _parse_w(args.w, eq.n, k_t, k_x)
    if args.seed is not None:
        return random_test_function(args.seed, eq.n, k_t, k_x)
    alpha = tuple(2 if j == 0 else 0 for j in range(eq.n))
    return SeriesTX.monomial(eq.n, k_t, k_x, Fraction(1), 1, alpha)


# 40 times the default 50x50 grid: the work of a grid grows with its points
MAX_GRID_POINTS = 100_000


def _parse_grid(spec: str) -> tuple:
    try:
        nt, nrho = spec.lower().split("x")
        nt, nrho = int(nt), int(nrho)
    except ValueError:
        raise InputError(f"grid must look like '50x50', got {spec!r}") from None
    if nt < 1 or nrho < 1:
        raise InputError(f"grid needs at least one point per axis, got {spec!r}")
    if nt * nrho > MAX_GRID_POINTS:
        raise InputError(f"grid may hold at most {MAX_GRID_POINTS} points, "
                         f"got {spec!r}")
    return nt, nrho


def _require_order(order: int) -> None:
    if order < 1:
        raise InputError(f"--order must be at least 1, got {order}")


def _require_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise InputError(f"--tol must be positive and finite, got {tol}")


def _rational_flag(name: str, text: str | None, ok, need: str):
    """--name as a Fraction, or None when not given; an InputError unless
    it reads as p/q with q != 0, satisfies ok and has a nonzero float value,
    which the barrier evaluates."""
    if text is None:
        return None
    try:
        value = _fraction(text, f"--{name}")
    except (ValueError, ZeroDivisionError):
        value = None
    if value is None or not ok(value):
        raise InputError(f"--{name} must be a rational {need}, got {text!r}")
    try:
        if float(value) == 0:
            raise InputError(f"--{name} {text} underflows to 0 as a float")
    except OverflowError:
        raise InputError(f"--{name} {text} overflows a float") from None
    return value


def _applicability_results(eq: FuchsianEquation, cd: CharData, K: int) -> dict:
    resonances, near = applicability(cd, K)
    exact = None
    if cd.roots_exact is not None:
        exact = [str(z.re) if z.im == 0 else f"{z.re}+({z.im})i"
                 for z in cd.roots_exact]
    return {
        "m": eq.m, "n": eq.n,
        "exponents": [[z.real, z.imag] for z in cd.roots],
        "exponents_exact": exact,
        "unique_formal": not resonances,
        "resonances": list(resonances),
        "near_resonances": [[z.real, z.imag, k] for z, k in near],
        # h exists exactly when both bounds on -Re of the roots are positive
        "decay_applicable": cd.h is not None,
        "h": float(cd.h) if cd.h is not None else None,
        "h_exact": str(cd.h) if cd.h is not None else None,
    }


def cmd_check(args, data: bytes, label: str, report: dict) -> int:
    _require_order(args.order)
    eq = parse_equation_bytes(data, label)
    report["results"] = _applicability_results(eq, eq.char_exponents(),
                                                args.order)
    return 0


def cmd_solve(args, data: bytes, label: str, report: dict) -> int:
    from .solver import solve_formal
    _require_order(args.order)
    if args.x_order is not None and args.x_order < 0:
        raise InputError(f"--x-order must be at least 0, got {args.x_order}")
    eq = parse_equation_bytes(data, label)
    sol = solve_formal(eq, args.order, x_order=args.x_order)
    report["results"] = {
        "order": sol.u.k_t, "x_order": sol.u.k_x,
        "verified": sol.verified,
        "terms": _series_terms(sol.u),
    }
    return 0


def cmd_certify(args, data: bytes, label: str, report: dict) -> int:
    _require_order(args.order)
    kappa = _rational_flag("kappa", args.kappa,
                           lambda v: 0 < v < Fraction(1, 2),
                           "strictly between 0 and 1/2")
    eps00 = _rational_flag("eps00", args.eps00, lambda v: v > 0, "p/q > 0")
    _require_tol(args.tol)
    if not 0 < args.tfloor < 1:  # nan fails both comparisons
        raise InputError(
            f"--tfloor must lie strictly between 0 and 1, got {args.tfloor}")
    nt, nrho = _parse_grid(args.grid)
    eq = parse_equation_bytes(data, label)
    w = _make_w(args, eq)
    cd = eq.char_exponents()
    report["results"] = {"applicability": _applicability_results(eq, cd, 10)}
    if cd.h is None:
        raise HypothesisViolated(
            "decay hypothesis fails: no exponent margin h; "
            "the barrier construction does not apply")
    from .certificate import (BarrierSystem, build_shifted_rhs, choose_params,
                              normal_form, profile_family, verify_barrier)
    from .characteristics import (check_radius_bounds, check_reaches_origin,
                                  check_weighted_decay, integrate,
                                  smallness_box)
    from .solver import solve_formal
    u0 = solve_formal(eq, args.order)
    H = build_shifted_rhs(eq, u0.u)
    dec = normal_form(H, cd)
    profiles = profile_family(w, cd)
    system = BarrierSystem(dec, profiles)
    params, cert = choose_params(cd, system)
    if kappa is not None:
        params = params._replace(kappa=kappa)
    if eps00 is not None:
        params = params._replace(eps00=eps00)
    barrier_report = verify_barrier(system, params, nt, nrho)
    consts = barrier_report["constants"]
    R, q = float(params.R0), partial(system.barrier, params)
    sigma_c, r_c, small_info = smallness_box(
        consts, params.h, params.kappa, R,
        q_corner=lambda s: q(s, R),
        sigma_max=float(params.sigma0))
    t_floor = args.tfloor * sigma_c
    if not t_floor > 0:
        raise InputError(f"--tfloor {args.tfloor!r} times the anchor time "
                         f"{sigma_c!r} underflows to 0")
    xi = R / 4.0
    path = integrate(partial(system.flow_point, params),
                     t0=sigma_c, xi=xi, r_max=R,
                     t_floor=t_floor, tol=args.tol)
    decay = check_weighted_decay(path, params.h)
    radius = check_radius_bounds(path, consts, params.kappa, params.h, r_c)
    origin = check_reaches_origin(path, R, consts, params.kappa,
                                  params.h, r_c)
    report["results"].update({
        "w_terms": _series_terms(w),
        "params_certificate": cert,
        "barrier": barrier_report,
        "smallness": small_info,
        "characteristics": {
            "t0": path.ts[0], "xi": path.rhos[0],
            "t_min_reached": path.ts[-1],
            "status": path.status,
            "samples": len(path.ts),
            "weighted_decay": decay,
            "radius_bounds": radius,
            "reaches_origin": origin,
        },
    })
    report["timings"] = {**barrier_report["work"],
                         "ode_steps_accepted": path.steps_accepted,
                         "ode_steps_rejected": path.steps_rejected}
    if args.csv:
        hf = float(params.h)
        lines = ["t,rho,q,weighted_q"]
        for t, rho, q in zip(path.ts, path.rhos, path.qs):
            lines.append(f"{t:.17g},{rho:.17g},{q:.17g},{t ** hf * q:.17g}")
        try:
            with open(args.csv, "w") as fh:
                fh.write("\n".join(lines) + "\n")
        except OSError as exc:
            raise InputError(
                f"cannot write --csv {args.csv!r}: {exc.strerror}") from None
    ok = (cert["ok"] and barrier_report["ok"] and decay["ok"]
          and radius["ok"] and origin["ok"])
    report["ok"] = ok
    return 0 if ok else 1


def cmd_verify_example(args, data: bytes, label: str, report: dict) -> int:
    from .characteristics import decay_profile
    _require_tol(args.tol)
    if not 0 <= args.exponent_p <= 64:  # keeps R ** -p finite for R >= 1/16
        raise InputError(f"--exponent-p must be in 0..64, got {args.exponent_p}")
    name = args.equation
    eq = parse_equation_bytes(data, label)
    cd = eq.char_exponents()
    results: dict = {"applicability": _applicability_results(eq, cd, 10)}
    if name == "remark2":
        grid = remark2_residual_grid(eq)
        results["residual_numeric"] = {
            **grid, "tol": args.tol,
            "ok": grid["max_abs_residual"] < args.tol}
        try:
            decay_margin(cd)
            results["hypothesis_rejection"] = {"ok": False, "raised": None}
        except HypothesisViolated as exc:
            results["hypothesis_rejection"] = {
                "ok": True, "raised": "HypothesisViolated",
                "message": str(exc)}
        # the closed form lives on 0 < t <= 1/e, so start r there
        prof = decay_profile(closed_form_eval(name),
                             exponent_p=args.exponent_p,
                             r_list=[0.36787944117144233,
                                     0.1, 0.01, 0.001, 0.0001])
        results["decay_profile"] = prof
        results["decay_profile"]["ok"] = all(
            e["monotone_decreasing"] for e in prof["inner_trend"])
        results["ok"] = all(v.get("ok", True) for v in results.values()
                            if isinstance(v, dict))
    else:
        # remark3 or remark3_forced: argparse admits builtin names only
        from .solver import _residual_vanishes
        u = closed_form_series(name, eq.F.k_t, eq.F.k_x)
        zero = _residual_vanishes(eq, u, eq.F.k_t)
        results["residual_symbolic"] = {"zero": zero}
        prof = decay_profile(closed_form_eval(name),
                             exponent_p=args.exponent_p)
        results["decay_profile"] = prof
        if name == "remark3":
            vals = [row["sup_scaled"] for row in prof["rows"]]
            target = 1.0 / 72.0
            worst = max(abs(v - target) for v in vals)
            results["decay_constant"] = {
                "target": target, "max_abs_error": worst,
                "ok": worst < 1e-12}
            results["ok"] = zero and results["decay_constant"]["ok"]
        else:
            from .solver import solve_formal
            sol = solve_formal(eq, 4)
            results["solver_match"] = {"ok": sol.u == u.truncate(
                k_t=sol.u.k_t, k_x=sol.u.k_x)}
            results["ok"] = zero and results["solver_match"]["ok"]
    report["results"] = results
    return 0 if results["ok"] else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; main calls cmd_<subcommand> by name."""
    parser = argparse.ArgumentParser(
        prog="fuchsian",
        description="Formal solutions and uniqueness certificates for "
                    "Euler-operator equations with singular time")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check", help="exponents and applicability analysis")
    pc.add_argument("equation", help="builtin name or JSON path")
    pc.add_argument("--order", type=int, default=10,
                    help="resonance search depth (default 10)")
    pc.add_argument("--out", help="write the JSON report here")

    ps = sub.add_parser("solve", help="construct the formal solution")
    ps.add_argument("equation")
    ps.add_argument("--order", type=int, default=6,
                    help="time order of the computed solution (default 6)")
    ps.add_argument("--x-order", type=int, default=None, dest="x_order")
    ps.add_argument("--out")

    pf = sub.add_parser("certify",
                        help="barrier verification and the flow run")
    pf.add_argument("equation")
    pf.add_argument("--order", type=int, default=4,
                    help="time order of the base solution (default 4)")
    pf.add_argument("--w", help="test function as 'coeff,tpow,a1 ... an' "
                                "terms joined by ';' (default t * x1^2)")
    pf.add_argument("--seed", type=int, default=None,
                    help="generate the test function from this seed")
    pf.add_argument("--grid", default="50x50",
                    help="verification grid, e.g. 50x50")
    pf.add_argument("--tfloor", type=float, default=1e-6,
                    help="flow floor as a fraction of the anchor time")
    pf.add_argument("--kappa", default=None,
                    help="override the time-weight exponent (rational p/q)")
    pf.add_argument("--eps00", default=None,
                    help="override the first barrier weight (rational p/q)")
    pf.add_argument("--tol", type=float, default=1e-10,
                    help="flow integrator tolerance")
    pf.add_argument("--csv", help="dump path samples (t,rho,q,weighted_q)")
    pf.add_argument("--out")

    pv = sub.add_parser("verify-example",
                        help="closed-form checks of a bundled instance")
    pv.add_argument("equation", metavar="name", choices=list(BUILTIN_NAMES),
                    help=f"builtin name: {', '.join(BUILTIN_NAMES)}")
    pv.add_argument("--exponent-p", type=int, default=4, dest="exponent_p",
                    help="suprema are divided by R^p; p in 0..64 (default 4)")
    pv.add_argument("--tol", type=float, default=1e-10,
                    help="tolerance of remark2's numeric residual grid; "
                         "unused for the other instances (default 1e-10)")
    pv.add_argument("--out")
    return parser


def main(argv=None) -> int:
    """Read the input once, run the command into a report that starts with
    the command, version and input digest, and emit it.  A ToolkitError
    becomes the report's error entry with exit 2, any other exception an
    internal_error entry with exit 3; input that cannot be read, or a report
    that cannot be written to --out, gives only a message on stderr and
    exit 2."""
    args = build_parser().parse_args(argv)
    run = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        data, label = read_equation_source(args.equation)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    source = args.equation
    path = f"builtin:{source}" if source in BUILTIN_NAMES else str(source)
    report = {"command": args.command, "version": __version__,
              "input": {"path": path,
                        "sha256": sha256(data).hexdigest()}}
    try:
        code = run(args, data, label, report)
    except ToolkitError as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        code = 2
    except Exception as exc:
        report["error"] = {"type": "internal_error",
                           "message": f"{type(exc).__name__}: {exc}"}
        code = 3
    try:
        _emit(report, args.out)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write {args.out!r}: {exc.strerror}\n")
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
