"""Acceptance suite: eight instance-level criteria, one verdict line each.

Each test measures its own wall time against the pinned budget, records a
single PASS/FAIL verdict for the terminal summary, and then asserts.  The
sixth criterion demands that the barrier differential inequality hold for
arbitrary polynomial test functions; it does not, and the test reports
that failure rather than weakening the check (see the package README).
"""

import functools
import random
import time

from scipy.integrate import quad

from conftest import record_criterion
from fuchsian.builtin import (closed_form_eval, closed_form_series,
                              load_equation, remark2_residual_grid)
from fuchsian.certificate import (BarrierSystem, build_shifted_rhs,
                                  choose_params, normal_form, profile_family,
                                  verify_barrier)
from fuchsian.characteristics import (check_radius_bounds,
                                      check_reaches_origin,
                                      check_weighted_decay, decay_profile,
                                      integrate, smallness_box)
from fuchsian.cli import main, random_test_function
from fuchsian.equation import FuchsianEquation
from fuchsian.errors import HypothesisViolated
from fuchsian.majorant import SectorMajorant, norm_x
from fuchsian.rational import CRat, Frac
from fuchsian.series import SeriesTX, SeriesTXZ, ZKey, lambda_keys
from fuchsian.solver import residual, solve_formal
from oracles import manufactured, sector_product


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.perf_counter()

    def elapsed(self):
        return time.perf_counter() - self.start

    def within(self):
        return self.elapsed() < self.limit


def finish(number, ok, detail, budget):
    ok = bool(ok) and budget.within()
    record_criterion(number, ok,
                     f"{detail}; {budget.elapsed():.2f}s of {budget.limit}s")
    return ok


def test_criterion_1_characteristic_exponents():
    budget = Budget(0.1)
    cd2 = load_equation("remark2").char_exponents()
    cd3 = load_equation("remark3").char_exponents()
    ok = (cd2.roots_exact == (CRat(Frac(-1)), CRat(Frac(0))))
    ok = ok and (cd3.roots_exact == (CRat(Frac(-2)), CRat(Frac(-1))))
    assert finish(1, ok, "exact exponent pairs {0,-1} and {-1,-2}", budget)


def test_criterion_2_quartic_closed_form():
    budget = Budget(1.0)
    eq = load_equation("remark3")
    u = closed_form_series("remark3", k_t=eq.F.k_t, k_x=eq.F.k_x)
    r = residual(eq, u, eq.F.k_t)
    residual_zero = r.truncate(k_x=eq.F.k_x - 2).is_zero()

    rep = decay_profile(closed_form_eval("remark3"), exponent_p=4,
                        r_list=[0.01, 0.001])
    worst = max(abs(row["sup_scaled"] - 1.0 / 72.0) for row in rep["rows"])
    ok = residual_zero and worst < 1e-12
    assert finish(2, ok,
                  f"symbolic residual zero: {residual_zero}, "
                  f"decay constant off by {worst:.2e}", budget)


def test_criterion_3_logarithmic_closed_form():
    budget = Budget(1.0)
    eq = load_equation("remark2")
    grid = remark2_residual_grid(eq)
    points_ok = grid["points"] == 1000
    residual_ok = grid["max_abs_residual"] < 1e-10

    rejected = False
    try:
        choose_params(eq.char_exponents(), None)
    except HypothesisViolated:
        rejected = True

    ok = points_ok and residual_ok and rejected
    assert finish(3, ok,
                  f"max residual {grid['max_abs_residual']:.2e} over 1000 "
                  f"points, hypothesis rejection: {rejected}", budget)


def _random_target(rng, n, k_t, k_x):
    u = SeriesTX.zero(n, k_t, k_x)
    for _ in range(3):
        k = rng.randint(1, 3)
        alpha = tuple(rng.randint(0, 1) for _ in range(n))
        c = Frac(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        u = u + SeriesTX.monomial(n, k_t, k_x, c, k, alpha)
    return u if not u.is_zero() \
        else SeriesTX.monomial(n, k_t, k_x, 1, 1, (0,) * n)


def _random_base(rng, n, k_t, k_x):
    lam1 = Frac(-rng.randint(1, 4), rng.choice([1, 2]))
    lam2 = lam1 - Frac(rng.randint(0, 3), rng.choice([1, 2]))
    b1, b0 = lam1 + lam2, -(lam1 * lam2)
    F = SeriesTXZ.z_var(n, k_t, k_x, ZKey(1, (0,) * n)).scale(b1) \
        + SeriesTXZ.z_var(n, k_t, k_x, ZKey(0, (0,) * n)).scale(b0)
    keys = lambda_keys(n)
    for _ in range(rng.randint(1, 3)):
        c = Frac(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 5))
        term = SeriesTXZ.z_var(n, k_t, k_x, rng.choice(keys)) \
            * SeriesTXZ.z_var(n, k_t, k_x, rng.choice(keys))
        F = F + term.scale(c)
    return FuchsianEquation(F)


def test_criterion_4_manufactured_solver_suite():
    budget = Budget(30.0)
    order = 8
    rng = random.Random(20260815)
    recovered = 0
    for case in range(22):
        n = 1 + (case % 2)
        k_x = 2 + 2 * order + 2
        eq = _random_base(rng, n, order + 1, k_x)
        target = _random_target(rng, n, order + 1, k_x)
        eqf = manufactured(eq, target)
        sol = solve_formal(eqf, order)
        same = sol.u == target.truncate(k_t=sol.u.k_t, k_x=sol.u.k_x)
        clean = residual(eqf, sol.u, order).truncate(k_x=sol.u.k_x - 2).is_zero()
        if same and clean:
            recovered += 1

    # hand cases: forcing t gives t/6, forcing t x gives t x / 6
    eq3 = load_equation("remark3")
    sol_t = solve_formal(load_equation("remark3_forced"), 4)
    hand_t = sol_t.u == closed_form_series(
        "remark3_forced", k_t=sol_t.u.k_t, k_x=sol_t.u.k_x).truncate(
            k_t=sol_t.u.k_t, k_x=sol_t.u.k_x)
    forcing = SeriesTXZ.from_tx(
        SeriesTX.monomial(1, eq3.F.k_t, eq3.F.k_x, 1, 1, (1,)))
    sol_tx = solve_formal(FuchsianEquation(eq3.F + forcing), 4,
                          x_order=2)
    hand_tx = sol_tx.u == SeriesTX.monomial(1, sol_tx.u.k_t, sol_tx.u.k_x,
                                            Frac(1, 6), 1, (1,))

    ok = recovered >= 20 and hand_t and hand_tx
    assert finish(4, ok,
                  f"{recovered}/22 manufactured recoveries, hand cases "
                  f"t/6: {hand_t}, tx/6: {hand_tx}", budget)


def test_criterion_5_majorant_property_suite():
    budget = Budget(10.0)
    rng = random.Random(71717)

    def rand_series(n):
        f = SeriesTX.zero(n, 2, 3)
        for _ in range(4):
            k = rng.randint(0, 2)
            alpha = tuple(rng.randint(0, 2) for _ in range(n))
            if sum(alpha) > 3:
                continue
            c = CRat(Frac(rng.randint(-9, 9), rng.randint(1, 9)),
                     Frac(rng.randint(-9, 9), rng.randint(1, 9)))
            f = f + SeriesTX.monomial(n, 2, 3, c, k, alpha)
        return f

    submult_fail = deriv_fail = 0
    for _ in range(500):
        n = rng.choice([1, 2])
        f, g = rand_series(n), rand_series(n)
        if not norm_x(f * g).leq(sector_product(norm_x(f), norm_x(g))):
            submult_fail += 1
        if not norm_x(f.dx(rng.randrange(n))).leq(norm_x(f).d_rho()):
            deriv_fail += 1

    worst_rel = 0.0
    for _ in range(100):
        k = rng.randint(0, 5)
        deg = rng.randint(0, 3)
        c = Frac(rng.randint(1, 9), rng.randint(1, 9))
        from fuchsian.majorant import RhoPoly
        M = SectorMajorant({k: RhoPoly((0,) * deg + (c,))})
        a = Frac(rng.randint(1, 8), rng.randint(1, 4))
        t, rho = rng.uniform(0.1, 1.2), rng.uniform(0.1, 1.5)
        val, _err = quad(lambda s: s ** (float(a) - 1.0) * M.eval(s, rho),
                         0.0, t, epsabs=1e-14, epsrel=1e-13)
        oracle = t ** (-float(a)) * val
        ours = M.integral_transform(a).eval(t, rho)
        if oracle != 0.0:
            worst_rel = max(worst_rel, abs(ours - oracle) / abs(oracle))

    ok = submult_fail == 0 and deriv_fail == 0 and worst_rel < 1e-9
    assert finish(5, ok,
                  f"500 pairs coefficientwise clean, transform vs "
                  f"quadrature worst rel {worst_rel:.2e}", budget)


def test_criterion_6_barrier_certificate_grid():
    budget = Budget(60.0)
    eq = load_equation("remark3")
    cd = eq.char_exponents()
    dec = normal_form(build_shifted_rhs(eq), cd)

    candidates = [("t*x^2", SeriesTX.monomial(1, 10, 12, 1, 1, (2,)))]
    for seed in range(1, 11):
        candidates.append((f"seed {seed}",
                           random_test_function(seed, 1, 10, 12)))

    families = ("barrier_dineq", "phi_vs_q", "dphi_vs_dq", "growth_bound_le_h")
    recon_all = True
    family_fail = {name: 0 for name in families}
    dineq_points = 0
    for label, w in candidates:
        prof = profile_family(w, cd)
        system = BarrierSystem(dec, prof)
        params, cert = choose_params(cd, system)
        rep = verify_barrier(system, params, nt=50, nrho=50)
        recon_all = recon_all and rep["checks"]["reconstruction"]["ok"]
        for name in families:
            if not rep["checks"][name]["ok"]:
                family_fail[name] += 1
        dineq_points += rep["checks"]["barrier_dineq"].get("violations", 0)

    ok = recon_all and all(v == 0 for v in family_fail.values())
    detail = (f"reconstruction exact: {recon_all}; differential inequality "
              f"fails for {family_fail['barrier_dineq']}/11 test functions "
              f"({dineq_points} grid points); other families "
              f"{sum(family_fail[n] for n in families[1:])} failures")
    finish(6, ok, detail, budget)
    assert recon_all
    assert family_fail["phi_vs_q"] == 0
    assert family_fail["dphi_vs_dq"] == 0
    assert family_fail["growth_bound_le_h"] == 0
    # the solution-dependent inequality: required by the criterion to hold
    # for arbitrary test functions, which it cannot; kept faithful
    assert family_fail["barrier_dineq"] == 0, (
        "barrier differential inequality fails for non-solution test "
        "functions; see README for the analysis")


def test_criterion_7_characteristics():
    budget = Budget(30.0)

    # synthetic closed form
    C1s, kappas, t0s, xis = 2.0, 0.3, 0.5, 0.1
    path = integrate(lambda t, rho: (C1s * t ** kappas, 0.0),
                     t0=t0s, xi=xis, r_max=10.0, t_floor=t0s * 1e-6)
    exact = lambda t: xis + (C1s / kappas) * (t0s ** kappas - t ** kappas)
    synth_err = max(abs(r - exact(t)) for t, r in zip(path.ts, path.rhos))
    synth_ok = path.status == "extended-to-floor" and synth_err < 1e-8

    # machinery path on the barrier system
    eq = load_equation("remark3")
    cd = eq.char_exponents()
    dec = normal_form(build_shifted_rhs(eq), cd)
    w = SeriesTX.monomial(1, 10, 12, 1, 1, (2,))
    prof = profile_family(w, cd)
    system = BarrierSystem(dec, prof)
    params, _ = choose_params(cd, system)
    consts = system.constants(params)
    R = float(params.R0)
    h, kappa = params.h, params.kappa

    sigma, r_small, info = smallness_box(
        consts, h, kappa, R,
        q_corner=lambda s: system.barrier(params, s, R),
        sigma_max=float(params.sigma0))
    mpath = integrate(functools.partial(system.flow_point, params),
                      t0=sigma, xi=R / 4, r_max=R, t_floor=sigma * 1e-6)
    decay = check_weighted_decay(mpath, h)
    radius = check_radius_bounds(mpath, consts, kappa, h, r_small)
    origin = check_reaches_origin(mpath, R, consts, kappa, h, r_small)

    machinery_ok = (mpath.status == "extended-to-floor" and decay["ok"]
                    and radius["ok"] and origin["ok"]
                    and origin["reached_floor"]
                    and origin["rho_max"] <= origin["R1"]
                    and origin["R1"] < R
                    and "terminal_bound" in origin and origin["terminal_ok"])

    ok = synth_ok and machinery_ok
    assert finish(
        7, ok,
        f"synthetic error {synth_err:.2e}, weighted decay "
        f"{decay['violations']} violations, radius bounds ok: "
        f"{radius['ok']}, rho_max {origin['rho_max']:.4f} <= R1 "
        f"{origin['R1']:.4f} < R, terminal bound "
        f"{origin['terminal_bound']:.3e}", budget)


def test_criterion_8_deterministic_reports(tmp_path, capsys):
    budget = Budget(60.0)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    rc1 = main(["certify", "remark3", "--seed", "7", "--out", str(a)])
    rc2 = main(["certify", "remark3", "--seed", "7", "--out", str(b)])
    capsys.readouterr()
    same = a.read_bytes() == b.read_bytes()
    ok = same and rc1 == rc2
    assert finish(8, ok, f"byte-identical: {same}, exit codes "
                  f"{rc1} == {rc2}", budget)
