"""Formal power-series solver: hand oracles and manufactured solutions."""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fuchsian import solver
from fuchsian.builtin import (MAX_K_X, closed_form_series, load_equation,
                              parse_equation)
from fuchsian.equation import FuchsianEquation
from fuchsian.errors import IndicialZero, ToolkitError, TruncationExhausted
from fuchsian.rational import CRat, Frac
from fuchsian.series import (SeriesTX, SeriesTXZ, ZKey, _alpha_key, _norm_nu,
                             alphas_of_degree, lambda_keys)
from fuchsian.solver import (FormalSolution, derivative_tuple, residual,
                             solve_formal)
from oracles import cauchy_by_pairs, indicial_series, manufactured

GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
SRC = Path(__file__).resolve().parent.parent / "src"


def test_residual_frozen_oracle():
    # u = t against the second builtin: lhs = t, rhs = -3t - 2t + 0 = -5t,
    # so the residual is exactly 6t.
    eq = load_equation("remark3")
    u = SeriesTX.monomial(1, eq.F.k_t, eq.F.k_x, 1, 1, (0,))
    r = residual(eq, u, 8)
    expected = SeriesTX.monomial(1, r.k_t, r.k_x, 6, 1, (0,)).truncate(k_t=8)
    assert r.truncate(k_t=8, k_x=r.k_x) == expected


def test_forced_builtin_solves_to_t_over_six():
    eq = load_equation("remark3_forced")
    sol = solve_formal(eq, 4)
    assert sol.verified
    target = closed_form_series("remark3_forced", k_t=sol.u.k_t, k_x=sol.u.k_x)
    assert sol.u == target.truncate(k_t=sol.u.k_t, k_x=sol.u.k_x)


def test_hand_case_tx_forcing():
    # second builtin plus forcing t*x has the closed solution t*x/6
    eq = load_equation("remark3")
    forcing = SeriesTXZ.from_tx(
        SeriesTX.monomial(1, eq.F.k_t, eq.F.k_x, 1, 1, (1,)))
    eq2 = FuchsianEquation(eq.F + forcing)
    sol = solve_formal(eq2, 4, x_order=2)
    expected = SeriesTX.monomial(1, sol.u.k_t, sol.u.k_x, Frac(1, 6), 1, (1,))
    assert sol.u == expected
    assert residual(eq2, sol.u, 4).truncate(k_x=sol.u.k_x - 2).is_zero()


def test_homogeneous_solution_is_zero():
    eq = load_equation("remark3")
    sol = solve_formal(eq, 4)
    assert sol.u.is_zero()
    assert sol.verified


def test_verification_skipped_when_x_budget_is_exhausted():
    # order 6 with K_x = 12 burns every x-order during construction, so the
    # re-substitution check cannot run and the flag must say so
    eq = load_equation("remark3")
    sol = solve_formal(eq, 6)
    assert sol.u.is_zero()
    assert not sol.verified


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_failed_residual_check_raises_under_every_flag(flags):
    # a residual check that fails must stop the solve, also under python -O,
    # which strips assert statements; never return verified = True
    script = ("from fuchsian import solver\n"
              "from fuchsian.builtin import load_equation\n"
              "calls = []\n"
              "solver._sections_vanish = (\n"
              "    lambda *a: calls.append(a) or False)\n"
              "eq = load_equation('remark3_forced')\n"
              "try:\n"
              "    sol = solver.solve_formal(eq, 4)\n"
              "    print('verified', sol.verified, len(calls))\n"
              "except AssertionError as exc:\n"
              "    print('raised', exc, len(calls))\n")
    out = subprocess.run([sys.executable, *flags, "-c", script],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.returncode == 0, out.stderr
    assert out.stdout == ("raised internal error: formal solution leaves a "
                          "nonzero residual 1\n")


def test_solution_is_deterministic():
    eq = load_equation("remark3_forced")
    a = solve_formal(eq, 4)
    b = solve_formal(eq, 4)
    assert a == b and (a.u.k_t, a.u.k_x) == (b.u.k_t, b.u.k_x) == (4, 4)


def test_resonant_equation_raises():
    # lambda^2 - lambda - 2 has the root +2: step k = 2 divides by zero
    F = SeriesTXZ.z_var(1, 6, 8, ZKey(1, (0,))) \
        + SeriesTXZ.z_var(1, 6, 8, ZKey(0, (0,))).scale(2) \
        + SeriesTXZ.from_tx(SeriesTX.monomial(1, 6, 8, 1, 1, (0,)))
    eq = FuchsianEquation(F)
    with pytest.raises(IndicialZero):
        solve_formal(eq, 4)


def test_budget_exhaustion_raises():
    eq = load_equation("remark3")
    with pytest.raises(TruncationExhausted):
        solve_formal(eq, eq.F.k_t + 1)


def test_derivative_tuple_contents():
    u = SeriesTX.monomial(1, 4, 4, 1, 1, (2,))   # t x^2
    jets = derivative_tuple(u)
    assert jets[ZKey(0, (0,))] == u
    assert jets[ZKey(1, (0,))] == u               # Euler of t x^2 is itself
    assert jets[ZKey(0, (1,))].coeff(1, (1,)) == CRat(Frac(2))
    assert jets[ZKey(0, (2,))].coeff(1, (0,)) == CRat(Frac(2))
    assert jets[ZKey(1, (1,))].coeff(1, (1,)) == CRat(Frac(2))


# -- manufactured random equations -----------------------------------


def random_target(rng, n, k_t, k_x):
    u = SeriesTX.zero(n, k_t, k_x)
    for _ in range(3):
        k = rng.randint(1, 3)
        alpha = tuple(rng.randint(0, 1) for _ in range(n))
        if sum(alpha) > 2:
            continue
        c = Frac(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        u = u + SeriesTX.monomial(n, k_t, k_x, c, k, alpha)
    if u.is_zero():
        u = SeriesTX.monomial(n, k_t, k_x, 1, 1, (0,) * n)
    return u


def random_base_equation(rng, n, k_t, k_x):
    # exact negative-rational exponent pair guarantees nonzero indicial
    # values at every positive integer step
    lam1 = Frac(-rng.randint(1, 4), rng.choice([1, 2]))
    lam2 = lam1 - Frac(rng.randint(0, 3), rng.choice([1, 2]))
    b1 = lam1 + lam2
    b0 = -(lam1 * lam2)
    F = SeriesTXZ.z_var(n, k_t, k_x, ZKey(1, (0,) * n)).scale(b1) \
        + SeriesTXZ.z_var(n, k_t, k_x, ZKey(0, (0,) * n)).scale(b0)
    keys = lambda_keys(n)
    for _ in range(rng.randint(1, 3)):
        zk1, zk2 = rng.choice(keys), rng.choice(keys)
        c = Frac(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 5))
        term = SeriesTXZ.z_var(n, k_t, k_x, zk1) \
            * SeriesTXZ.z_var(n, k_t, k_x, zk2)
        F = F + term.scale(c)
    return FuchsianEquation(F)


def test_manufactured_random_recovery():
    rng = random.Random(424242)
    order = 8
    recovered = 0
    for case in range(24):
        n = 1 + (case % 2)
        k_x = 2 + 2 * order + 2                # room for solve + verify
        eq = random_base_equation(rng, n, order + 1, k_x)
        target = random_target(rng, n, order + 1, k_x)
        eqf = manufactured(eq, target)
        sol = solve_formal(eqf, order)
        want = target.truncate(k_t=sol.u.k_t, k_x=sol.u.k_x)
        assert sol.u == want, f"case {case}: wrong series"
        r = residual(eqf, sol.u, order)
        assert r.truncate(k_x=sol.u.k_x - 2).is_zero(), f"case {case}: residual"
        recovered += 1
    assert recovered >= 20


def test_manufactured_rejects_t0_targets():
    from fuchsian.errors import A2Violation
    eq = load_equation("remark3")
    bad = SeriesTX.one(1, eq.F.k_t, eq.F.k_x)
    with pytest.raises(A2Violation):
        manufactured(eq, bad)


# -- relaxed construction against full re-substitution ----------------


def solve_by_resubstitution(eq, order):
    """Reference construction: at every step, substitute the whole jet of
    the partial sum into F and read off the t^k coefficient."""
    F = eq.F
    if F.k_t < order:
        raise TruncationExhausted(
            f"right-hand side tracks t-order {F.k_t} < requested {order}")
    x_order = F.k_x - eq.m * order
    if x_order < 0:
        raise TruncationExhausted(
            f"need k_x >= {eq.m * order} on the right-hand side for "
            f"x-degree 0 at t-order {order} (have {F.k_x})")
    u = SeriesTX.zero(eq.n, order, F.k_x)
    for k in range(1, order + 1):
        rhs = F.substitute_z(derivative_tuple(u))
        section = SeriesTX(eq.n, 0, rhs.k_x, {(0, a): c for (kk, a), c
                                              in rhs.terms.items() if kk == k})
        Pk = indicial_series(eq, k)
        if Pk.coeff(0, (0,) * eq.n).is_zero():
            raise IndicialZero(
                f"indicial polynomial vanishes at s = {k}; the recursion "
                f"cannot be solved at this order")
        Pk = Pk.truncate(k_x=section.k_x)
        uk_x = Pk.invert_unit() * section
        u = u + SeriesTX(eq.n, u.k_t, uk_x.k_x,
                         {(k, a): c for (_, a), c in uk_x.terms.items()})
    verified = u.k_x >= eq.m
    if verified:
        assert residual(eq, u, order).is_zero()
    return FormalSolution(u=u.truncate(k_x=x_order), verified=verified)


_small = st.builds(Frac, st.integers(-5, 5).filter(bool), st.integers(1, 4))
_alphas = {n: [a for d in range(3) for a in alphas_of_degree(n, d)]
           for n in (1, 2)}


@st.composite
def random_equations(draw):
    """Order-2 equations with negative exponents (so no resonance), a
    forcing, x-dependent indicial coefficients, linear jet terms carrying
    t^a x^beta with a >= 1, and quadratic and cubic jet monomials."""
    n = draw(st.sampled_from((1, 2)))
    K = draw(st.integers(2, 6) if n == 1 else st.integers(1, 4))
    x_order = draw(st.integers(0, 2))
    keys = lambda_keys(n)
    zero = (0,) * n
    lam1 = -Frac(draw(st.integers(1, 6)), draw(st.integers(1, 3)))
    lam2 = lam1 - Frac(draw(st.integers(0, 4)), 2)
    terms = [(0, zero, ((ZKey(1, zero), 1),), lam1 + lam2),
             (0, zero, ((ZKey(0, zero), 1),), -lam1 * lam2)]

    def term(t_min, z_deg):
        a = draw(st.integers(t_min, 2))
        beta = draw(st.sampled_from(_alphas[n]))
        zks = draw(st.lists(st.sampled_from(keys),
                            min_size=z_deg, max_size=z_deg))
        c = CRat(draw(_small), draw(st.sampled_from((Frac(0), Frac(1, 2)))))
        terms.append((a, beta, _norm_nu((zk, 1) for zk in zks), c))

    terms.append((1, zero, (), draw(_small)))    # forcing, vanishes at t = 0
    for _ in range(draw(st.integers(0, 1))):
        term(1, 0)
    for _ in range(draw(st.integers(0, 2))):     # x-dependent indicial part
        i = draw(st.integers(0, 1))
        beta = draw(st.sampled_from(_alphas[n][1:]))
        terms.append((0, beta, ((ZKey(i, zero), 1),), draw(_small)))
    for _ in range(draw(st.integers(0, 2))):
        term(1, 1)
    for _ in range(draw(st.integers(1, 3))):
        term(0, 2)
    for _ in range(draw(st.integers(0, 2))):
        term(0, 3)
    data = {}
    for a, beta, nu, c in terms:
        acc = data.get((a, beta, nu))
        data[(a, beta, nu)] = c if acc is None else acc + c
    F = SeriesTXZ(n, K + draw(st.integers(0, 1)), x_order + 2 * K, data)
    return FuchsianEquation(F), K


def _outcome(fn, eq, K):
    """The solution with its caps, which SeriesTX equality ignores; they
    are the t-order and x-degree a solution reports."""
    try:
        sol = fn(eq, K)
    except ToolkitError as exc:
        return type(exc), str(exc)
    return sol, sol.u.k_t, sol.u.k_x


def jet_product_equations(n):
    """Fixed inputs for the split Z^nu = Z^p z_e of jet monomials.  The
    first equation has a square z10^2, a cubic z01^2 z02 with a repeated
    factor, and z02 z11 and t x z01 z02 sharing z02 (the second
    at a = 1, so it adds nothing to L_p[j] for j <= 1).  The second has
    jet monomials that share no factor."""
    zero, x1 = (0,) * n, (1,) + (0,) * (n - 1)
    z00, z10, z01, z11 = (ZKey(i, a) for a in (zero, x1) for i in (0, 1))
    z02 = ZKey(0, (2,) + zero[1:])
    K = 6 if n == 1 else 4
    linear = {(0, zero, ((z10, 1),)): Frac(-13, 6),
              (0, zero, ((z00, 1),)): Frac(-5, 6),
              (1, zero, ()): 1, (1, x1, ()): 1, (2, zero[:-1] + (1,), ()): 1}
    shared = {(0, zero, ((z10, 2),)): Frac(1, 2),
              (0, zero, ((z01, 2), (z02, 1))): Frac(1, 3),
              (0, zero, ((z02, 1), (z11, 1))): 2,
              (1, x1, ((z01, 1), (z02, 1))): Frac(-1, 4)}
    apart = {(0, zero, ((z00, 1), (z02, 1))): Frac(1, 2),
             (0, zero, ((z10, 1), (z11, 1))): 3}
    return [(FuchsianEquation(SeriesTXZ(n, K, 2 + 2 * K,
                                        {**linear, **jet})), K)
            for jet in (shared, apart)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(random_equations())
@example(jet_product_equations(1)[0])
@example(jet_product_equations(1)[1])
@example(jet_product_equations(2)[0])
@example(jet_product_equations(2)[1])
def test_relaxed_solver_equals_resubstitution(case):
    eq, K = case
    got = _outcome(solve_formal, eq, K)
    want = _outcome(solve_by_resubstitution, eq, K)
    assert got == want


def _checked_u(eq, K):
    """The u whose t-sections solve_formal(eq, K) hands its residual check,
    rebuilt as a SeriesTX at the caps the check reads, or None when the
    solve raises or skips the check."""
    seen = []
    check = solver._sections_vanish
    solver._sections_vanish = lambda *args: seen.append(args) or check(*args)
    try:
        solve_formal(eq, K)
    except ToolkitError:
        pass
    finally:
        solver._sections_vanish = check
    if not seen:
        return None
    _, sections, k_x, B = seen[0]
    return SeriesTX(eq.n, len(sections) - 1, k_x, {
        (k, solver._unpack(a, eq.n, B)): CRat(Frac(re, den), Frac(im, den))
        for k, (den, num) in enumerate(sections)
        for a, (re, im) in num.items()})


def _verdict(fn, *args):
    try:
        return fn(*args)
    except ToolkitError as exc:
        return type(exc), str(exc)


def _jet_free_equation():
    # no jet variable: P_k = k^2 and every cap is F's and u's own
    return FuchsianEquation(SeriesTXZ(2, 4, 5, {
        (1, (0, 0), ()): 1, (2, (1, 0), ()): Frac(1, 2),
        (3, (1, 2), ()): CRat(Frac(1, 3), Frac(-2))})), 4


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(random_equations(), st.integers(0, 10 ** 6), _small)
@example(jet_product_equations(1)[0], 17, Frac(1))
@example(jet_product_equations(2)[1], 5, Frac(-3, 2))
@example(jet_product_equations(1)[0], 0, Frac(1))
@example(_jet_free_equation(), 11, Frac(2))
def test_integer_residual_check_equals_crat_residual(case, where, delta):
    # on the u solve_formal checks, and on u with one coefficient inside its
    # caps moved by delta (at t^0 x^0 too, where = 0)
    eq, K = case
    u = _checked_u(eq, K)
    assume(u is not None)
    keys = [(k, a) for k in range(u.k_t + 1) for d in range(u.k_x + 1)
            for a in alphas_of_degree(u.n, d)]
    key = keys[where % len(keys)]
    moved = SeriesTX(u.n, u.k_t, u.k_x,
                     {**u.terms, key: u.coeff(*key) + delta})
    for v in (u, moved):
        want = _verdict(lambda: residual(eq, v, K).is_zero())
        assert _verdict(solver._residual_vanishes, eq, v, K) == want
    assert solver._residual_vanishes(eq, u, K)


def _forced_to_t5():
    # remark3_forced plus forcing t^5: t/6 solves it through t-order 4
    F = load_equation("remark3_forced").F
    return FuchsianEquation(F + SeriesTXZ(1, F.k_t, F.k_x,
                                          {(5, (0,), ()): 1}))


@pytest.mark.parametrize("make_eq, terms, k_t, K, want", [
    # u's own t-cap and K each hide the forcing t^5
    (_forced_to_t5, {(1, (0,)): Frac(1, 6)}, 4, 10, True),
    (_forced_to_t5, {(1, (0,)): Frac(1, 6)}, 10, 4, True),
    (_forced_to_t5, {(1, (0,)): Frac(1, 6)}, 10, 5, False),
], ids=["u-cap", "K-cap", "t5"])
def test_integer_residual_check_stops_at_the_t_caps(make_eq, terms, k_t, K,
                                                    want):
    eq = make_eq()
    u = SeriesTX(1, k_t, eq.F.k_x, terms)
    assert residual(eq, u, K).is_zero() is want
    assert solver._residual_vanishes(eq, u, K) is want


# -- the integer product kernel ---------------------------------------


def _ascending(section):
    return list(section[1]) == sorted(section[1])


def _packed(section, B):
    """A tuple-keyed section in the solver's packed form, keys ascending."""
    den, num = section
    return den, {solver._pack(a, B): num[a]
                 for a in sorted(num, key=_alpha_key)}


def _unpacked(section, n, B):
    den, num = section
    return den, {solver._unpack(k, n, B): c for k, c in num.items()}


def _limit(cap, n, B):
    """The first packed key past x-cap cap."""
    return (cap + 1) * B ** n


@st.composite
def _alphas_up_to(draw, n, top):
    """An exponent tuple of length n and total degree at most top."""
    rest, alpha = draw(st.integers(0, top)), []
    for _ in range(n - 1):
        alpha.append(draw(st.integers(0, rest)))
        rest -= alpha[-1]
    return (*alpha, rest)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(*[_alphas_up_to(n, MAX_K_X)] * 2)))
@example(((MAX_K_X,), (0,)))
@example(((0, 0, MAX_K_X), (1, 0, 0)))
def test_packed_keys_round_trip_in_alpha_key_order(pair):
    # B = MAX_K_X + 1 bounds every x-degree a parsed document can reach
    B, n = MAX_K_X + 1, len(pair[0])
    a, b = pair
    assert solver._unpack(solver._pack(a, B), n, B) == a
    assert ((solver._pack(a, B) < solver._pack(b, B))
            == (_alpha_key(a) < _alpha_key(b)))
    ab = tuple(x + y for x, y in zip(a, b))
    if sum(ab) <= MAX_K_X:
        assert solver._pack(a, B) + solver._pack(b, B) == solver._pack(ab, B)


@st.composite
def _cauchy_cases(draw):
    """(f, g) pairs of tuple-keyed sections, empty ones included, on n = 1,
    2 or 3, with monomials of degree below a base B, and an x-cap from
    below every degree to B - 1, where a carry past the cap would show."""
    n, B = draw(st.sampled_from((1, 2, 3))), draw(st.integers(1, 5))
    alphas = [a for d in range(B) for a in alphas_of_degree(n, d)]
    nums = st.integers(-9, 9)

    def section():
        support = draw(st.lists(st.sampled_from(alphas), unique=True,
                                max_size=5))
        return draw(st.integers(1, 12)), {
            a: draw(st.tuples(nums, nums).filter(any)) for a in support}

    pairs = [(section(), section()) for _ in range(draw(st.integers(0, 4)))]
    return n, B, pairs, draw(st.integers(-1, B - 1))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_cauchy_cases())
@example((1, 3, [((2, {(0,): (1, 0)}), (3, {(1,): (0, 1)}))], -1))
@example((1, 2, [((1, {}), (2, {(0,): (1, 1)})),
                 ((5, {(1,): (2, 0)}), (1, {})),
                 ((3, {(0,): (1, 0), (1,): (0, 2)}), (4, {(0,): (-1, 0)}))],
          1))
@example((2, 3, [((1, {(0, 1): (1, 0), (0, 2): (1, 0)}),
                  (1, {(0, 1): (2, 0), (1, 1): (0, 1), (2, 0): (3, 0)}))], 2))
@example((3, 4, [((1, {(0, 0, 3): (1, 0), (1, 2, 0): (2, 1)}),
                  (1, {(0, 0, 1): (1, 0), (1, 0, 0): (1, 0)}))], 3))
def test_cauchy_equals_the_pairwise_oracle(case):
    # the packed kernel drops pairs with an empty side and stops each scan
    # of g at its first key past the cap; the tuple-keyed oracle visits
    # every pair in any order
    n, B, pairs, cap = case
    got = solver._cauchy([(_packed(f, B), _packed(g, B)) for f, g in pairs],
                         _limit(cap, n, B))
    assert _unpacked(got, n, B) == cauchy_by_pairs(pairs, cap)
    assert _ascending(got)


@st.composite
def _division_cases(draw):
    """A unit P whose tail holds monomials that divide some reached alpha
    and not others, a G, n = 2 or 3, and the x-cap at B - 1, where a key
    a - b with b not dividing a borrows into a valid-looking key."""
    n, cap = draw(st.sampled_from((2, 3))), draw(st.integers(2, 4))
    alphas = [a for d in range(cap + 1) for a in alphas_of_degree(n, d)]
    nums = st.integers(-6, 6)

    def section(support, first=()):
        return draw(st.integers(1, 6)), {
            a: draw(st.tuples(nums, nums).filter(any))
            for a in (*first, *support)}

    one = tuple(int(i == n - 1) for i in range(n))
    tail = draw(st.lists(st.sampled_from(alphas[1:]), unique=True,
                         min_size=1, max_size=4))
    P = section({one, *tail}, first=[(0,) * n])
    G = section(draw(st.lists(st.sampled_from(alphas), unique=True,
                              min_size=1, max_size=4)))
    return n, cap, P, G


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_division_cases())
@example((2, 2, (1, {(0, 0): (1, 0), (0, 1): (1, 0), (1, 1): (2, 0)}),
          (1, {(0, 2): (1, 0), (1, 0): (3, 0)})))
@example((3, 3, (1, {(0, 0, 0): (2, 1), (0, 0, 1): (1, 0), (0, 2, 0): (1, 0)}),
          (3, {(0, 0, 3): (1, 0), (0, 1, 0): (0, 1), (1, 0, 0): (1, 0)})))
def test_divide_unit_multiplies_back_to_g_below_the_cap(case):
    # B = cap + 1: x^(1,0) has key B and x^(0,1) key 1, so B - 1 is the key
    # of x^(0,cap) though (0,1) does not divide (1,0); the division reads
    # a - b only where it is the key of a quotient
    n, cap, P, G = case
    B = cap + 1
    u = solver._divide_unit(_packed(P, B), _packed(G, B), _limit(cap, n, B))
    assert _ascending(u)
    u = _unpacked(u, n, B)
    assert all(sum(a) <= cap for a in u[1])
    assert (cauchy_by_pairs([(P, u)], cap)
            == cauchy_by_pairs([((1, {(0,) * n: (1, 0)}), G)], cap))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(random_equations())
@example(jet_product_equations(1)[0])
@example(jet_product_equations(2)[0])
def test_every_solver_section_is_degree_sorted(case):
    # _cauchy's early stop is exact only on sections listed by ascending
    # key, so by ascending degree: every section the construction builds is
    # one, and so is every section the check builds, from u's terms in any
    # order
    eq, K = case
    u = _checked_u(eq, K)
    assume(u is not None)
    flipped = SeriesTX(u.n, u.k_t, u.k_x, dict(reversed(u.terms.items())))
    built = []

    def recording(fn, sections=lambda out: [out]):
        def wrapper(*args):
            out = fn(*args)
            built.extend(sections(out))
            return out
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name in ("_from_crat", "_cauchy", "_divide_unit"):
            mp.setattr(solver, name, recording(getattr(solver, name)))
        mp.setattr(solver, "_jet_coeffs",
                   recording(solver._jet_coeffs, dict.values))
        solve_formal(eq, K)
        assert solver._residual_vanishes(eq, flipped, K)
    assert all(_ascending(section) for section in built)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(random_equations())
@example(jet_product_equations(1)[0])
@example(jet_product_equations(2)[1])
def test_each_x_order_is_the_largest_solution_truncated(case):
    # the construction does not depend on x_order: a solve at x_order j
    # returns the largest x_order's u cut at x-degree j, caps and verdict
    # included
    eq, K = case
    top = solve_formal(eq, K)
    assert top.u.k_x == eq.F.k_x - eq.m * K
    for j in range(top.u.k_x + 1):
        sol = solve_formal(eq, K, x_order=j)
        want = top.u.truncate(k_x=j)
        assert (sol.u, sol.u.k_t, sol.u.k_x, sol.verified) == (
            want, want.k_t, j, top.verified)


# -- guard counts on one fixed equation --------------------------------


@pytest.fixture(scope="module")
def guard_equation():
    """n = 1, K = 12: t - 13/6 z10 - 5/6 z00 - x z00 + z01 z02 / 4
    + 2 z02 z11, solved to x-degree 2."""
    def term(p, q, t_pow, x_pow, keys):
        return {"coeff": [p, q, 0, 1], "t_pow": t_pow, "x_pows": [x_pow],
                "z_pows": [{"i": i, "alpha": [a], "pow": 1} for i, a in keys]}

    return parse_equation({
        "m": 2, "n": 1, "truncation": {"K_t": 12, "K_x": 26, "K_z": 2},
        "terms": [term(1, 1, 1, 0, []), term(-13, 6, 0, 0, [(1, 0)]),
                  term(-5, 6, 0, 0, [(0, 0)]), term(-1, 1, 0, 1, [(0, 0)]),
                  term(1, 4, 0, 0, [(0, 1), (0, 2)]),
                  term(2, 1, 0, 0, [(0, 2), (1, 1)])]})


@pytest.fixture
def crat_muls(monkeypatch):
    """One-element list counting the CRat multiplications made after the
    fixture is set up."""
    calls = [0]
    mul = CRat.__mul__

    def counting(a, b):
        calls[0] += 1
        return mul(a, b)

    monkeypatch.setattr(CRat, "__mul__", counting)
    monkeypatch.setattr(CRat, "__rmul__", counting)
    return calls


# CRat multiplications of solve_formal(verify=True) on the guard equation
# with full re-substitution at every step (measured with crat_muls)
RESUBSTITUTION_MULS_N1_K12 = 52384


def test_relaxed_solver_multiplication_count(guard_equation, crat_muls):
    sol = solve_formal(guard_equation, 12)
    assert sol.verified and not sol.u.is_zero()
    assert 3 * crat_muls[0] <= RESUBSTITUTION_MULS_N1_K12, crat_muls[0]


def test_integer_kernel_multiplication_count(guard_equation, crat_muls):
    # construction only: G_k and the jet products run on integer
    # numerators, so CRat multiplications are left to P_k's inverse and
    # u_k = P_k^-1 G_k (11,262 when every Cauchy product multiplied CRat
    # values)
    sol = solve_formal(guard_equation, 12, verify=False)
    assert not sol.u.is_zero()
    assert 5 * crat_muls[0] <= 11262, crat_muls[0]


def test_triangular_solve_multiplies_no_crat(guard_equation, crat_muls):
    # construction only: P_k and u_k = P_k^-1 G_k run on integer numerators
    # too, so no CRat product is left (1,678 when u_k was
    # Pk.invert_unit() * G_k)
    sol = solve_formal(guard_equation, 12, verify=False)
    assert not sol.u.is_zero()
    assert crat_muls[0] == 0


def test_verified_solve_multiplies_no_crat(crat_muls, monkeypatch):
    # solve-dense shape 0: the residual check runs on integer numerators
    # too (298 CRat products in 8 SeriesTX products when it substituted u
    # into F through SeriesTXZ.substitute_z)
    eq = load_equation(str(GOLDEN_INPUTS / "dense_0_0.json"))
    tx_muls = [0]
    mul = SeriesTX.__mul__

    def counting(a, b):
        tx_muls[0] += 1
        return mul(a, b)

    monkeypatch.setattr(SeriesTX, "__mul__", counting)
    crat_muls[0] = 0
    sol = solve_formal(eq, eq.F.k_t, verify=True)
    assert sol.verified and not sol.u.is_zero()
    assert (crat_muls[0], tx_muls[0]) == (0, 0)


def test_fault_in_one_numerator_of_u2_fails_the_check(guard_equation,
                                                     monkeypatch):
    # the check reads the integer sections the construction built: u_2 with
    # its x^0 numerator off by one leaves P_2(0) at t^2 x^0, inside every
    # cap the check has, and the solve must stop
    divide, steps = solver._divide_unit, []

    def faulty(*args):
        den, num = divide(*args)
        steps.append(num)
        if len(steps) == 2:
            re, im = num[0]
            num = {**num, 0: (re + 1, im)}
        return den, num

    monkeypatch.setattr(solver, "_divide_unit", faulty)
    with pytest.raises(AssertionError, match="internal error: formal "
                       "solution leaves a nonzero residual"):
        solve_formal(guard_equation, 12)
    assert len(steps) == 12


def test_verified_solve_builds_one_fraction_per_returned_part(
        guard_equation, monkeypatch):
    # u is converted once, at its caps: two Fraction constructions per
    # returned term, 72 here (336 when every u_k was converted at its own
    # x-cap and the check converted u back to integers)
    calls = [0]
    new = Frac.__new__

    def counting(cls, *args, **kwargs):
        calls[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Frac, "__new__", counting)
    sol = solve_formal(guard_equation, 12)
    monkeypatch.undo()
    assert sol.verified and len(sol.u.terms) == 36
    assert calls[0] <= 2 * len(sol.u.terms), calls[0]


def test_shared_factor_shares_one_cauchy_product(guard_equation,
                                                 monkeypatch):
    # z01 z02 / 4 and 2 z02 z11 share z02, so each step multiplies z02 by
    # the one linear form z01 / 4 + 2 z11.  One construction passes 137
    # (f, g) pairs to _cauchy, whose degree-capped term products number
    # 4,691; with one Cauchy product per jet monomial it was 203 and 9,047
    seen = {"pairs": 0, "products": 0}
    cauchy = solver._cauchy

    def counting(pairs, lim):
        seen["pairs"] += len(pairs)
        seen["products"] += sum(k1 + k2 < lim for (_, f), (_, g) in pairs
                                for k1 in f for k2 in g)
        return cauchy(pairs, lim)

    monkeypatch.setattr(solver, "_cauchy", counting)
    sol = solve_formal(guard_equation, 12, verify=False)
    assert not sol.u.is_zero()
    assert seen["pairs"] <= 137 and seen["products"] <= 4691, seen


def test_x_free_solve_walks_only_reached_monomials():
    # n = 3, K_x = 32 and an x-free F: P_k is a constant and G_k one term,
    # so u_k = P_k^-1 G_k is one term.  Walking every x-monomial up to the
    # cap at each step (6,545 at step 1) took 0.12 s on a 2-CPU machine;
    # the reached ones take under 1 ms
    z00, z10 = ({"i": i, "alpha": [0, 0, 0], "pow": 1} for i in (0, 1))
    eq = parse_equation({
        "m": 2, "n": 3, "truncation": {"K_t": 12, "K_x": 32, "K_z": 2},
        "terms": [{"coeff": c, "t_pow": a, "x_pows": [0, 0, 0],
                   "z_pows": nu}
                  for c, a, nu in (([1, 1, 0, 1], 1, []),
                                   ([-3, 1, 0, 1], 0, [z10]),
                                   ([-2, 1, 0, 1], 0, [z00]),
                                   ([1, 1, 0, 1], 0, [{**z00, "pow": 2}]))]})
    start = time.perf_counter()
    sol = solve_formal(eq, 12)
    elapsed = time.perf_counter() - start
    assert sol.verified and sol.u.k_x == 8
    assert sorted(sol.u.terms) == [(k, (0, 0, 0)) for k in range(1, 13)]
    assert elapsed < 0.05, elapsed


def test_probe_d3_solves_and_verifies_at_order_2():
    # the worst admitted document of the input limits (n = 3, 26 terms,
    # K_x = 32, jet monomials of degree 2 and 3): a verified order-2 solve
    # takes about 0.25 s on a 2-CPU machine
    eq = load_equation(str(GOLDEN_INPUTS / "d3.json"))
    start = time.perf_counter()
    sol = solve_formal(eq, 2)
    elapsed = time.perf_counter() - start
    assert sol.verified and not sol.u.is_zero()
    assert elapsed < 10, elapsed


# -- complex indicial coefficients -------------------------------------


@st.composite
def complex_equations(draw):
    """random_equations with complex exponents -a + ib, a, b > 0 (so no
    resonance and Im beta*_0, Im beta*_1 != 0), a complex x-dependent part
    of each beta*_i, and the x-budget for verify."""
    eq, K = draw(random_equations())
    F, zero = eq.F, (0,) * eq.n
    lam1, lam2 = (CRat(-Frac(draw(st.integers(1, 6)), draw(st.integers(1, 3))),
                       Frac(draw(st.integers(1, 4)), draw(st.integers(1, 3))))
                  for _ in range(2))
    data = dict(F.terms)
    data[(0, zero, ((ZKey(1, zero), 1),))] = lam1 + lam2
    data[(0, zero, ((ZKey(0, zero), 1),))] = CRat() - lam1 * lam2
    for i in (0, 1):
        key = (0, draw(st.sampled_from(_alphas[eq.n][1:])),
               ((ZKey(i, zero), 1),))
        data[key] = data.get(key, CRat()) + CRat(draw(_small), draw(_small))
    F = SeriesTXZ(eq.n, F.k_t, max(F.k_x, 2 * K + 2), data)
    return FuchsianEquation(F), K


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(complex_equations())
def test_complex_indicial_solver_equals_resubstitution(case):
    eq, K = case
    betas = eq.char_exponents().betas
    assert all(b.coeff(0, (0,) * eq.n).im for b in betas)
    assert all(any(c.im for (_, a), c in b.terms.items() if any(a))
               for b in betas)
    got = _outcome(solve_formal, eq, K)
    assert got == _outcome(solve_by_resubstitution, eq, K)
    assert got[0].verified


@pytest.mark.parametrize("n", [1, 2])
def test_complex_resonance_raises(n):
    # exponents 2 and -1 + i: beta*_1 = 1 + i, beta*_0 = 2 - 2i, and
    # P_2(0) = 4 - 2 (1 + i) - (2 - 2i) = 0, while P_1(0) = -2 + i
    zero, x1 = (0,) * n, (1,) + (0,) * (n - 1)
    F = SeriesTXZ(n, 4, 8, {
        (0, zero, ((ZKey(1, zero), 1),)): CRat(1, 1),
        (0, zero, ((ZKey(0, zero), 1),)): CRat(2, -2),
        (0, x1, ((ZKey(0, zero), 1),)): CRat(1, 3),
        (1, zero, ()): CRat(1, 1),
        (0, zero, ((ZKey(0, zero), 2),)): 1})
    eq = FuchsianEquation(F)
    got = _outcome(solve_formal, eq, 3)
    assert got == _outcome(solve_by_resubstitution, eq, 3)
    assert got == (IndicialZero, "indicial polynomial vanishes at s = 2; "
                   "the recursion cannot be solved at this order")


@pytest.mark.parametrize("n", [1, 2])
def test_negative_indicial_value_matches_resubstitution(n):
    # exponents 5/2 and -1: P_1(0) = -3 and P_2(0) = -3/2 divide with a
    # negative denominator, P_3(0) = 2 and P_4(0) = 15/2 with a positive one
    zero, x1 = (0,) * n, (1,) + (0,) * (n - 1)
    F = SeriesTXZ(n, 4, 10, {
        (0, zero, ((ZKey(1, zero), 1),)): Frac(3, 2),
        (0, zero, ((ZKey(0, zero), 1),)): Frac(5, 2),
        (0, x1, ((ZKey(0, zero), 1),)): Frac(1, 3),
        (0, x1, ((ZKey(1, zero), 1),)): Frac(-2, 7),
        (1, zero, ()): 1, (1, x1, ((ZKey(0, x1), 1),)): 2,
        (0, zero, ((ZKey(0, zero), 2),)): 1})
    eq = FuchsianEquation(F)
    got = _outcome(solve_formal, eq, 4)
    assert got == _outcome(solve_by_resubstitution, eq, 4)
    assert got[0].verified and not got[0].u.is_zero()
