"""Comparison-series norms, evaluated against an independent quadrature oracle.

The weighted time integral behind integral_transform is
    (T_a M)(t, rho) = t^-a * int_0^t s^(a-1) M(s, rho) ds,
which on a monomial t^k p(rho) gives t^k p(rho) / (k + a).  The oracle below
computes the integral numerically with scipy and never reuses the package's
own slice arithmetic, so the two sides are independent.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fuchsian.errors import NonpositiveExponent
from fuchsian.majorant import NormProfileZ, RhoPoly, SectorMajorant, norm_x, norm_xz, weight
from fuchsian.rational import CRat, Frac
from fuchsian.series import SeriesTX, SeriesTXZ, ZKey, _norm_nu, lambda_keys
from oracles import sector_product


def rand_series(rng, n, k_t, k_x, n_terms=6, complex_coeffs=False):
    f = SeriesTX.zero(n, k_t, k_x)
    for _ in range(n_terms):
        k = rng.randint(0, k_t)
        alpha = tuple(rng.randint(0, 2) for _ in range(n))
        if sum(alpha) > k_x:
            continue
        re = Frac(rng.randint(-9, 9), rng.randint(1, 9))
        im = Frac(rng.randint(-9, 9), rng.randint(1, 9)) if complex_coeffs else Frac(0)
        f = f + SeriesTX.monomial(n, k_t, k_x, CRat(re, im), k, alpha)
    return f


# -- weights and basic norms -----------------------------------------


def test_weight_values():
    assert weight((0, 0)) == 1
    assert weight((3,)) == 1          # single variable: alpha!/|alpha|! = 1
    assert weight((1, 1)) == Frac(1, 2)
    assert weight((2, 1)) == Frac(2 * 1, 6)   # 2!1!/3!
    assert weight((1, 1, 1)) == Frac(1, 6)


def test_norm_of_constant_and_polynomials():
    one = norm_x(SeriesTX.one(1, 2, 2))
    assert one.eval(0.3, 0.9) == 1.0

    # |x + 2 x^2| -> rho + 2 rho^2
    f = SeriesTX.monomial(1, 2, 2, 1, 0, (1,)) + SeriesTX.monomial(1, 2, 2, 2, 0, (2,))
    M = norm_x(f)
    assert M.eval_frac(Frac(0), Frac(1, 2)) == Frac(1, 2) + 2 * Frac(1, 4)

    # cross term picks up the 1/2 weight
    g = SeriesTX.monomial(2, 2, 2, 1, 0, (1, 1))
    assert norm_x(g).eval_frac(Frac(0), Frac(1)) == Frac(1, 2)


def test_norm_uses_modulus_of_complex_coefficients():
    # |3/5 + 4/5 i| = 1 exactly, so the norm of that coefficient times x is rho
    c = CRat(Frac(3, 5), Frac(4, 5))
    f = SeriesTX.monomial(1, 2, 2, c, 0, (1,))
    assert norm_x(f).eval_frac(Frac(0), Frac(1, 3)) == Frac(1, 3)


def test_negative_signs_do_not_cancel_in_norms():
    f = SeriesTX.monomial(1, 2, 2, 1, 0, (1,)) - SeriesTX.monomial(1, 2, 2, 1, 1, (1,))
    # the two terms sit in different t slices; both contribute positively
    M = norm_x(f)
    assert M.eval(1.0, 1.0) == pytest.approx(2.0)


# -- frozen transform values ------------------------------------------


def test_transform_monomial_slices():
    # T_1(t^2 rho) = t^2 rho / 3 and T_2(2 t rho^2) = 2 t rho^2 / 3
    m1 = SectorMajorant({2: RhoPoly((0, Frac(1)))})
    out1 = m1.integral_transform(1)
    assert out1.eval_frac(Frac(1), Frac(1)) == Frac(1, 3)

    m2 = SectorMajorant({1: RhoPoly((0, 0, Frac(2)))})
    out2 = m2.integral_transform(2)
    assert out2.eval_frac(Frac(1), Frac(1)) == Frac(2, 3)
    assert out2.eval_frac(Frac(2), Frac(1)) == Frac(4, 3)


def test_transform_rejects_nonpositive_exponent():
    m = SectorMajorant({0: RhoPoly((Frac(1),))})
    with pytest.raises(NonpositiveExponent):
        m.integral_transform(0)
    with pytest.raises(NonpositiveExponent):
        m.integral_transform(Frac(-1, 2))


def test_transform_against_quadrature_oracle():
    rng = random.Random(314159)
    checked = 0
    while checked < 100:
        n_slices = rng.randint(1, 4)
        coeffs = {}
        for _ in range(n_slices):
            k = rng.randint(0, 5)
            deg = rng.randint(0, 3)
            c = Frac(rng.randint(1, 9), rng.randint(1, 9))
            coeffs[k] = RhoPoly((0,) * deg + (c,)) \
                + coeffs.get(k, RhoPoly())
        M = SectorMajorant(coeffs)
        a = Frac(rng.randint(1, 8), rng.randint(1, 4))
        t = rng.uniform(0.05, 1.5)
        rho = rng.uniform(0.0, 2.0)

        def integrand(s):
            return s ** (float(a) - 1.0) * M.eval(s, rho)

        val, err = quad(integrand, 0.0, t, epsabs=1e-13, epsrel=1e-12)
        oracle = t ** (-float(a)) * val
        ours = M.integral_transform(a).eval(t, rho)
        assert abs(ours - oracle) <= 1e-9 * (1.0 + abs(oracle))
        checked += 1


# -- order, calculus, multiplicativity --------------------------------


def test_leq_is_coefficientwise():
    small = SectorMajorant({1: RhoPoly((0, Frac(1, 2)))})
    big = SectorMajorant({1: RhoPoly((0, Frac(1))),
                          0: RhoPoly((Frac(1),))})
    assert small.leq(big)
    assert not big.leq(small)


def test_d_rho_and_euler():
    M = SectorMajorant({2: RhoPoly([Frac(0), Frac(0), Frac(3, 2)])})  # (3/2) t^2 rho^2
    assert M.d_rho().eval_frac(Frac(1), Frac(1)) == Frac(3)      # 3 t^2 rho
    assert M.euler().eval_frac(Frac(1), Frac(1)) == Frac(3)      # 2 * (3/2)


def test_eval_monotone_in_t_and_rho():
    rng = random.Random(21)
    for _ in range(50):
        f = rand_series(rng, 2, 3, 3, complex_coeffs=True)
        M = norm_x(f)
        assert M.eval(0.2, 0.3) <= M.eval(0.4, 0.3) + 1e-15
        assert M.eval(0.4, 0.3) <= M.eval(0.4, 0.9) + 1e-15


def test_norm_submultiplicative_coefficientwise():
    # 500 random pairs with REAL rational coefficients, so every comparison
    # below is exact fraction arithmetic with no enclosure slack.
    rng = random.Random(500500)
    for _ in range(500):
        n = rng.choice([1, 2])
        f = rand_series(rng, n, 2, 3, n_terms=4)
        g = rand_series(rng, n, 2, 3, n_terms=4)
        assert norm_x(f * g).leq(sector_product(norm_x(f), norm_x(g)))


def test_x_derivative_dominated_by_rho_derivative():
    rng = random.Random(606060)
    for _ in range(200):
        n = rng.choice([1, 2, 3])
        f = rand_series(rng, n, 2, 3, n_terms=5)
        j = rng.randrange(n)
        assert norm_x(f.dx(j)).leq(norm_x(f).d_rho())


def test_norm_soundness_complex():
    # with complex coefficients the norm still dominates pointwise values
    rng = random.Random(808)
    for _ in range(100):
        f = rand_series(rng, 1, 2, 3, complex_coeffs=True)
        t = rng.uniform(0.0, 1.0)
        x = rng.uniform(-0.5, 0.5)
        val = abs(SeriesTXZ.from_tx(f).numeric_evaluator()(t, (x,), {}))
        bound = norm_x(f).eval(t, abs(x))
        assert val <= bound * (1 + 1e-12) + 1e-15


# -- jet-variable profiles ---------------------------------------------


def build_profile(rng):
    keys = lambda_keys(1)
    F = SeriesTXZ.zero(1, 3, 3)
    for _ in range(4):
        zk = rng.choice(keys)
        c = Frac(rng.randint(1, 6), rng.randint(1, 6))
        term = SeriesTXZ.from_tx(
            SeriesTX.monomial(1, 3, 3, c, rng.randint(0, 1), (rng.randint(0, 1),)))
        for _ in range(rng.randint(0, 2)):
            term = term * SeriesTXZ.z_var(1, 3, 3, zk)
        F = F + term
    return F


def test_norm_xz_eval_matches_direct_substitution():
    rng = random.Random(1212)
    keys = lambda_keys(1)
    for _ in range(40):
        F = build_profile(rng)
        P = norm_xz(F)
        t, rho = rng.uniform(0.05, 0.8), rng.uniform(0.0, 0.9)
        z = {zk: rng.uniform(0.0, 0.5) for zk in keys}
        direct = 0.0
        for (k, alpha, nu), c in F.terms.items():
            term = float(c.abs_upper()) * float(weight(alpha)) \
                * t ** k * rho ** sum(alpha)
            for zk, p in nu:
                term *= z[zk] ** p
            direct += term
        assert P.eval(t, rho, z) == pytest.approx(direct, rel=1e-12, abs=1e-15)


def build_tfree_profile(rng):
    keys = lambda_keys(1)
    F = SeriesTXZ.zero(1, 3, 3)
    for _ in range(4):
        c = Frac(rng.randint(1, 6), rng.randint(1, 6))
        term = SeriesTXZ.from_tx(
            SeriesTX.monomial(1, 3, 3, c, 0, (rng.randint(0, 2),)))
        for _ in range(rng.randint(1, 2)):
            term = term * SeriesTXZ.z_var(1, 3, 3, rng.choice(keys))
        F = F + term
    return F


def test_z_linear_bound_dominates_on_box():
    # promised: value <= C * max_k |z_k| for rho <= R, |z_k| <= L, t-free
    rng = random.Random(333)
    for _ in range(60):
        F = build_tfree_profile(rng)
        P = norm_xz(F)
        R, L = Frac(1, 2), Frac(1, 4)
        C = P.z_linear_bound(R, L)
        for _ in range(10):
            z = {zk: rng.uniform(0, float(L)) for zk in lambda_keys(1)}
            rho = rng.uniform(0, float(R))
            val = P.eval(0.0, rho, z)
            cap = float(C) * max(z.values())
            assert val <= cap * (1 + 1e-12) + 1e-15


def test_z_linear_bound_rejects_jet_free_terms():
    F = SeriesTXZ.from_tx(SeriesTX.one(1, 3, 3))
    with pytest.raises(ValueError):
        norm_xz(F).z_linear_bound(Frac(1), Frac(1))


# -- float evaluation against the per-call conversion loops ------------


def _old_rho_eval(p, rho):
    acc = 0.0
    for c in reversed(p.coeffs):
        acc = acc * rho + float(c)
    return acc


def _old_sector_eval(M, t, rho):
    if not M.coeffs:
        return 0.0
    acc = 0.0
    for k in range(max(M.coeffs), -1, -1):
        acc = acc * t + _old_rho_eval(M.slice(k), rho)
    return acc


def _old_profile_eval(P, t, rho, z):
    zc = {ZKey(int(k[0]), tuple(int(a) for a in k[1])): float(v)
          for k, v in z.items()}
    acc = 0.0
    for (k, nu), p in P.sorted_items():
        v = _old_rho_eval(p, rho) * t ** k
        for zk, power in nu:
            v *= zc[zk] ** power
        acc += v
    return acc


# zero coefficients inside a polynomial, and zero polynomials that leave a
# gap in the t-powers, are both drawn on purpose
_coeff = st.builds(Frac, st.integers(0, 9), st.integers(1, 7))
_rho_poly = st.lists(_coeff, max_size=5).map(RhoPoly)
_point = st.one_of(st.just(0.0), st.floats(0.0, 2.0),
                   st.floats(1e-9, 1e-3))
_jet_keys = lambda_keys(1)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_rho_poly, _point)
def test_rho_poly_eval_matches_per_call_conversion(p, rho):
    want = _old_rho_eval(p, rho)
    assert p.eval(rho) == want
    assert p.eval(rho) == want            # and again on a second call


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(st.integers(0, 6), _rho_poly, max_size=4),
       _point, _point)
def test_sector_eval_matches_per_call_conversion(coeffs, t, rho):
    M = SectorMajorant(coeffs)
    want = _old_sector_eval(M, t, rho)
    assert M.eval(t, rho) == want
    assert M.eval(t, rho) == want


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(
           st.tuples(st.integers(0, 3),
                     st.lists(st.tuples(st.sampled_from(_jet_keys),
                                        st.integers(1, 3)), max_size=3)
                     .map(_norm_nu)),
           _rho_poly, min_size=2, max_size=6),
       _point, _point,
       st.lists(st.one_of(st.floats(0.0, 1.0), _coeff),
                min_size=len(_jet_keys), max_size=len(_jet_keys)),
       st.booleans())
def test_profile_eval_matches_per_call_conversion(profiles, t, rho, zvals,
                                                  plain_keys):
    # at least two terms, so that a change in summation order shows; jet
    # monomials canonical, as every caller builds them; z is keyed by ZKey
    # or by plain (i, alpha) pairs, with float or Fraction values
    P = NormProfileZ(profiles)
    z = {(tuple(zk) if plain_keys else zk): v
         for zk, v in zip(_jet_keys, zvals)}
    want = _old_profile_eval(P, t, rho, z)
    assert P.eval(t, rho, z) == want
    assert P.eval(t, rho, z) == want
