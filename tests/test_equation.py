"""Equation validation, characteristic exponents, indicial values."""

import random
from decimal import Decimal, localcontext

import pytest

from fuchsian.builtin import load_equation, parse_equation
from fuchsian.equation import FuchsianEquation, applicability
from fuchsian.errors import (A2Violation, A3Violation, IndexOutOfLambda,
                             IndicialZero)
from fuchsian.rational import CRat, Frac
from fuchsian.series import SeriesTX, SeriesTXZ, ZKey
from fuchsian.solver import solve_formal
from oracles import indicial_series


def linear_equation(beta0, beta1, n=1, k_t=6, k_x=8):
    """t d/dt-squared u = beta1 * (t d/dt u) + beta0 * u  (constant betas)."""
    F = SeriesTXZ.z_var(n, k_t, k_x, ZKey(1, (0,) * n)).scale(beta1) \
        + SeriesTXZ.z_var(n, k_t, k_x, ZKey(0, (0,) * n)).scale(beta0)
    return FuchsianEquation(F)


def test_builtin_exponents_first_example():
    eq = load_equation("remark2")
    cd = eq.char_exponents()
    assert cd.roots_exact is not None
    assert [(r.re, r.im) for r in cd.roots_exact] == [(-1, 0), (0, 0)]
    # one root sits on the imaginary axis: no decay rate
    assert cd.h is None


def test_builtin_exponents_second_example():
    eq = load_equation("remark3")
    cd = eq.char_exponents()
    assert cd.roots_exact is not None
    assert [(r.re, r.im) for r in cd.roots_exact] == [(-2, 0), (-1, 0)]
    assert cd.h == Frac(9, 20)          # (9/20) * min(1, 2)
    assert cd.neg_re_lower == (Frac(2), Frac(1))


def test_char_exponents_match_quadratic_residual():
    rng = random.Random(17)
    for _ in range(60):
        b1 = Frac(rng.randint(-12, 4), rng.randint(1, 6))
        b0 = Frac(rng.randint(-12, 4), rng.randint(1, 6))
        eq = linear_equation(b0, b1)
        cd = eq.char_exponents()
        b0c, b1c = complex(0), complex(0)
        for lam in cd.roots:
            # root residual for lambda^2 - b1 lambda - b0
            res = lam * lam - complex(float(b1)) * lam - complex(float(b0))
            assert abs(res) <= 1e-12 * (1.0 + abs(lam) ** 2)
        # ordering contract: ascending by (re, im)
        assert (cd.roots[0].real, cd.roots[0].imag) \
            <= (cd.roots[1].real, cd.roots[1].imag)


def test_exact_roots_when_discriminant_is_a_square():
    # lambda^2 + 3 lambda + 2 = 0 -> roots -2, -1
    eq = linear_equation(Frac(-2), Frac(-3))
    cd = eq.char_exponents()
    assert cd.roots_exact == (CRat(Frac(-2)), CRat(Frac(-1)))
    assert cd.h == Frac(9, 20)


def test_irrational_roots_reported_as_floats_only():
    # lambda^2 - lambda - 1: golden ratio pair, not rational
    eq = linear_equation(Frac(1), Frac(1))
    cd = eq.char_exponents()
    assert cd.roots_exact is None
    assert cd.roots[1].real == pytest.approx(1.6180339887498949, rel=1e-12)
    # positive real part: no decay bound
    assert cd.h is None


def test_complex_root_pair():
    # lambda^2 + 2 lambda + 5 -> -1 +/- 2i
    eq = linear_equation(Frac(-5), Frac(-2))
    cd = eq.char_exponents()
    assert cd.roots[0] == pytest.approx(complex(-1, -2))
    assert cd.roots[1] == pytest.approx(complex(-1, 2))
    assert cd.h == Frac(9, 20)


def test_indicial_value_matches_brute_quadratic():
    eq = load_equation("remark3")
    # P(s) = s^2 + 3 s + 2 once the linear jet terms move to the left side
    for s in range(1, 9):
        v = indicial_series(eq, s).coeff(0, (0,))
        assert v == CRat(Frac(s * s + 3 * s + 2))


def test_resonance_flagged_at_positive_integer_root():
    # lambda^2 - lambda - 2 = (lambda - 2)(lambda + 1): root at +2
    eq = linear_equation(Frac(2), Frac(1))
    assert indicial_series(eq, 2).coeff(0, (0,)) == CRat()
    assert applicability(eq.char_exponents(), 8)[0] == (2,)
    with pytest.raises(IndicialZero):
        solve_formal(eq, 2)


def test_a2_violation_detected():
    F = SeriesTXZ.from_tx(SeriesTX.one(1, 4, 4))
    with pytest.raises(A2Violation):
        FuchsianEquation(F)


def test_a3_violation_detected():
    # t-free term linear in a spatial-derivative jet slot
    F = SeriesTXZ.z_var(1, 4, 4, ZKey(0, (1,)))
    with pytest.raises(A3Violation):
        FuchsianEquation(F)


def test_t_carrying_linear_derivative_term_is_allowed():
    F = SeriesTXZ.z_var(1, 4, 4, ZKey(0, (1,))) \
        * SeriesTXZ.from_tx(SeriesTX.monomial(1, 4, 4, 1, 1, (0,)))
    eq = FuchsianEquation(F)     # must not raise
    assert eq.n == 1


def test_quadratic_derivative_terms_are_allowed_at_t0():
    z = SeriesTXZ.z_var(1, 4, 4, ZKey(0, (2,)))
    eq = FuchsianEquation(z * z)
    assert eq.char_exponents().roots_exact == (CRat(Frac(0)), CRat(Frac(0)))


def test_applicability_report_remark3():
    cd = load_equation("remark3").char_exponents()
    assert applicability(cd, K=10) == ((), ())
    assert all(v > 0 for v in cd.neg_re_lower)
    assert cd.h == Frac(9, 20)
    assert cd.roots_exact is not None


def test_applicability_report_remark2():
    cd = load_equation("remark2").char_exponents()
    # indicial values nonzero for k >= 1
    assert applicability(cd, K=10) == ((), ())
    # root zero blocks any decay exponent
    assert not all(v > 0 for v in cd.neg_re_lower)
    assert cd.h is None


def test_resonant_equation_reported():
    eq = linear_equation(Frac(2), Frac(1))   # root +2
    resonances, _ = applicability(eq.char_exponents(), K=10)
    assert 2 in resonances


def test_order_other_than_two_is_refused():
    # a third-order right-hand side needs the jet variable z[2, 0], which
    # lies outside the jet set of the second-order equation
    assert FuchsianEquation.m == 2
    doc = {"m": 2, "n": 1, "truncation": {"K_t": 4, "K_x": 4, "K_z": 2},
           "terms": [{"coeff": [1, 1, 0, 1],
                      "z_pows": [{"i": 2, "alpha": [0]}]}]}
    with pytest.raises(IndexOutOfLambda, match="not admissible for order 2"):
        parse_equation(doc)


def _scan_applicability(cd, K):
    """Resonances and near resonances by scanning 1..K and 1..10K, as
    applicability() found them before it tested one integer per root."""
    b0, b1 = (beta.coeff(0, (0,) * beta.n) for beta in cd.betas)

    def indicial(k):
        s = CRat(Frac(k))
        return s * s - b1 * s - b0

    resonances = tuple(k for k in range(1, K + 1) if indicial(k).is_zero())
    near = tuple((z, k) for z in cd.roots for k in range(1, 10 * K + 1)
                 if abs(z - k) < 1e-9 and not indicial(k).is_zero())
    return resonances, near


def _with_roots(r1, r2):
    """linear_equation whose indicial roots are r1 and r2."""
    return linear_equation(CRat(Frac(-1)) * r1 * r2, r1 + r2)


@pytest.mark.parametrize("make,want_res,want_near", [
    (lambda: _with_roots(Frac(2), Frac(-1)), (2,), 0),
    (lambda: _with_roots(3 + Frac(1, 10 ** 12), Frac(-1)), (), 1),
    (lambda: _with_roots(CRat(Frac(2), Frac(1)), CRat(Frac(2), Frac(-1))),
     (), 0),
    (lambda: linear_equation(Frac(-1), Frac(3)), (), 0),   # (3 -+ sqrt 5)/2
    (lambda: load_equation("remark3"), (), 0),
    (lambda: _with_roots(Frac(4), Frac(4)), (4,), 0),
    (lambda: _with_roots(Frac(1), Frac(12)), (1,), 0),
])
def test_applicability_matches_the_integer_scan(make, want_res, want_near):
    cd = make().char_exponents()
    resonances, near = applicability(cd, 10)
    assert (resonances, near) == _scan_applicability(cd, 10)
    assert resonances == want_res
    assert len(near) == want_near
    # the report's decay_applicable reads cd.h for this
    assert (cd.h is not None) == all(v > 0 for v in cd.neg_re_lower)


def test_applicability_cost_does_not_grow_with_the_order():
    cd = _with_roots(Frac(2), Frac(-1)).char_exponents()
    assert applicability(cd, 10 ** 9) == ((2,), ())


def _dec(f: Frac) -> Decimal:
    return Decimal(f.numerator) / Decimal(f.denominator)


def _neg_re_roots_decimal(b0: CRat, b1: CRat) -> tuple:
    """-Re of the roots (b1 -+ sqrt(D)) / 2 of s^2 - b1 s - b0, D = b1^2 +
    4 b0, in the current decimal context; Re sqrt(D) in the
    cancellation-free form."""
    d = b1 * b1 + CRat(Frac(4)) * b0
    dre, dim = _dec(d.re), _dec(d.im)
    w = ((dre.copy_abs() + (dre * dre + dim * dim).sqrt()) / 2).sqrt()
    re_sqrt = w if dre >= 0 else dim.copy_abs() / (2 * w)
    return ((re_sqrt - _dec(b1.re)) / 2, (-re_sqrt - _dec(b1.re)) / 2)


def test_irrational_neg_re_lower_is_a_tight_proved_bound():
    rng = random.Random(2024)
    frac = lambda: Frac(rng.randint(-12, 12), rng.randint(1, 7))
    cases = [(CRat(frac()), CRat(frac())) for _ in range(150)]
    cases += [(CRat(frac(), frac()), CRat(frac(), frac())) for _ in range(150)]
    # D close to the negative real axis, where sqrt((|D| + Re D) / 2)
    # would subtract nearly equal values
    cases += [(CRat(Frac(-rng.randint(1, 9)), Frac(1, 10 ** e)), CRat())
              for e in range(2, 12)]
    seen = 0
    for b0, b1 in cases:
        cd = linear_equation(b0, b1).char_exponents()
        if cd.roots_exact is not None:
            continue
        seen += 1
        with localcontext() as ctx:
            ctx.prec = 50
            exact = _neg_re_roots_decimal(b0, b1)
            for lower, value in zip(cd.neg_re_lower, exact):
                gap = value - _dec(lower)
                # -1e-45 allows for the decimal rounding only
                assert Decimal("-1e-45") <= gap <= Decimal("1e-12"), (b0, b1)
    assert seen >= 250


def test_negative_real_discriminant_bound_is_exact():
    # s^2 + s + 1: D = -3, roots (-1 -+ i sqrt(3)) / 2
    cd = linear_equation(Frac(-1), Frac(-1)).char_exponents()
    assert cd.roots_exact is None
    assert cd.neg_re_lower == (Frac(1, 2), Frac(1, 2))
    assert cd.h == Frac(9, 40)
    assert cd.roots[0] == pytest.approx(complex(-0.5, -0.75 ** 0.5))
