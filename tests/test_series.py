"""Truncated power series in t, x and the jet variables.

The oracle values here were either computed by hand (geometric-series
inversion, Euler weights) or pinned down by algebraic identities the ring
must satisfy term by term.
"""

import itertools
import operator
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuchsian.builtin import load_equation
from fuchsian.certificate import build_shifted_rhs
from fuchsian.errors import NotInvertible
from fuchsian.rational import CRat, Frac
from fuchsian.series import (SeriesTX, SeriesTXZ, ZKey, _norm_nu,
                             alphas_of_degree, lambda_keys)
from fuchsian.solver import solve_formal
from oracles import shift_z_by_terms, substitute_z_linear_by_terms

DENSE = Path(__file__).parent / "golden" / "inputs" / "dense_0_0.json"


def rand_series(rng, n, k_t, k_x, n_terms=5, t_min=0):
    f = SeriesTX.zero(n, k_t, k_x)
    for _ in range(n_terms):
        k = rng.randint(t_min, k_t)
        alpha = tuple(rng.randint(0, 2) for _ in range(n))
        if sum(alpha) > k_x:
            continue
        c = CRat(Frac(rng.randint(-9, 9), rng.randint(1, 9)),
                 Frac(rng.randint(-9, 9), rng.randint(1, 9)))
        f = f + SeriesTX.monomial(n, k_t, k_x, c, k, alpha)
    return f


# -- construction and term access -----------------------------------


def test_monomial_coeff_roundtrip():
    f = SeriesTX.monomial(2, 4, 4, Frac(3, 7), 2, (1, 0))
    assert f.coeff(2, (1, 0)) == CRat(Frac(3, 7))
    assert f.coeff(2, (0, 1)) == CRat()
    assert f.coeff(0, (0, 0)) == CRat()


def test_truncation_drops_high_orders():
    f = SeriesTX.monomial(1, 5, 5, 1, 4, (3,))
    assert f.truncate(k_t=3).is_zero()
    assert f.truncate(k_x=2).is_zero()
    assert not f.truncate(k_t=4, k_x=3).is_zero()


def test_t_order():
    assert SeriesTX.zero(1, 3, 3).t_order() is None
    assert SeriesTX.one(1, 3, 3).t_order() == 0
    g = (SeriesTX.monomial(1, 3, 3, 1, 1, (0,))
         + SeriesTX.monomial(1, 3, 3, 1, 2, (1,)))
    assert g.t_order() == 1


# -- inversion -------------------------------------------------------


def test_invert_unit_frozen_oracle():
    # 1/(6 + x) = 1/6 - x/36 + x^2/216 - x^3/1296: plain geometric series.
    f = SeriesTX.const(1, 3, 3, 6) + SeriesTX.monomial(1, 3, 3, 1, 0, (1,))
    g = f.invert_unit()
    assert g.coeff(0, (0,)) == CRat(Frac(1, 6))
    assert g.coeff(0, (1,)) == CRat(Frac(-1, 36))
    assert g.coeff(0, (2,)) == CRat(Frac(1, 216))
    assert g.coeff(0, (3,)) == CRat(Frac(-1, 1296))


def test_invert_unit_is_right_inverse():
    rng = random.Random(11)
    for _ in range(40):
        f = rand_series(rng, rng.choice([1, 2]), 4, 4, n_terms=4)
        f = f + SeriesTX.const(f.n, 4, 4, Frac(rng.randint(1, 5)))
        if f.coeff(0, (0,) * f.n) == CRat():
            continue
        prod = f * f.invert_unit()
        assert prod == SeriesTX.one(f.n, 4, 4)


def test_invert_unit_needs_nonzero_constant():
    with pytest.raises(NotInvertible):
        SeriesTX.monomial(1, 3, 3, 1, 1, (0,)).invert_unit()


# -- ring structure --------------------------------------------------


def test_ring_axioms_random_triples():
    rng = random.Random(2026)
    for _ in range(60):
        n = rng.choice([1, 2])
        f = rand_series(rng, n, 3, 3)
        g = rand_series(rng, n, 3, 3)
        h = rand_series(rng, n, 3, 3)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f - f == SeriesTX.zero(n, 3, 3)


def test_constructor_keeps_its_structural_checks():
    # keys are taken as given, but a zero coefficient and a term past the
    # caps are still dropped
    f = SeriesTX(1, 3, 3, {(0, (0,)): 0, (4, (0,)): 1, (0, (4,)): 1,
                           (1, (2,)): Frac(1, 2)})
    assert f.terms == {(1, (2,)): CRat(Frac(1, 2))}


def test_the_two_containers_do_not_mix_and_take_no_scalar():
    # one core serves both types: an operand of the other type, or a
    # scalar, is a TypeError, and the two types never compare equal
    f = SeriesTX.monomial(1, 3, 3, 2, 1, (1,))
    F = SeriesTXZ.from_tx(f)
    ops = (operator.add, operator.sub, operator.mul)
    for a, b in ((f, F), (F, f), *((f, c) for c in (1, Frac(1, 2), CRat(3))),
                 *((c, f) for c in (1, Frac(1, 2), CRat(3)))):
        for op in ops:
            with pytest.raises(TypeError):
                op(a, b)
    assert f != F and F != f and not f == F
    assert f.scale(3) == f.scale(Frac(3)) and (f + f) - f == f
    assert SeriesTXZ.zero(1, 3, 3).is_zero() and (F - F).is_zero()
    assert not F.is_zero() and not (-F).is_zero()


@pytest.mark.parametrize("n", [1, 2])
def test_z_var_accepts_exactly_the_lambda_keys(n):
    # the inadmissible keys are refused where documents are read:
    # test_parse_equation_refuses_exactly_the_inadmissible_keys
    admissible = set(lambda_keys(n))
    for key in admissible:
        assert SeriesTXZ.z_var(n, 2, 2, key).jet_keys_used() == {key}
    assert {ZKey(i, alpha) for i in range(3)
            for alpha in itertools.product(range(4), repeat=n)
            if i < 2 and i + sum(alpha) <= 2} == admissible


def test_dx_leibniz_rule():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.choice([1, 2])
        # keep one spare x-order so the product rule has room to act
        f = rand_series(rng, n, 3, 3)
        g = rand_series(rng, n, 3, 3)
        j = rng.randrange(n)
        lhs = (f * g).dx(j)
        rhs = f.dx(j) * g + f * g.dx(j)
        # both sides live at k_x - 1; compare there
        assert lhs.truncate(k_x=2) == rhs.truncate(k_x=2)


def test_euler_t_is_a_derivation_and_scales_monomials():
    rng = random.Random(6)
    f = SeriesTX.monomial(1, 5, 2, Frac(4, 3), 3, (1,))
    assert f.euler_t() == f.scale(3)
    for _ in range(40):
        f = rand_series(rng, 1, 4, 4)
        g = rand_series(rng, 1, 4, 4)
        assert (f * g).euler_t() == f.euler_t() * g + f * g.euler_t()


def test_dx_multi_matches_repeated_dx():
    rng = random.Random(8)
    for _ in range(30):
        f = rand_series(rng, 2, 3, 4)
        d = f.dx_multi((2, 1))
        e = f.dx(0).dx(0).dx(1)
        assert d.truncate(k_x=1) == e.truncate(k_x=1)


def test_eval_numeric_matches_exact_polynomial():
    # f = 1/2 t + 3 x1 x2 - t^2 x1^2
    f = (SeriesTX.monomial(2, 3, 3, Frac(1, 2), 1, (0, 0))
         + SeriesTX.monomial(2, 3, 3, 3, 0, (1, 1))
         + SeriesTX.monomial(2, 3, 3, -1, 2, (2, 0)))
    t, x1, x2 = 0.25, 0.5, -2.0
    expected = 0.5 * t + 3 * x1 * x2 - t * t * x1 * x1
    value = SeriesTXZ.from_tx(f).numeric_evaluator()(t, (x1, x2), {})
    assert abs(value - expected) < 1e-15


# -- jet-variable series ---------------------------------------------


def test_lambda_keys_frozen():
    assert lambda_keys(1) == [
        ZKey(0, (0,)), ZKey(0, (1,)), ZKey(1, (0,)),
        ZKey(0, (2,)), ZKey(1, (1,)),
    ]
    assert len(lambda_keys(2)) == 9
    assert all(k.i < 2 and k.i + sum(k.alpha) <= 2 for k in lambda_keys(2))


def test_alphas_of_degree():
    assert set(alphas_of_degree(2, 2)) == {(0, 2), (1, 1), (2, 0)}
    assert list(alphas_of_degree(1, 3)) == [(3,)]
    assert len(list(alphas_of_degree(3, 2))) == 6


def test_substitute_z_is_a_homomorphism():
    rng = random.Random(77)
    keys = lambda_keys(1)
    for _ in range(25):
        def rand_txz():
            out = SeriesTXZ.zero(1, 6, 6)
            for _ in range(3):
                zk = rng.choice(keys)
                p = rng.randint(0, 2)
                c = Frac(rng.randint(-5, 5), rng.randint(1, 5))
                base = SeriesTXZ.from_tx(
                    SeriesTX.monomial(1, 6, 6, c, rng.randint(0, 2), (rng.randint(0, 1),)))
                term = base
                for _ in range(p):
                    term = term * SeriesTXZ.z_var(1, 6, 6, zk)
                out = out + term
            return out
        F, G = rand_txz(), rand_txz()
        vals = {zk: rand_series(rng, 1, 2, 2, n_terms=2) for zk in keys}
        lhs = (F * G).substitute_z(vals)
        rhs = F.substitute_z(vals) * G.substitute_z(vals)
        # value substitution can only be compared inside the joint budget
        kt = min(lhs.k_t, rhs.k_t)
        kx = min(lhs.k_x, rhs.k_x)
        assert lhs.truncate(k_t=kt, k_x=kx) == rhs.truncate(k_t=kt, k_x=kx)


def test_from_tx_keeps_terms_jet_free():
    f = SeriesTX.monomial(1, 3, 3, Frac(2, 5), 1, (1,))
    F = SeriesTXZ.from_tx(f)
    assert F.terms == {(k, a, ()): c for (k, a), c in f.terms.items()}
    assert F.jet_keys_used() == set()
    zk = ZKey(0, (1,))
    G = F * SeriesTXZ.z_var(1, 3, 3, zk)
    assert all(nu for _, _, nu in G.terms)
    assert G.jet_keys_used() == {zk}


def test_shift_z_matches_polynomial_expansion():
    # F = z^2 for z = z_{0,(0,)}; shifting z -> z + s gives z^2 + 2 s z + s^2
    zk = ZKey(0, (0,))
    z = SeriesTXZ.z_var(1, 4, 4, zk)
    F = z * z
    s = SeriesTX.monomial(1, 4, 4, 1, 1, (0,))
    G = F.shift_z({zk: s})
    expected = F + z.scale(2) * SeriesTXZ.from_tx(s) \
        + SeriesTXZ.from_tx(s * s)
    assert G == expected


def test_substitute_z_linear_preserves_degree():
    zk1, zk0 = ZKey(1, (1,)), ZKey(0, (1,))
    z = SeriesTXZ.z_var(1, 3, 3, zk1)
    F = z * z
    lam = CRat(Frac(-2))
    G = F.substitute_z_linear({zk1: [(CRat(Frac(1)), zk1), (lam, zk0)]})
    # (d + lam c)^2 = d^2 + 2 lam c d + lam^2 c^2
    c = SeriesTXZ.z_var(1, 3, 3, zk0)
    expected = z * z + (z * c).scale(2 * lam) + (c * c).scale(lam * lam)
    assert G == expected


def rand_txz(rng, n, k_t, k_x, n_terms=4, max_deg=2):
    keys = lambda_keys(n)
    out = SeriesTXZ.zero(n, k_t, k_x)
    for _ in range(n_terms):
        term = SeriesTXZ.from_tx(rand_series(rng, n, k_t, k_x, n_terms=1))
        for _ in range(rng.randint(0, max_deg)):
            term = term * SeriesTXZ.z_var(n, k_t, k_x, rng.choice(keys))
        out = out + term
    return out


def _equal_within_joint_caps(a, b):
    kt, kx = min(a.k_t, b.k_t), min(a.k_x, b.k_x)
    return a.truncate(k_t=kt, k_x=kx) == b.truncate(k_t=kt, k_x=kx)


@pytest.mark.parametrize("seed", range(8))
def test_shift_and_linear_maps_agree_with_substitute_z(seed):
    # substitute_z is the independent oracle: shifting z -> z + s and then
    # substituting v is substituting v + s, and a linear map of the jet
    # variables followed by v is substituting the composed values
    rng = random.Random(4100 + seed)
    n = rng.choice((1, 2))
    keys = lambda_keys(n)
    F = rand_txz(rng, n, 3, 3)
    v = {zk: rand_series(rng, n, 3, 3, n_terms=2) for zk in keys}
    s = {zk: rand_series(rng, n, 3, 3, n_terms=2)
         for zk in rng.sample(keys, 3)}
    shifted = {zk: v[zk] + s[zk] if zk in s else v[zk] for zk in keys}
    assert _equal_within_joint_caps(F.shift_z(s).substitute_z(v),
                                    F.substitute_z(shifted))

    def rand_crat():
        return CRat(Frac(rng.randint(-4, 4), rng.randint(1, 4)),
                    Frac(rng.randint(-4, 4), rng.randint(1, 4)))

    L = {zk: [(rand_crat(), rng.choice(keys)) for _ in range(rng.randint(1, 2))]
         for zk in rng.sample(keys, 3)}
    zero = SeriesTX.zero(n, 3, 3)
    composed = {zk: sum((v[k2].scale(c) for c, k2 in L[zk]), zero)
                if zk in L else v[zk] for zk in keys}
    G = F.substitute_z_linear(L)
    assert _equal_within_joint_caps(G.substitute_z(v), F.substitute_z(composed))

    # and with values vanishing at t = 0
    v1 = {zk: rand_series(rng, n, 3, 3, n_terms=2, t_min=1) for zk in keys}
    composed1 = {zk: sum((v1[k2].scale(c) for c, k2 in L[zk]), zero)
                 if zk in L else v1[zk] for zk in keys}
    assert _equal_within_joint_caps(G.substitute_z(v1),
                                    F.substitute_z(composed1))


# -- the shared expansion kernel against the term-by-term oracle --------

_frac = st.builds(Frac, st.integers(-4, 4), st.integers(1, 4))
_crat = st.builds(CRat, _frac, _frac)


def _alphas_upto(n, d):
    return [a for e in range(d + 1) for a in alphas_of_degree(n, e)]


@st.composite
def jet_series(draw):
    """SeriesTXZ with canonical keys; a term past a cap is dropped."""
    n = draw(st.sampled_from((1, 2)))
    k_t, k_x, deg = (draw(st.integers(0, 3)), draw(st.integers(0, 3)),
                     draw(st.integers(1, 3)))
    keys = lambda_keys(n)
    data = {}
    for _ in range(draw(st.integers(0, 6))):
        factors = draw(st.lists(st.sampled_from(keys), max_size=deg + 1))
        key = (draw(st.integers(0, k_t + 1)),
               draw(st.sampled_from(_alphas_upto(n, k_x + 1))),
               _norm_nu((zk, 1) for zk in factors))
        data[key] = draw(_crat)
    return SeriesTXZ(n, k_t, k_x, data)


@st.composite
def tight_tx(draw, n, k_t, k_x):
    """SeriesTX with caps at or below (k_t, k_x), possibly zero."""
    kt, kx = draw(st.integers(0, k_t)), draw(st.integers(0, k_x))
    terms = {(draw(st.integers(0, kt)),
              draw(st.sampled_from(_alphas_upto(n, kx)))): draw(_crat)
             for _ in range(draw(st.integers(0, 3)))}
    return SeriesTX(n, kt, kx, terms)


def _assert_same_expansion(got, want):
    # equality ignores the caps: check them one by one
    assert got == want
    assert (got.k_t, got.k_x) == (want.k_t, want.k_x)
    assert all(nu == _norm_nu(nu) for _, _, nu in got.terms)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_shift_and_linear_maps_equal_the_term_by_term_oracle(data):
    F = data.draw(jet_series())
    keys = lambda_keys(F.n)
    mapping = {zk: data.draw(st.lists(st.tuples(_crat, st.sampled_from(keys)),
                                      min_size=1, max_size=2))
               for zk in data.draw(st.lists(st.sampled_from(keys),
                                            unique=True))}
    _assert_same_expansion(F.substitute_z_linear(mapping),
                           substitute_z_linear_by_terms(F, mapping))
    shifts = {zk: data.draw(tight_tx(F.n, F.k_t, F.k_x))
              for zk in data.draw(st.lists(st.sampled_from(keys),
                                           unique=True))}
    _assert_same_expansion(F.shift_z(shifts), shift_z_by_terms(F, shifts))


def test_substitute_z_linear_builds_terms_linear_in_its_output(monkeypatch):
    # solve-dense shape 0: H is F shifted by the order-4 solution and G its
    # image under normal_form's basis change.  Every SeriesTXZ built inside
    # substitute_z_linear together holds a small multiple of |H| + |G| terms;
    # adding each term's product to a running sum with + held 11,833.
    eq = load_equation(str(DENSE))
    H = build_shifted_rhs(eq, solve_formal(eq, 4).u)
    lam1 = eq.char_exponents().roots_exact[0]
    mapping = {zk: [(CRat(1), zk), (lam1, ZKey(0, zk.alpha))]
               for zk in lambda_keys(1) if zk.i == 1}
    built = []
    init = SeriesTXZ.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(len(self.terms))

    monkeypatch.setattr(SeriesTXZ, "__init__", counting)
    G = H.substitute_z_linear(mapping)
    monkeypatch.undo()
    h, g, total = len(H.terms), len(G.terms), sum(built)
    assert (h, g) == (150, 151)
    assert total <= 4 * (h + g), total
