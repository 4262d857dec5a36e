"""Exact scalar layer: directed square roots and complex rational pairs."""

import math
import random

import pytest

from fuchsian.rational import CRat, Frac, crat_sqrt_exact, frac_sqrt_exact, sqrt_upper

# sqrt_upper promises: sqrt(s) <= sqrt_upper(s), exact whenever sqrt(s) is
# rational, and never looser than one part in 2**47 (the directed bias is
# 2**-48 with a far smaller integer-sqrt rounding term on top).
ENCLOSURE = Frac((1 << 47) + 1, 1 << 47)


def test_sqrt_upper_exact_on_squares():
    for k in [0, 1, 2, 3, 7, 12, 100]:
        assert sqrt_upper(Frac(k * k)) == Frac(k)
    assert sqrt_upper(Frac(9, 4)) == Frac(3, 2)
    assert sqrt_upper(Frac(49, 121)) == Frac(7, 11)


def test_sqrt_upper_rejects_negative():
    with pytest.raises(ValueError):
        sqrt_upper(Frac(-1, 4))


def test_sqrt_upper_enclosure_random():
    rng = random.Random(20260815)
    for _ in range(400):
        s = Frac(rng.randint(0, 10**6), rng.randint(1, 10**6))
        u = sqrt_upper(s)
        # s <= u^2  (upper bound) and u^2 <= s * ENCLOSURE^2 (tightness)
        assert u * u >= s
        assert u * u <= s * ENCLOSURE * ENCLOSURE


def test_sqrt_upper_agrees_with_float():
    rng = random.Random(7)
    for _ in range(200):
        s = Frac(rng.randint(1, 10**9), rng.randint(1, 10**9))
        u = sqrt_upper(s)
        assert math.isclose(float(u), math.sqrt(float(s)), rel_tol=1e-12)


def test_frac_sqrt_exact():
    assert frac_sqrt_exact(Frac(25, 16)) == Frac(5, 4)
    assert frac_sqrt_exact(Frac(0)) == Frac(0)
    assert frac_sqrt_exact(Frac(2)) is None
    assert frac_sqrt_exact(Frac(1, 3)) is None


def test_crat_field_axioms_sampled():
    rng = random.Random(99)

    def rand():
        return CRat(Frac(rng.randint(-9, 9), rng.randint(1, 9)),
                    Frac(rng.randint(-9, 9), rng.randint(1, 9)))

    one = CRat(Frac(1))
    for _ in range(200):
        a, b, c = rand(), rand(), rand()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a.abs2() != 0:
            assert a * a.inverse() == one
            assert (one / a) * a == one
        assert a - a == CRat()
        assert a * one == a


def test_crat_mixed_arithmetic_with_int_and_fraction():
    z = CRat(Frac(1, 2), Frac(3))
    assert z + 1 == CRat(Frac(3, 2), Frac(3))
    assert 2 * z == CRat(Frac(1), Frac(6))
    assert z - Frac(1, 2) == CRat(Frac(0), Frac(3))
    assert CRat(Frac(0), Frac(1)) / Frac(1, 2) == CRat(Frac(0), Frac(2))
    with pytest.raises(TypeError):
        Frac(1) / z


def test_crat_ring_operations_match_the_full_formula():
    # the real-only branches must give the same values, hashes and
    # Fraction parts as the complex formula
    rng = random.Random(8080)

    def frac():
        return Frac(rng.randint(-20, 20), rng.randint(1, 12))

    def operand():
        kind = rng.randrange(4)
        if kind == 0:
            return rng.randint(-9, 9)
        if kind == 1:
            return frac()
        return CRat(frac(), frac() if kind == 3 else Frac(0))

    def parts(x):
        return (x.re, x.im) if isinstance(x, CRat) else (Frac(x), Frac(0))

    for _ in range(600):
        a, b = operand(), operand()
        if not isinstance(a, CRat) and not isinstance(b, CRat):
            continue
        for x, y in ((a, b), (b, a)):
            (xr, xi), (yr, yi) = parts(x), parts(y)
            got = [x + y, x * y]
            want = [CRat(xr + yr, xi + yi),
                    CRat(xr * yr - xi * yi, xr * yi + xi * yr)]
            if isinstance(x, CRat):     # CRat has no __rsub__
                got.append(x - y)
                want.append(CRat(xr - yr, xi - yi))
            for g, w in zip(got, want):
                assert g == w and hash(g) == hash(w)
                assert type(g.re) is Frac and type(g.im) is Frac


def test_abs_upper_exact_on_axis_values():
    assert CRat(Frac(-3, 7)).abs_upper() == Frac(3, 7)
    assert CRat(Frac(0), Frac(5, 2)).abs_upper() == Frac(5, 2)
    # pythagorean pair: |3/5 + 4/5 i| = 1 exactly
    assert CRat(Frac(3, 5), Frac(4, 5)).abs_upper() == Frac(1)


def test_abs_upper_is_sound_and_tight():
    rng = random.Random(4242)
    for _ in range(300):
        z = CRat(Frac(rng.randint(-50, 50), rng.randint(1, 50)),
                 Frac(rng.randint(-50, 50), rng.randint(1, 50)))
        u = z.abs_upper()
        assert u * u >= z.abs2()
        assert u * u <= z.abs2() * ENCLOSURE * ENCLOSURE


def test_crat_sqrt_exact_roundtrip():
    rng = random.Random(31337)
    for _ in range(200):
        w = CRat(Frac(rng.randint(-9, 9), rng.randint(1, 9)),
                 Frac(rng.randint(-9, 9), rng.randint(1, 9)))
        s = crat_sqrt_exact(w * w)
        assert s is not None
        assert s * s == w * w
    # a complex rational with no rational square root
    assert crat_sqrt_exact(CRat(Frac(2))) is None
    assert crat_sqrt_exact(CRat(Frac(0), Frac(1))) is None


def test_crat_sqrt_exact_negative_real():
    s = crat_sqrt_exact(CRat(Frac(-9, 4)))
    assert s is not None and s * s == CRat(Frac(-9, 4))


@pytest.mark.parametrize("re, im, want", [
    (3, -2, (Frac(3), Frac(-2))),
    (Frac(1, 3), Frac(-5, 7), (Frac(1, 3), Frac(-5, 7))),
    ("1/4", "-2", (Frac(1, 4), Frac(-2))),
    (7, None, (Frac(7), Frac(0))),
])
def test_crat_constructor_contract(re, im, want):
    z = CRat(re) if im is None else CRat(re, im)
    assert (z.re, z.im) == want
    assert type(z.re) is Frac and type(z.im) is Frac
    assert hash(z) == hash(want)
    assert {z: "v"}[CRat(*want)] == "v"
    # immutable, and never equal to a bare number
    with pytest.raises(AttributeError):
        z.re = Frac(0)
    assert (z.re, z.im) == want
    assert (CRat(1) == 1) is False and CRat() == CRat(0, 0)
