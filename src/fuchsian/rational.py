"""Exact rational scalars: Fraction pairs for complex values, directed roots.

The certification path never touches floats.  Complex quantities are pairs
of Fractions, and the one genuinely irrational operation we need (the
modulus of a complex rational) is replaced by a rational UPPER bound that
is exact whenever the true value is rational.

Design constraint carried by sqrt_upper: the bound must respect products,
i.e. sqrt_upper(s) * sqrt_upper(t) >= sqrt_upper(s * t).  Rounding each
root up independently does not give that by itself, so every value is
split into square part times squarefree part; the squarefree part is
rounded once with ~96 bits and inflated by a fixed (1 + 2**-48) factor.
Within a square class the bound is then a constant multiple of the exact
root, and across classes the inflation dominates the rounding error by
~47 bits, which is far more than the number of classes any computation
here can mix.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

Frac = Fraction
_ZERO = Frac(0)
_set = object.__setattr__

_ENC_SHIFT = 96          # bits of precision for the rounded squarefree root
BIAS = Frac((1 << 48) + 1, 1 << 48)  # factor 1 + 2**-48 on inexact roots
_TRIAL_LIMIT = 1009      # trial-division bound for the square/squarefree split


def _square_free_split(m: int) -> tuple[int, int]:
    """Return (e, d) with m == e*e*d and d free of small square factors.

    Primes up to _TRIAL_LIMIT are divided out; whatever remains is either
    recognised as a perfect square via isqrt or left whole in d.  d is not
    guaranteed squarefree in general, but it is a canonical representative:
    two inputs with the same small-prime signature and the same remainder
    map to the same d, which is all the product property needs.
    """
    e, d, n = 1, 1, m
    f = 2
    while f <= _TRIAL_LIMIT and f * f <= n:
        if n % f == 0:
            cnt = 0
            while n % f == 0:
                n //= f
                cnt += 1
            e *= f ** (cnt // 2)
            if cnt % 2:
                d *= f
        f += 1 if f == 2 else 2
    if n > 1:
        r = isqrt(n)
        if r * r == n:
            e *= r
        else:
            d *= n
    return e, d


@lru_cache(maxsize=None)
def sqrt_upper(s: Frac) -> Frac:
    """Rational upper bound for sqrt(s), exact when sqrt(s) is rational."""
    if s < 0:
        raise ValueError("sqrt_upper needs a nonnegative argument")
    if s == 0:
        return Frac(0)
    p, q = s.numerator, s.denominator
    # sqrt(p/q) = sqrt(p*q)/q, and p*q splits as e*e*d.
    e, d = _square_free_split(p * q)
    if d == 1:
        return Frac(e, q)
    root = isqrt(d << (2 * _ENC_SHIFT)) + 1
    return Frac(e * root, q << _ENC_SHIFT) * BIAS


def frac_sqrt_exact(s: Frac) -> Frac | None:
    """Exact rational square root of s >= 0, or None if there is none."""
    if s < 0:
        return None
    p, q = s.numerator, s.denominator
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp == p and rq * rq == q:
        return Frac(rp, rq)
    return None


class CRat:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=_ZERO, im=_ZERO) -> None:
        _set(self, "re", re if type(re) is Fraction else Frac(re))
        _set(self, "im", im if type(im) is Fraction else Frac(im))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"CRat is immutable; cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if not isinstance(other, CRat):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    # -- arithmetic -------------------------------------------------

    @staticmethod
    def _coerce(x) -> "CRat | None":
        if isinstance(x, CRat):
            return x
        if isinstance(x, (int, Fraction)):
            return CRat(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not (self.im or o.im):
            return CRat(self.re + o.re, self.im)
        return CRat(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CRat(self.re - o.re, self.im - o.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not (self.im or o.im):
            return CRat(self.re * o.re, self.im)
        return CRat(self.re * o.re - self.im * o.im,
                    self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def inverse(self) -> "CRat":
        a2 = self.abs2()
        if a2 == 0:
            raise ZeroDivisionError("inverse of zero")
        return CRat(self.re / a2, -self.im / a2)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    # -- queries ----------------------------------------------------

    def abs2(self) -> Frac:
        return self.re * self.re + self.im * self.im

    def abs_upper(self) -> Frac:
        """Upper bound for |self|; exact for purely real or imaginary values."""
        if self.im == 0:
            return abs(self.re)
        if self.re == 0:
            return abs(self.im)
        return sqrt_upper(self.abs2())

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def as_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CRat({self.re}, {self.im})"


def crat_sqrt_exact(z: CRat) -> CRat | None:
    """Exact square root of z within the complex rationals, if one exists.

    Returns the root with re > 0, or re == 0 and im >= 0.  None when z has
    no Gaussian-rational square root.
    """
    if z.im == 0:
        if z.re >= 0:
            r = frac_sqrt_exact(z.re)
            return None if r is None else CRat(r)
        r = frac_sqrt_exact(-z.re)
        return None if r is None else CRat(0, r)
    r = frac_sqrt_exact(z.abs2())
    if r is None:
        return None
    x = frac_sqrt_exact((z.re + r) / 2)
    if x is None or x == 0:
        return None
    y = z.im / (2 * x)
    w = CRat(x, y)
    if w * w == z:
        return w
    return None
