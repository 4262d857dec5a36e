"""Truncated formal power series over exact complex rationals.

Two containers over one core, _Series:

* SeriesTX  -- series in the time variable t and spatial variables
  x = (x_1, ..., x_n), truncated at t-order k_t and total x-degree k_x.
* SeriesTXZ -- the same with additional polynomial dependence on the jet
  variables z[i, alpha], i < 2 and i + |alpha| <= 2, of the second-order
  equation; it holds right-hand sides before a jet is substituted in.  It
  is a polynomial in z: the caps are in t and x only.

Truncation caps are part of the value but not of equality: two series are
equal when they have the same type, variable count and term map.  All
binary operations join caps with min, which is the largest region on which
both operands are reliable; they take two series of one type, never a
scalar (scale multiplies by one).  Operations never mutate; every method
returns a fresh object.

t-powers k and multi-indices alpha are ordered graded-lexicographically,
key (k + |alpha|, k, alpha); jet keys by (i + |alpha|, i, alpha).

Nothing here validates its arguments.  builtin.parse_equation and the CLI
check outside input once, where it enters, and inside the package every key
has nonnegative int powers, n spatial slots, jet indices in lambda_keys(n)
and its jet monomial in the canonical form of _norm_nu.  The constructors
take keys as given and only drop zero coefficients and terms past the caps;
the three substitutions expand through one kernel, _sum_products.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import NotInvertible, TruncationExhausted
from .rational import CRat


def _coeff(c) -> CRat:
    if isinstance(c, CRat):
        return c
    if isinstance(c, (int, Fraction)):
        return CRat(c)
    raise TypeError(f"cannot use {c!r} as an exact coefficient")


def _alpha_key(alpha: tuple) -> tuple:
    return (sum(alpha), alpha)


def _tx_key(key: tuple) -> tuple:
    k, alpha = key
    return (k + sum(alpha), k, alpha)


def alphas_of_degree(n: int, d: int) -> Iterable[tuple]:
    """All n-variable multi-indices of total degree d, lex ascending."""
    if n == 1:
        yield (d,)
        return
    for first in range(0, d + 1):
        for rest in alphas_of_degree(n - 1, d - first):
            yield (first,) + rest


class ZKey(NamedTuple):
    """Index of a jet variable: i Euler derivatives, alpha spatial ones."""

    i: int
    alpha: tuple


def _zkey_sort(zk: ZKey) -> tuple:
    return (zk.i + sum(zk.alpha), zk.i, zk.alpha)


def lambda_keys(n: int) -> list[ZKey]:
    """Admissible jet indices of the second-order equation in n spatial
    variables: i + |alpha| <= 2 and i < 2, sorted graded-lexicographically."""
    return sorted((ZKey(i, alpha) for i in range(2) for d in range(3 - i)
                   for alpha in alphas_of_degree(n, d)), key=_zkey_sort)


def _norm_nu(nu) -> tuple:
    """Canonical jet-monomial: sorted tuple of (ZKey, power), powers >= 1."""
    acc: dict[ZKey, int] = {}
    for zk, p in nu:
        zk = ZKey(*zk)
        if p:
            acc[zk] = acc.get(zk, 0) + p
    return tuple(sorted(acc.items(), key=lambda kv: _zkey_sort(kv[0])))


def _nu_degree(nu: tuple) -> int:
    return sum(p for _, p in nu)


class _Series:
    """What the two containers share: the variable count, the caps, a term
    map whose keys start (t-power, alpha), and the additive group.  An
    operand of the other container, or a scalar, is refused."""

    __slots__ = ("n", "k_t", "k_x", "terms")

    def __init__(self, n: int, k_t: int, k_x: int, terms=None):
        self.n = n
        self.k_t = k_t
        self.k_x = k_x
        store: dict[tuple, CRat] = {}
        for key, c in (terms or {}).items():
            if key[0] > k_t or sum(key[1]) > k_x:
                continue
            c = _coeff(c)
            if not c.is_zero():
                store[key] = c
        self.terms = store

    @classmethod
    def zero(cls, n: int, k_t: int, k_x: int):
        return cls(n, k_t, k_x, {})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{type(self).__name__}(n={self.n}, k_t={self.k_t}, "
                f"k_x={self.k_x}, {len(self.terms)} terms)")

    def _join(self, other) -> tuple[int, int]:
        return min(self.k_t, other.k_t), min(self.k_x, other.k_x)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        kt, kx = self._join(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            acc = out.get(key)
            out[key] = c if acc is None else acc + c
        return type(self)(self.n, kt, kx, out)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        c = _coeff(c)
        return type(self)(self.n, self.k_t, self.k_x,
                          {key: v * c for key, v in self.terms.items()})


class SeriesTX(_Series):
    """Series in t and x, truncated at (k_t, k_x)."""

    __slots__ = ()
    # bound here, not only inherited: perfbench/tracer.py counts SeriesTX
    # constructions by wrapping SeriesTX.__dict__["__init__"]
    __init__ = _Series.__init__

    # -- constructors -----------------------------------------------

    @classmethod
    def const(cls, n: int, k_t: int, k_x: int, c) -> "SeriesTX":
        return cls(n, k_t, k_x, {(0, (0,) * n): c})

    @classmethod
    def one(cls, n: int, k_t: int, k_x: int) -> "SeriesTX":
        return cls.const(n, k_t, k_x, 1)

    @classmethod
    def monomial(cls, n: int, k_t: int, k_x: int, c, k: int, alpha) -> "SeriesTX":
        return cls(n, k_t, k_x, {(k, tuple(alpha)): c})

    # -- queries ----------------------------------------------------

    def coeff(self, k: int, alpha) -> CRat:
        return self.terms.get((k, tuple(alpha)), CRat())

    def t_order(self) -> int | None:
        """Smallest t-power present, or None for the zero series."""
        if not self.terms:
            return None
        return min(k for k, _ in self.terms)

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda kv: _tx_key(kv[0]))

    # -- ring operations ---------------------------------------------

    def __mul__(self, other):
        if type(other) is not SeriesTX:
            return NotImplemented
        kt, kx = self._join(other)
        out: dict[tuple, CRat] = {}
        for (k1, a1), c1 in self.terms.items():
            if k1 > kt:
                continue
            for (k2, a2), c2 in other.terms.items():
                k = k1 + k2
                if k > kt:
                    continue
                alpha = tuple(a + b for a, b in zip(a1, a2))
                if sum(alpha) > kx:
                    continue
                key = (k, alpha)
                acc = out.get(key)
                c = c1 * c2
                out[key] = c if acc is None else acc + c
        return SeriesTX(self.n, kt, kx, out)

    # -- calculus ----------------------------------------------------

    def dx(self, j: int) -> "SeriesTX":
        """Partial derivative in x_j.  Costs one unit of x-cap: degree
        k_x + 1 terms, which are not tracked, would land at degree k_x."""
        if self.k_x == 0:
            raise TruncationExhausted(
                "x-truncation too small to differentiate once more")
        out = {}
        for (k, alpha), c in self.terms.items():
            if alpha[j] == 0:
                continue
            na = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]
            out[(k, na)] = c * alpha[j]
        return SeriesTX(self.n, self.k_t, self.k_x - 1, out)

    def dx_multi(self, alpha) -> "SeriesTX":
        out = self
        for j, a in enumerate(alpha):
            for _ in range(a):
                out = out.dx(j)
        return out

    def euler_t(self) -> "SeriesTX":
        """Apply t d/dt.  Exact on the tracked terms; caps unchanged."""
        return SeriesTX(self.n, self.k_t, self.k_x,
                        {(k, a): c * k for (k, a), c in self.terms.items() if k})

    def truncate(self, k_t: int | None = None, k_x: int | None = None) -> "SeriesTX":
        kt = self.k_t if k_t is None else min(self.k_t, k_t)
        kx = self.k_x if k_x is None else min(self.k_x, k_x)
        return SeriesTX(self.n, kt, kx, self.terms)

    def invert_unit(self) -> "SeriesTX":
        """Multiplicative inverse; the constant coefficient must be nonzero.

        Writes self = c0 (1 - r) with r vanishing at the origin and sums the
        geometric series.  Every term of r has total degree >= 1, so k_t + k_x
        rounds exhaust the truncated ring.
        """
        c0 = self.coeff(0, (0,) * self.n)
        if c0.is_zero():
            raise NotInvertible("constant coefficient is zero")
        inv0 = c0.inverse()
        r = SeriesTX.one(self.n, self.k_t, self.k_x) - self.scale(inv0)
        out = SeriesTX.one(self.n, self.k_t, self.k_x)
        power = out
        for _ in range(self.k_t + self.k_x):
            power = power * r
            if power.is_zero():
                break
            out = out + power
        return out.scale(inv0)


class SeriesTXZ(_Series):
    """Series in t, x and the jet variables z[i, alpha] of the second-order
    equation, (i, alpha) in lambda_keys(n).  t-powers are truncated at k_t
    and x-degrees at k_x; in z it is a polynomial, kept whole, whose degree
    parse_equation bounds where a document enters."""

    __slots__ = ()

    # -- constructors -----------------------------------------------

    @classmethod
    def from_tx(cls, f: SeriesTX) -> "SeriesTXZ":
        return cls(f.n, f.k_t, f.k_x,
                   {(k, a, ()): c for (k, a), c in f.terms.items()})

    @classmethod
    def z_var(cls, n, k_t, k_x, key) -> "SeriesTXZ":
        return cls(n, k_t, k_x, {(0, (0,) * n, ((ZKey(*key), 1),)): 1})

    # -- queries ----------------------------------------------------

    def jet_keys_used(self) -> set[ZKey]:
        return {zk for (_, _, nu) in self.terms for zk, _ in nu}

    # -- ring operations ---------------------------------------------

    def __mul__(self, other):
        if type(other) is not SeriesTXZ:
            return NotImplemented
        kt, kx = self._join(other)
        out: dict[tuple, CRat] = {}
        for (k1, a1, n1), c1 in self.terms.items():
            for (k2, a2, n2), c2 in other.terms.items():
                k = k1 + k2
                if k > kt:
                    continue
                alpha = tuple(a + b for a, b in zip(a1, a2))
                if sum(alpha) > kx:
                    continue
                key = (k, alpha, _norm_nu(n1 + n2))
                acc = out.get(key)
                c = c1 * c2
                out[key] = c if acc is None else acc + c
        return SeriesTXZ(self.n, kt, kx, out)

    # -- substitution ---------------------------------------------------

    def substitute_z(self, values: dict) -> SeriesTX:
        """Replace every jet variable by its SeriesTX in values, which holds
        one over the same n for each key used, and expand."""
        used_vals = [values[zk] for zk in self.jet_keys_used()]
        kt = min([self.k_t] + [v.k_t for v in used_vals])
        kx = min([self.k_x] + [v.k_x for v in used_vals])
        return SeriesTX(self.n, kt, kx, self._sum_products(
            values, SeriesTX.one(self.n, kt, kx)))

    def shift_z(self, shifts: dict) -> "SeriesTXZ":
        """Substitute z[zk] -> z[zk] + s_zk(t, x) for the given shifts."""
        return self._expand({zk: self._var(zk) + SeriesTXZ.from_tx(s)
                             for zk, s in shifts.items() if not s.is_zero()})

    def substitute_z_linear(self, mapping: dict) -> "SeriesTXZ":
        """Replace jet variables by linear combinations of jet variables.

        mapping: ZKey -> iterable of (coefficient, ZKey).  Keys absent from
        the mapping are left alone.  Degrees in z are preserved.
        """
        zero = SeriesTXZ.zero(self.n, self.k_t, self.k_x)
        return self._expand({
            zk: sum((self._var(zk2).scale(c) for c, zk2 in combo), zero)
            for zk, combo in mapping.items()})

    def _var(self, zk: ZKey) -> "SeriesTXZ":
        return SeriesTXZ.z_var(self.n, self.k_t, self.k_x, zk)

    def _expand(self, images: dict) -> "SeriesTXZ":
        """Replace z[zk] by images[zk], of z-degree <= 1, where one is given.
        The caps min-join self's with every image a term uses, as * and +
        would."""
        used = {zk: images[zk] if zk in images else self._var(zk)
                for zk in self.jet_keys_used()}
        kt, kx = map(min, zip(*((f.k_t, f.k_x)
                                for f in (self, *used.values()))))
        one = SeriesTXZ(self.n, kt, kx, {(0, (0,) * self.n, ()): 1})
        return SeriesTXZ(self.n, kt, kx, self._sum_products(used, one))

    def _sum_products(self, images: dict, one) -> dict:
        """Terms, keyed like those of one (the unit at the output caps), of
        the sum over self's terms c t^k x^alpha z^nu of c t^k x^alpha times
        prod images[zk]**p.  Powers are built once and every product adds
        into one dict (S. C. Johnson, "Sparse polynomial arithmetic", 1974).
        """
        kt, kx = one.k_t, one.k_x
        top: dict[ZKey, int] = {}
        for (_, _, nu) in self.terms:
            for zk, p in nu:
                top[zk] = max(top.get(zk, 0), p)
        powers: dict[ZKey, list] = {}
        for zk, p in top.items():
            base = one * images[zk]
            powers[zk] = cache = [one, base]
            while len(cache) <= p:
                cache.append(cache[-1] * base)
        out: dict[tuple, CRat] = {}
        for (k, alpha, nu), c in self.terms.items():
            if k > kt or sum(alpha) > kx:
                continue
            prod = one
            for zk, p in nu:
                prod = powers[zk][p] if prod is one else prod * powers[zk][p]
            for key, v in prod.terms.items():
                kk = k + key[0]
                aa = tuple(a + b for a, b in zip(alpha, key[1]))
                if kk > kt or sum(aa) > kx:
                    continue
                key = (kk, aa) + key[2:]
                v = c * v
                acc = out.get(key)
                out[key] = v if acc is None else acc + v
        return out

    # -- evaluation ---------------------------------------------------

    def numeric_evaluator(self):
        """Float evaluator (t, xs, zvals) -> complex of this series, zvals
        holding the jet values.  The terms are sliced by t-power, sorted and
        their coefficients converted once, here; each call sums them in that
        order and runs Horner in t."""
        slices: dict[int, list] = {}
        for (k, alpha, nu), c in self.terms.items():
            slices.setdefault(k, []).append((alpha, nu, c))
        parts = [[(alpha, nu, c.as_complex()) for alpha, nu, c in sorted(
                     slices.get(k, ()),
                     key=lambda anc: (_alpha_key(anc[0]),
                                      tuple((_zkey_sort(zk), p)
                                            for zk, p in anc[1])))]
                 for k in range(max(slices, default=0), -1, -1)]

        def evaluate(t, xs, zvals: dict) -> complex:
            zc = {zk: complex(v) for zk, v in zvals.items()}
            acc = 0j
            for part in parts:
                v = 0j
                for alpha, nu, c in part:
                    mono = 1.0 + 0j
                    for xj, a in zip(xs, alpha):
                        mono *= xj ** a
                    for zk, p in nu:
                        mono *= zc[zk] ** p
                    v += c * mono
                acc = acc * t + v
            return acc
        return evaluate
