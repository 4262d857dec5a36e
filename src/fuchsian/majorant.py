"""Majorant arithmetic: one-variable comparison series with nonnegative
rational coefficients.

The weighted norm of a spatial series f(x) = sum_alpha f_alpha x^alpha is

    sum_alpha |f_alpha| (alpha! / |alpha|!) rho^|alpha|,

a polynomial in rho >= 0 with nonnegative coefficients (RhoPoly).  Applied
slice by slice in t this produces a SectorMajorant, sum_k P_k(rho) t^k.
Right-hand sides with jet variables map to NormProfileZ, which keeps the
jet monomials symbolic so they can later be filled with norm bounds of
actual profiles.

|f_alpha| is the directed bound CRat.abs_upper, so every coefficient here
is an exact rational upper bound and all comparisons are certificates.
"""

from __future__ import annotations

from math import factorial

from .errors import NegativeCoefficient, NonpositiveExponent
from .rational import Frac
from .series import SeriesTX, SeriesTXZ, ZKey, _norm_nu, _nu_degree, _zkey_sort


def horner_eval(cs, x: float) -> float:
    """Horner's rule on float coefficients, highest degree first."""
    acc = 0.0
    for c in cs:
        acc = acc * x + c
    return acc


def weight(alpha) -> Frac:
    """Combinatorial weight alpha!/|alpha|! of a multi-index."""
    num = 1
    for a in alpha:
        num *= factorial(a)
    return Frac(num, factorial(sum(alpha)))


class RhoPoly:
    """Polynomial in rho with nonnegative Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Frac(c) for c in coeffs]
        for c in cs:
            if c < 0:
                raise NegativeCoefficient(f"majorant coefficient {c} < 0")
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, d: int) -> Frac:
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else Frac(0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RhoPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RhoPoly({list(self.coeffs)})"

    def __add__(self, other: "RhoPoly") -> "RhoPoly":
        if not isinstance(other, RhoPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return RhoPoly(tuple(c + (b[i] if i < len(b) else 0)
                             for i, c in enumerate(a)))

    def scale(self, c) -> "RhoPoly":
        c = Frac(c)
        return RhoPoly(tuple(v * c for v in self.coeffs))

    def d_rho(self) -> "RhoPoly":
        return RhoPoly(tuple(c * d for d, c in enumerate(self.coeffs))[1:])

    def horner(self) -> tuple:
        """Float coefficients, highest degree first."""
        return tuple(float(c) for c in reversed(self.coeffs))

    def eval(self, rho: float) -> float:
        return horner_eval(self.horner(), rho)

    def eval_frac(self, rho: Frac) -> Frac:
        acc = Frac(0)
        for c in reversed(self.coeffs):
            acc = acc * rho + c
        return acc

    def leq(self, other: "RhoPoly") -> bool:
        """Coefficientwise comparison; implies pointwise for rho >= 0."""
        top = max(len(self.coeffs), len(other.coeffs))
        return all(self.coeff(d) <= other.coeff(d) for d in range(top))


class SectorMajorant:
    """sum_k P_k(rho) t^k with nonnegative coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        store: dict[int, RhoPoly] = {}
        for k, p in (coeffs or {}).items():
            if not isinstance(p, RhoPoly):
                p = RhoPoly(p)
            if not p.is_zero():
                store[k] = p
        self.coeffs = store

    def slice(self, k: int) -> RhoPoly:
        return self.coeffs.get(k, RhoPoly())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SectorMajorant):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(f"t^{k}: {list(p.coeffs)}"
                         for k, p in sorted(self.coeffs.items()))
        return f"SectorMajorant({{{body}}})"

    def __add__(self, other: "SectorMajorant") -> "SectorMajorant":
        if not isinstance(other, SectorMajorant):
            return NotImplemented
        out = dict(self.coeffs)
        for k, p in other.coeffs.items():
            out[k] = out[k] + p if k in out else p
        return SectorMajorant(out)

    def scale(self, c) -> "SectorMajorant":
        return SectorMajorant({k: p.scale(c) for k, p in self.coeffs.items()})

    def euler(self) -> "SectorMajorant":
        """Apply t d/dt: each power picks up its exponent k."""
        return SectorMajorant({k: p.scale(k) for k, p in self.coeffs.items()})

    def d_rho(self) -> "SectorMajorant":
        return SectorMajorant({k: p.d_rho() for k, p in self.coeffs.items()})

    def integral_transform(self, a) -> "SectorMajorant":
        """Divide the t^k coefficient by k + a; needs a > 0.

        This is the comparison-series image of the weighted time integral
        t^-a int_0^t s^(a-1) (.) ds used to undo one Euler factor."""
        a = Frac(a)
        if a <= 0:
            raise NonpositiveExponent(f"transform exponent {a} <= 0")
        return SectorMajorant({k: p.scale(Frac(1, 1) / (k + a))
                               for k, p in self.coeffs.items()})

    def leq(self, other: "SectorMajorant") -> bool:
        for k in set(self.coeffs) | set(other.coeffs):
            if not self.slice(k).leq(other.slice(k)):
                return False
        return True

    def horner(self) -> tuple:
        """Float Horner tuples of the t-slices, highest power first, () for
        an empty slice."""
        return tuple(self.coeffs[k].horner() if k in self.coeffs else ()
                     for k in range(max(self.coeffs, default=-1), -1, -1))

    def eval(self, t: float, rho: float) -> float:
        return horner_eval([horner_eval(cs, rho) for cs in self.horner()], t)

    def eval_frac(self, t: Frac, rho: Frac) -> Frac:
        acc = Frac(0)
        for k in range(max(self.coeffs, default=0), -1, -1):
            acc = acc * t + self.slice(k).eval_frac(rho)
        return acc


def _weighted_norms(terms: dict, key) -> dict:
    """One RhoPoly per key(term key): its rho^d coefficient sums
    |c| alpha!/|alpha|! over the terms c t^k x^alpha (...) with |alpha| = d."""
    slices: dict = {}
    for tk, c in terms.items():
        cs = slices.setdefault(key(tk), [])
        d = sum(tk[1])
        cs.extend([Frac(0)] * (d + 1 - len(cs)))
        cs[d] += c.abs_upper() * weight(tk[1])
    return {k: RhoPoly(cs) for k, cs in slices.items()}


def norm_x(f: SeriesTX) -> SectorMajorant:
    """Weighted norm of every t-slice of f, as a majorant in (t, rho)."""
    return SectorMajorant(_weighted_norms(f.terms, lambda tk: tk[0]))


class NormProfileZ:
    """Majorant of a jet-dependent right-hand side.

    Stores, for each (t-power k, jet monomial nu), the rho-polynomial that
    bounds the weighted norm of the matching coefficient series.  The jet
    slots are later filled with nonnegative numbers (norms of profiles).
    """

    __slots__ = ("profiles",)

    def __init__(self, profiles: dict):
        # keys (k, nu) come canonical and distinct from every caller
        self.profiles = {key: p for key, p in profiles.items()
                         if not p.is_zero()}

    def is_zero(self) -> bool:
        return not self.profiles

    def sorted_items(self) -> list:
        def key(kv):
            (k, nu), _ = kv
            return (k + _nu_degree(nu), k,
                    tuple((_zkey_sort(zk), p) for zk, p in nu))
        return sorted(self.profiles.items(), key=key)

    def d_rho(self) -> "NormProfileZ":
        return NormProfileZ({key: p.d_rho() for key, p in self.profiles.items()})

    def dz(self, key) -> "NormProfileZ":
        """Formal partial derivative in one jet slot (power rule)."""
        zk = ZKey(*key)
        out: dict[tuple, RhoPoly] = {}
        for (k, nu), p in self.profiles.items():
            nd = dict(nu)
            if zk not in nd:
                continue
            power = nd[zk]
            nd[zk] -= 1
            nkey = (k, _norm_nu(nd.items()))
            q = p.scale(power)
            out[nkey] = out[nkey] + q if nkey in out else q
        return NormProfileZ(out)

    def horner_terms(self) -> tuple:
        """(k, Horner tuple of the rho-polynomial, nu) of every term, in
        sum order."""
        return tuple((k, p.horner(), nu) for (k, nu), p in self.sorted_items())

    def eval(self, t: float, rho: float, z: dict) -> float:
        """Value with jet slot zk set to z[zk]; z may be keyed by ZKey or by
        plain (i, alpha) pairs."""
        acc = 0.0
        for k, cs, nu in self.horner_terms():
            v = horner_eval(cs, rho) * t ** k
            for zk, power in nu:
                v *= float(z[zk]) ** power
            acc += v
        return acc

    def z_linear_bound(self, R, L) -> Frac:
        """Exact constant C with value <= C * max_z |z| whenever rho <= R,
        t dependence absent, and every jet slot is bounded by L.

        Pulls one factor out of each jet monomial; hence every stored term
        must be t-free and of jet degree >= 1."""
        R, L = Frac(R), Frac(L)
        acc = Frac(0)
        for (k, nu), p in self.profiles.items():
            if k != 0:
                raise ValueError("z_linear_bound needs a t-free profile")
            deg = _nu_degree(nu)
            if deg < 1:
                raise ValueError("z_linear_bound needs jet degree >= 1")
            acc += p.eval_frac(R) * L ** (deg - 1)
        return acc


def norm_xz(F: SeriesTXZ) -> NormProfileZ:
    """Normwise majorant of a jet-dependent series, jet monomials kept."""
    return NormProfileZ(_weighted_norms(F.terms, lambda tk: (tk[0], tk[2])))
