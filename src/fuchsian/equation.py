"""Equation instances: (t d/dt)^m u = F(t, x, jet of u) and the spectral
data of their linearisation at the origin.

F is a SeriesTXZ over the admissible jet set.  Two structural conditions
are enforced before anything else runs:

* no forcing at t = 0: the t-free jet-free part of F vanishes;
* at t = 0 the only admissible linear jet terms are the pure Euler ones
  z[i, 0], whose x-series are the indicial coefficients.

The indicial polynomial at x = 0 is s^m - sum_i b_i s^i with exact complex
rational b_i, so positive-integer non-resonance is decided exactly.  Its
roots are kept twice: as floats always, and as exact complex rationals
when the quadratic formula stays inside the Gaussian rationals (order-two
equations with a square discriminant), which is what the certification
path requires.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import A2Violation, A3Violation, DimensionMismatch
from .rational import CRat, Frac, crat_sqrt_exact
from .series import SeriesTX, SeriesTXZ, ZKey, lambda_keys


@dataclass(frozen=True)
class CharData:
    """Linearisation data at x = 0.

    betas[i] is the x-series multiplying z[i, 0] among the t-free terms.
    roots are the indicial roots sorted by (real, imag); roots_exact is the
    same tuple as CRat when available, else None.  neg_re_lower[i] is a
    rational lower bound for -Re(roots[i]), exact in the exact case.
    h is the stability margin (9/20) * min(neg_re_lower) when every root
    has negative real part, else None.
    """

    betas: tuple
    roots: tuple
    roots_exact: tuple | None
    neg_re_lower: tuple
    h: Frac | None


@dataclass(frozen=True)
class Applicability:
    """Outcome of the hypothesis checks for one equation instance."""

    unique_formal: bool          # positive integers avoid the spectrum
    resonances: tuple            # k in 1..K with vanishing indicial value
    near_resonances: tuple       # (root, k) pairs closer than the guard
    decay_applicable: bool       # every root has negative real part
    h: Frac | None
    roots: tuple
    exact_roots: bool


# floats closer than this to a positive integer trigger a warning only;
# the exact indicial test is what decides.
_NEAR_GUARD = 1e-9


class FuchsianEquation:
    """One instance (t d/dt)^m u = F(t, x, jet)."""

    def __init__(self, m: int, n: int, F: SeriesTXZ, name: str = "",
                 validate: bool = True):
        if (F.n, F.m) != (n, m):
            raise DimensionMismatch(
                f"right-hand side built for (n, m) = {(F.n, F.m)}, "
                f"equation says {(n, m)}")
        self.m = m
        self.n = n
        self.F = F
        self.name = name
        self.keys = lambda_keys(m, n)
        if validate:
            self.validate()

    # -- hypothesis checks --------------------------------------------

    def validate(self) -> None:
        """Raise unless the right-hand side satisfies the two t = 0
        structure conditions.  Jet-index admissibility was already
        enforced when F was built."""
        bad_a2 = []
        bad_a3 = []
        for (k, alpha, nu), c in self.F.terms.items():
            if k != 0:
                continue
            if not nu:
                bad_a2.append((alpha, c))
            elif len(nu) == 1 and nu[0][1] == 1 and sum(nu[0][0].alpha) > 0:
                bad_a3.append((alpha, nu[0][0], c))
        if bad_a2:
            raise A2Violation(
                f"forcing at t = 0: {len(bad_a2)} jet-free t-free term(s), "
                f"first at x-index {min(a for a, _ in bad_a2)}")
        if bad_a3:
            zk = bad_a3[0][1]
            raise A3Violation(
                f"t-free term linear in z[{zk.i}, {zk.alpha}] with spatial "
                f"derivatives; such terms must carry a factor t")

    def beta_star(self, i: int) -> SeriesTX:
        """x-series multiplying z[i, 0] among the t-free terms of F."""
        zk = ZKey(i, (0,) * self.n)
        out = {}
        for (k, alpha, nu), c in self.F.terms.items():
            if k == 0 and nu == ((zk, 1),):
                out[(0, alpha)] = c
        return SeriesTX(self.n, 0, self.F.k_x, out)

    def indicial_series(self, s: int) -> SeriesTX:
        """The x-series s^m - sum_i beta*_i(x) s^i (t-free)."""
        acc = SeriesTX.const(self.n, 0, self.F.k_x, CRat(Frac(s)) ** self.m)
        for i in range(self.m):
            acc = acc - self.beta_star(i).scale(CRat(Frac(s)) ** i)
        return acc

    # -- spectrum -------------------------------------------------------

    def char_exponents(self) -> CharData:
        zero_alpha = (0,) * self.n
        betas = tuple(self.beta_star(i) for i in range(self.m))
        b = [beta.coeff(0, zero_alpha) for beta in betas]

        roots_exact = None
        if self.m == 2:
            # s^2 - b1 s - b0: exact quadratic formula when the
            # discriminant has a Gaussian-rational square root
            disc = b[1] * b[1] + CRat(Frac(4)) * b[0]
            sq = crat_sqrt_exact(disc)
            if sq is not None:
                half = CRat(Frac(1, 2))
                r1 = (b[1] - sq) * half
                r2 = (b[1] + sq) * half
                roots_exact = tuple(sorted((r1, r2), key=lambda z: (z.re, z.im)))

        if roots_exact is not None:
            roots = tuple(z.as_complex() for z in roots_exact)
            lower = tuple(-z.re for z in roots_exact)
        else:
            coeffs = [1.0 + 0j]
            for i in range(self.m - 1, -1, -1):
                coeffs.append(-b[i].as_complex())
            rr = sorted(np.roots(coeffs), key=lambda z: (z.real, z.imag))
            roots = tuple(complex(z) for z in rr)
            # directed slack: floats carry the root-finder error, so back
            # off before claiming a lower bound on -Re
            lower = tuple(Frac(-z.real).limit_denominator(10 ** 12)
                          - Frac(1, 1 << 20) for z in roots)

        h = None
        if all(v > 0 for v in lower):
            h = Frac(9, 20) * min(lower)
        return CharData(betas=betas, roots=roots, roots_exact=roots_exact,
                        neg_re_lower=lower, h=h)

    def applicability(self, K: int = 10) -> Applicability:
        """Check the hypotheses on this instance up to formal order K."""
        return applicability(self.char_exponents(), K)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = f" {self.name!r}" if self.name else ""
        return f"FuchsianEquation(m={self.m}, n={self.n}{tag})"


def applicability(cd: CharData, K: int = 10) -> Applicability:
    """Hypothesis checks from the spectral data alone.

    The indicial values at positive integers come from the origin values
    of the beta series, so this needs no equation object.
    """
    m = len(cd.betas)
    zeros = (0,) * cd.betas[0].n
    b0 = [beta.coeff(0, zeros) for beta in cd.betas]

    def indicial(k: int) -> CRat:
        acc = CRat(Frac(k)) ** m
        for i, bi in enumerate(b0):
            acc = acc - bi * (CRat(Frac(k)) ** i)
        return acc

    resonances = tuple(k for k in range(1, K + 1) if indicial(k).is_zero())
    near = tuple((z, k) for z in cd.roots for k in range(1, 10 * K + 1)
                 if abs(z - k) < _NEAR_GUARD and not indicial(k).is_zero())
    return Applicability(
        unique_formal=not resonances,
        resonances=resonances,
        near_resonances=near,
        decay_applicable=all(v > 0 for v in cd.neg_re_lower),
        h=cd.h,
        roots=cd.roots,
        exact_roots=cd.roots_exact is not None)
