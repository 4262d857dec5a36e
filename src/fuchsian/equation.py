"""Equation instances: (t d/dt)^2 u = F(t, x, jet of u) and the spectral
data of their linearisation at the origin.

F is a SeriesTXZ over the admissible jet set.  Two structural conditions
are enforced before anything else runs:

* no forcing at t = 0: the t-free jet-free part of F vanishes;
* at t = 0 the only admissible linear jet terms are the pure Euler ones
  z[i, 0], whose x-series are the indicial coefficients.

The indicial polynomial at x = 0 is s^2 - b1 s - b0 with exact complex
rational b0, b1, so positive-integer non-resonance is decided exactly.  Its
roots (b1 -+ sqrt(D)) / 2 are kept as floats always, and as exact complex
rationals when D = b1^2 + 4 b0 has a Gaussian-rational square root, which
the certification path requires; otherwise a rational enclosure of
Re sqrt(D) still proves the bounds on -Re of the roots.
"""

from __future__ import annotations

import cmath
from typing import NamedTuple

from .errors import A2Violation, A3Violation, HypothesisViolated
from .rational import CRat, Frac, crat_sqrt_exact, sqrt_upper
from .series import SeriesTX, SeriesTXZ, ZKey


class CharData(NamedTuple):
    """Linearisation data at x = 0.

    betas[i] is the x-series multiplying z[i, 0] among the t-free terms.
    roots are (b1 -+ sqrt(D)) / 2 with the principal root, so sorted by
    (real, imag); roots_exact is the same pair as CRat when available, else
    None.  neg_re_lower[i] is a proved rational lower bound for
    -Re(roots[i]), exact in the exact case.  h is the stability margin
    (9/20) * min(neg_re_lower) when both bounds are positive, else None.
    """

    betas: tuple
    roots: tuple
    roots_exact: tuple | None
    neg_re_lower: tuple
    h: Frac | None


def decay_margin(cd: CharData) -> Frac:
    """The stability margin h; HypothesisViolated when there is none."""
    if cd.h is None:
        raise HypothesisViolated(
            "no positive decay margin: some exponent has nonnegative real "
            "part, so the barrier construction does not apply")
    return cd.h


# floats closer than this to a positive integer trigger a warning only;
# the exact indicial test is what decides.
_NEAR_GUARD = 1e-9


class FuchsianEquation:
    """One instance (t d/dt)^2 u = F(t, x, jet): the order m is 2, n is F.n."""

    m = 2

    def __init__(self, F: SeriesTXZ, name: str = ""):
        self.n = F.n
        self.F = F
        self.name = name
        self.validate()

    # -- hypothesis checks --------------------------------------------

    def validate(self) -> None:
        """Raise unless the right-hand side satisfies the two t = 0
        structure conditions.  Jet-index admissibility is checked where
        equations are read, by builtin.parse_equation; F built inside the
        package uses lambda_keys(n) only."""
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

    # -- spectrum -------------------------------------------------------

    def char_exponents(self) -> CharData:
        betas = (self.beta_star(0), self.beta_star(1))
        b0, b1 = (beta.coeff(0, (0,) * self.n) for beta in betas)
        # s^2 - b1 s - b0 has the roots (b1 -+ sqrt(D)) / 2; the principal
        # root (re > 0, or re == 0 and im >= 0) orders them by (re, im)
        disc = b1 * b1 + CRat(4) * b0
        sq = crat_sqrt_exact(disc)
        if sq is not None:
            roots_exact = ((b1 - sq) / 2, (b1 + sq) / 2)
            roots = tuple(z.as_complex() for z in roots_exact)
            lower = tuple(-z.re for z in roots_exact)
        else:
            roots_exact = None
            bf, sf = b1.as_complex(), cmath.sqrt(disc.as_complex())
            roots = ((bf - sf) / 2, (bf + sf) / 2)
            lo, hi = _re_sqrt_bounds(disc)
            lower = ((lo - b1.re) / 2, (-hi - b1.re) / 2)

        h = None
        if all(v > 0 for v in lower):
            h = Frac(9, 20) * min(lower)
        return CharData(betas=betas, roots=roots, roots_exact=roots_exact,
                        neg_re_lower=lower, h=h)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = f" {self.name!r}" if self.name else ""
        return f"FuchsianEquation(m={self.m}, n={self.n}{tag})"


def _re_sqrt_bounds(d: CRat) -> tuple[Frac, Frac]:
    """Rationals lo <= Re sqrt(d) <= hi for the principal root of d != 0.

    Re sqrt(d) is w = sqrt((|d| + |Re d|) / 2) when Re d >= 0, else
    |Im d| / (2 w): no cancellation either way.  Each root of s is enclosed
    by s / sqrt_upper(s) below and sqrt_upper(s) above.
    """
    a2 = d.abs2()
    mod_hi = sqrt_upper(a2)
    s_lo = (a2 / mod_hi + abs(d.re)) / 2
    w_lo, w_hi = s_lo / sqrt_upper(s_lo), sqrt_upper((mod_hi + abs(d.re)) / 2)
    if d.re >= 0:
        return w_lo, w_hi
    return abs(d.im) / (2 * w_hi), abs(d.im) / (2 * w_lo)


def applicability(cd: CharData, K: int = 10) -> tuple:
    """(resonances, near_resonances) of the spectral data: the k in 1..K
    with vanishing indicial value, and the (root, k) pairs closer than the
    float guard that are not resonances.

    The indicial values at positive integers come from the origin values
    of the beta series, so this needs no equation object.  Each root is
    tested at its nearest integer only (from the exact root if there is
    one), so the cost does not grow with K.
    """
    b0, b1 = (beta.coeff(0, (0,) * beta.n) for beta in cd.betas)

    def indicial(k: int) -> CRat:
        s = CRat(k)
        return s * s - b1 * s - b0

    cands = [round(z.re) for z in cd.roots_exact] if cd.roots_exact \
        else [round(z.real) for z in cd.roots]
    resonances = tuple(sorted({k for k in cands
                               if 1 <= k <= K and indicial(k).is_zero()}))
    near = tuple((z, k) for z, k in zip(cd.roots, cands)
                 if 1 <= k <= 10 * K and abs(z - k) < _NEAR_GUARD
                 and not indicial(k).is_zero())
    return resonances, near
