"""Oracles that only the tests need: a manufactured-solution forcing, the
indicial x-series of the order-by-order recursion, and the products of
majorants behind the submultiplicativity property."""

from fuchsian.equation import FuchsianEquation
from fuchsian.errors import A2Violation
from fuchsian.majorant import RhoPoly, SectorMajorant
from fuchsian.rational import CRat, Frac
from fuchsian.series import SeriesTX, SeriesTXZ
from fuchsian.solver import residual


def manufactured(eq: FuchsianEquation, u_target: SeriesTX) -> FuchsianEquation:
    """Equation with the same jet structure whose solution is u_target.

    Adds the forcing g = (t d/dt)^m u_target - F(jet of u_target) to the
    right-hand side.  The forcing must vanish at t = 0, otherwise the
    result would violate the no-forcing condition."""
    g = residual(eq, u_target, u_target.k_t)
    if any(k == 0 for (k, _) in g.terms):
        raise A2Violation(
            "manufactured forcing has terms at t-order 0; pick a target "
            "that vanishes at t = 0")
    F = eq.F + SeriesTXZ.from_tx(g, eq.F.k_z)
    return FuchsianEquation(
        F, name=(eq.name + "+forcing") if eq.name else "forced")


def indicial_series(eq: FuchsianEquation, s: int) -> SeriesTX:
    """The x-series s^2 - beta*_1(x) s - beta*_0(x) (t-free)."""
    sc = CRat(s)
    return (SeriesTX.const(eq.n, 0, eq.F.k_x, sc * sc)
            - eq.beta_star(0) - eq.beta_star(1).scale(sc))


def rho_product(p: RhoPoly, q: RhoPoly) -> RhoPoly:
    if p.is_zero() or q.is_zero():
        return RhoPoly()
    out = [Frac(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return RhoPoly(out)


def sector_product(m: SectorMajorant, n: SectorMajorant) -> SectorMajorant:
    out: dict[int, RhoPoly] = {}
    for k1, p1 in m.coeffs.items():
        for k2, p2 in n.coeffs.items():
            k = k1 + k2
            p = rho_product(p1, p2)
            out[k] = out[k] + p if k in out else p
    return SectorMajorant(out)
