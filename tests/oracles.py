"""Oracles that only the tests need: a manufactured-solution forcing, the
indicial x-series of the order-by-order recursion, the solver's Cauchy
sum over every term pair, the term-by-term jet expansion behind shift_z
and substitute_z_linear, the recombination of a split right-hand side
with the ring operators, the products of majorants behind the
submultiplicativity property, and the grid checks of verify_barrier with
every check counted through _Check.record."""

import math
from math import gcd, lcm
from operator import add

from fuchsian.certificate import barrier_grid
from fuchsian.characteristics import _Check
from fuchsian.equation import FuchsianEquation
from fuchsian.errors import A2Violation
from fuchsian.majorant import RhoPoly, SectorMajorant
from fuchsian.rational import CRat, Frac
from fuchsian.series import SeriesTX, SeriesTXZ, ZKey, _zkey_sort
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


def cauchy_by_pairs(pairs: list, cap: int) -> tuple:
    """solver._cauchy's sum on tuple-keyed sections in any term order: every
    (f, g) pair and every term pair is visited, and a product past the
    x-cap is skipped."""
    den = lcm(*(f[0] * g[0] for f, g in pairs))
    re: dict = {}
    im: dict = {}
    for (df, f), (dg, g) in pairs:
        s = den // (df * dg)
        for a1, (r1, i1) in f.items():
            for a2, (r2, i2) in g.items():
                if sum(a1) + sum(a2) > cap:
                    continue
                alpha = tuple(map(add, a1, a2))
                re[alpha] = re.get(alpha, 0) + (r1 * r2 - i1 * i2) * s
                im[alpha] = im.get(alpha, 0) + (r1 * i2 + i1 * r2) * s
    g = gcd(den, *re.values(), *im.values())
    return den // g, {a: (r // g, im[a] // g) for a, r in re.items()
                      if r or im[a]}


def expand_by_terms(F: SeriesTXZ, images: dict) -> SeriesTXZ:
    """F with z[zk] replaced by images[zk] where one is given, written term
    by term: each term's product with the images, one factor at a time,
    added to the running sum with +.  The chain of * and + sets the caps;
    the cost is quadratic in the output."""
    out = SeriesTXZ(F.n, F.k_t, F.k_x, F.k_z, z_clipped=F.z_clipped)
    for (k, alpha, nu), c in F.terms.items():
        piece = SeriesTXZ(F.n, F.k_t, F.k_x, F.k_z, {(k, alpha, ()): c})
        for zk, p in nu:
            factor = images[zk] if zk in images else SeriesTXZ.z_var(
                F.n, F.k_t, F.k_x, F.k_z, zk)
            for _ in range(p):
                piece = piece * factor
        out = out + piece
    return out


def shift_z_by_terms(F: SeriesTXZ, shifts: dict) -> SeriesTXZ:
    """F.shift_z(shifts) through expand_by_terms."""
    return expand_by_terms(F, {
        zk: SeriesTXZ.z_var(F.n, F.k_t, F.k_x, F.k_z, zk)
        + SeriesTXZ.from_tx(s, F.k_z)
        for zk, s in shifts.items() if not s.is_zero()})


def substitute_z_linear_by_terms(F: SeriesTXZ, mapping: dict) -> SeriesTXZ:
    """F.substitute_z_linear(mapping) through expand_by_terms."""
    zero = SeriesTXZ.zero(F.n, F.k_t, F.k_x, F.k_z)
    return expand_by_terms(F, {
        zk: sum((SeriesTXZ.z_var(F.n, F.k_t, F.k_x, F.k_z, zk2).scale(c)
                 for c, zk2 in combo), zero)
        for zk, combo in mapping.items()})


def reconstruct_by_products(dec) -> SeriesTXZ:
    """certificate.reconstruct with the ring operators: each split
    coefficient, at theta_rhs's caps, times its jet factors (and t for the
    a family), added to the running sum with +.  The chain of * and + sets
    the caps; the cost is quadratic in the output."""
    G = dec.theta_rhs
    n, kt, kx, kz = G.n, G.k_t, G.k_x, G.k_z
    zeros = (0,) * n

    def at_caps(s):
        return SeriesTXZ(n, kt, kx, kz, s.terms, z_clipped=s.z_clipped)

    def lift(f):
        return SeriesTXZ(n, kt, kx, kz,
                         {(k, a, ()): c for (k, a), c in f.terms.items()})

    def zvar(zk):
        return SeriesTXZ.z_var(n, kt, kx, kz, zk)

    acc = lift(dec.beta0) * zvar(ZKey(0, zeros))
    acc = acc + lift(dec.beta1) * zvar(ZKey(1, zeros))
    tvar = SeriesTXZ(n, kt, kx, kz, {(1, zeros, ()): 1})
    for host in sorted(dec.a, key=_zkey_sort):
        acc = acc + tvar * at_caps(dec.a[host]) * zvar(host)
    for host in sorted(dec.b, key=_zkey_sort):
        acc = acc + at_caps(dec.b[host]) * zvar(host)
    for za, zb in sorted(dec.c, key=lambda p: (_zkey_sort(p[0]),
                                               _zkey_sort(p[1]))):
        acc = acc + at_caps(dec.c[(za, zb)]) * zvar(za) * zvar(zb)
    return acc


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


def grid_checks_by_record(system, nt: int, nrho: int) -> dict:
    """The five grid families of verify_barrier, r_sup and the work
    counters, with each of the 15 checks per point passed to record, which
    counts it and decides it."""
    P = system.params
    hf, e00, e01, e11 = float(P.h), system.e00, system.e01, system.e11
    consts = system.constants()
    C1, C2, C3, C4 = (consts[c] for c in ("C1", "C2", "C3", "C4"))
    ts, rhos = barrier_grid(float(P.sigma0), float(P.R0), nt, nrho)

    checks = {name: _Check() for name in ("barrier_dineq", "growth_bound_le_h",
                                          "phi_vs_q", "dphi_vs_dq", "envelope")}
    dineq, gb, pv, dpv, env = (chk.record for chk in checks.values())
    qmax = 0.0
    for t, rho, tk, q, dq, tdq, v, A, B in system.grid(ts, rhos):
        qmax = max(qmax, q)
        q23 = q ** (2.0 / 3.0)
        dineq(tdq + 2.0 * hf * q, A * q + B * dq, t, rho)
        gb(A, hf, t, rho)
        pv(v[0], q / e00, t, rho)
        pv(v[1], q, t, rho)
        pv(v[2], q / e01, t, rho)
        pv(v[3], q / e11, t, rho)
        pv(v[4], q23, t, rho)
        pv(tk * v[4], q, t, rho)
        dpv(v[2], dq / e00, t, rho)
        dpv(v[3], dq, t, rho)
        dpv(v[4], dq / e01, t, rho)
        dpv(v[5], dq / e11, t, rho)
        dpv(math.sqrt(v[4]) * v[6], (2.0 / 3.0) * dq, t, rho)
        dpv(tk * v[6], dq, t, rho)
        env(B, C1 * tk + C2 * q + C3 * q23 + C4 * q ** (1.0 / 3.0), t, rho)
    return {"checks": {name: chk.report() for name, chk in checks.items()},
            "r_sup": 1.05 * qmax,
            "work": {"grid_points": nt * nrho, **system.work(nt, nrho)}}
