"""Oracles that only the tests need: a manufactured-solution forcing, the
indicial x-series of the order-by-order recursion, the solver's Cauchy
sum over every term pair, the term-by-term jet expansion behind shift_z
and substitute_z_linear, the recombination of a split right-hand side
with the ring operators, the products of majorants behind the
submultiplicativity property, the grid checks of verify_barrier with
every check counted through _Check.record, and the Cash-Karp loop of
characteristics.integrate with one callback for the rate and one for the
sample."""

import math
from math import gcd, lcm
from operator import add
from types import SimpleNamespace

from fuchsian.certificate import barrier_grid
from fuchsian import characteristics
from fuchsian.characteristics import CharacteristicPath, _Check
from fuchsian.equation import FuchsianEquation
from fuchsian.errors import A2Violation, InputError
from fuchsian.majorant import RhoPoly, SectorMajorant, horner_eval
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
    F = eq.F + SeriesTXZ.from_tx(g)
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
    out = SeriesTXZ.zero(F.n, F.k_t, F.k_x)
    for (k, alpha, nu), c in F.terms.items():
        piece = SeriesTXZ(F.n, F.k_t, F.k_x, {(k, alpha, ()): c})
        for zk, p in nu:
            factor = images[zk] if zk in images else SeriesTXZ.z_var(
                F.n, F.k_t, F.k_x, zk)
            for _ in range(p):
                piece = piece * factor
        out = out + piece
    return out


def shift_z_by_terms(F: SeriesTXZ, shifts: dict) -> SeriesTXZ:
    """F.shift_z(shifts) through expand_by_terms."""
    return expand_by_terms(F, {
        zk: SeriesTXZ.z_var(F.n, F.k_t, F.k_x, zk)
        + SeriesTXZ.from_tx(s)
        for zk, s in shifts.items() if not s.is_zero()})


def substitute_z_linear_by_terms(F: SeriesTXZ, mapping: dict) -> SeriesTXZ:
    """F.substitute_z_linear(mapping) through expand_by_terms."""
    zero = SeriesTXZ.zero(F.n, F.k_t, F.k_x)
    return expand_by_terms(F, {
        zk: sum((SeriesTXZ.z_var(F.n, F.k_t, F.k_x, zk2).scale(c)
                 for c, zk2 in combo), zero)
        for zk, combo in mapping.items()})


def reconstruct_by_products(dec) -> SeriesTXZ:
    """certificate.reconstruct with the ring operators: each split
    coefficient, at theta_rhs's caps, times its jet factors (and t for the
    a family), added to the running sum with +.  The chain of * and + sets
    the caps; the cost is quadratic in the output."""
    G = dec.theta_rhs
    n, kt, kx = G.n, G.k_t, G.k_x
    zeros = (0,) * n

    def at_caps(s):
        return SeriesTXZ(n, kt, kx, s.terms)

    def lift(f):
        return SeriesTXZ(n, kt, kx,
                         {(k, a, ()): c for (k, a), c in f.terms.items()})

    def zvar(zk):
        return SeriesTXZ.z_var(n, kt, kx, zk)

    acc = lift(dec.beta0) * zvar(ZKey(0, zeros))
    acc = acc + lift(dec.beta1) * zvar(ZKey(1, zeros))
    tvar = SeriesTXZ(n, kt, kx, {(1, zeros, ()): 1})
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


def grid_points(rows, rhos: list):
    """The per-point view of BarrierSystem.grid's rows over rhos: (t, rho,
    tk, q, dq, tdq, v, A, B) in t-major order, v a tuple of the twelve
    sector values at the point."""
    for t, tk, q, dq, tdq, v, A, B in rows:
        yield from zip([t] * len(rhos), rhos, [tk] * len(rhos), q, dq, tdq,
                       zip(*v), A, B)


def grid_checks_by_record(system, P, nt: int, nrho: int) -> dict:
    """The five grid families of verify_barrier under params P, r_sup and
    the work counters, with each of the 15 checks per point passed to
    record, which counts it and decides it."""
    hf, e00, e01, e11 = (float(f) for f in (P.h, P.eps00, P.eps01, P.eps11))
    consts = system.constants(P)
    C1, C2, C3, C4 = (consts[c] for c in ("C1", "C2", "C3", "C4"))
    ts, rhos = barrier_grid(float(P.sigma0), float(P.R0), nt, nrho)

    checks = {name: _Check() for name in ("barrier_dineq", "growth_bound_le_h",
                                          "phi_vs_q", "dphi_vs_dq", "envelope")}
    dineq, gb, pv, dpv, env = (chk.record for chk in checks.values())
    qmax = 0.0
    for t, rho, tk, q, dq, tdq, v, A, B in grid_points(
            system.grid(P, ts, rhos), rhos):
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


# -- the barrier's per-point formulas before grid became their one kernel,
# kept verbatim (methods of BarrierSystem then, functions of it here).
# self is weighted(system, P): the float weights and kinds a system held
# when it was built for one BarrierParams


def weighted(system, P) -> SimpleNamespace:
    """system's float weights under params P as it once held them: e00,
    e01, e11 and kf, and kinds as (kind, eps of the host for a1 and b or
    None, host), next to its betas."""
    return SimpleNamespace(
        e00=float(P.eps00), e01=float(P.eps01), e11=float(P.eps11),
        kf=float(P.kappa), betas=system.betas,
        kinds=[(kind, float(P.eps_slot(h.i, sum(h.alpha)))
                if kind in ("a1", "b") else None, h)
               for kind, h in system.kinds])


def _inner(prof, rho: float) -> list:
    """NormProfileZ.inner: the value at rho of every term's rho-polynomial,
    in sum order."""
    return [horner_eval(cs, rho) for _, cs, _ in prof.horner_terms()]


def _slope_inner(pack, rho: float) -> list:
    """Inner values at rho of the profiles _slope reads: dr, then each dz."""
    _, dr, dz = pack
    return [_inner(dr, rho), *(_inner(g, rho) for _, g in dz)]


def _outer(prof, inner: list, t: float, z: dict) -> float:
    """NormProfileZ.outer: the value from inner(rho), with jet slot zk set
    to z[zk]."""
    acc = 0.0
    for (k, _, nu), v in zip(prof.horner_terms(), inner):
        v *= t ** k
        for zk, power in nu:
            v *= float(z[zk]) ** power
        acc += v
    return acc


def _slope(pack, inner: list, t: float, phiv: dict, dphiv: dict) -> float:
    """Total rho-derivative of a composed coefficient norm: direct slope
    plus the chain through every profile slot."""
    _, dr, dz = pack
    v = _outer(dr, inner[0], t, phiv)
    for (zk, g), gi in zip(dz, inner[1:]):
        v += _outer(g, gi, t, phiv) * dphiv[zk]
    return v


def _q(self, tk: float, v) -> float:
    """q from the slot values v[:5]."""
    v00, v10, v01, v11, v02 = v[:5]
    return (self.e00 * v00 + v10 + tk * v02 + self.e01 * v01
            + self.e11 * v11 + v02 ** 1.5)


def _jet(self, tk: float, v: list) -> tuple:
    """q, dq/drho and t dq/dt (term calculus on each part) from v."""
    e00, e01, e11 = self.e00, self.e01, self.e11
    v00, v10, v01, v11, v02, dv11, dv02, e00v, e10v, e01v, e11v, e02v = v
    sq02 = math.sqrt(v02)
    q = _q(self, tk, v)
    dq = (e00 * v01 + v11 + tk * dv02 + e01 * v02 + e11 * dv11
          + 1.5 * sq02 * dv02)
    tdq = (e00 * e00v + e10v + tk * (self.kf * v02 + e02v)
           + e01 * e01v + e11 * e11v + 1.5 * sq02 * e02v)
    return q, dq, tdq


def _rho_terms(self, rho: float) -> tuple:
    """The four terms of A that depend on rho alone, from the values of
    self.betas: the one A starts from, and the three it adds after the
    coefficient families."""
    e00, e01, e11 = self.e00, self.e01, self.e11
    nb0, nb1, db0, db1 = [b.eval(rho) for b in self.betas]
    return (e00 + (nb0 / e00 + nb1), self.kf + e01 / e11,
            e11 * (db0 / e00 + db1), e11 * (nb0 / e01 + nb1 / e11))


def _growth(self, t, t1k, sq02, rho_terms, comp, drho) -> float:
    """A from _rho_terms(rho) and the values of the packs and their
    slopes."""
    acc, r1, r2, r3 = rho_terms
    for (kind, eps, _), x in zip(self.kinds, comp):
        acc += (t / eps * x if kind == "a1" else t1k * x if kind == "a2"
                else x / eps if kind == "b" else x * sq02)
    return _e11_terms(self, acc + r1 + r2 + r3, t, t1k, sq02, drho,
                      self.e11)


def _transport(self, t, tk, t1k, sq02, comp) -> float:
    """B from the values of the packs."""
    e11 = self.e11
    acc = _e11_terms(self, tk / e11, t, t1k, sq02, comp, 4.0 * e11 / 3.0)
    return acc + 1.5 / e11 * sq02


def _e11_terms(self, acc, t, t1k, sq02, xs, wc) -> float:
    """acc plus the e11-weighted terms of xs, wc * x * sq02 for c."""
    e11 = self.e11
    for (kind, eps, _), x in zip(self.kinds, xs):
        acc += (e11 / eps * t * x if kind == "a1" else e11 * t1k * x
                if kind == "a2" else e11 / eps * x if kind == "b"
                else wc * x * sq02)
    return acc


def barrier_point(system, P, t: float, rho: float) -> tuple:
    """(t, rho, tk, q, dq, tdq, v, A, B) at one point under params P, as
    grid_points views BarrierSystem.grid's rows, from per-point evaluators
    and the formulas above: A and B as growth_bound and transport_rate
    took them."""
    s, w = system, weighted(system, P)
    tk, t1k = t ** w.kf, t ** (1.0 - w.kf)
    v = [m.eval(t, rho) for m in s.sectors]
    phiv = s.phi_values(t, rho)
    dphiv = {zk: s.sectors[d].eval(t, rho) for zk, d in s._dphi}
    comp = [pk[0].eval(t, rho, phiv) for pk in s.packs]
    drho = [_slope(pk, _slope_inner(pk, rho), t, phiv, dphiv)
            for pk in s.packs]
    sq02 = math.sqrt(s.p[(0, 2)].eval(t, rho))
    A = _growth(w, t, t1k, sq02, _rho_terms(w, rho), comp, drho)
    B = _transport(w, t, tk, t1k, sq02, comp)
    return (t, rho, tk, *_jet(w, tk, v), v, A, B)


def integrate_two_callbacks(b_fun, q_fun, t0: float, xi: float, r_max: float,
                            t_floor: float,
                            tol: float = 1e-10) -> CharacteristicPath:
    """characteristics.integrate as it was with b_fun(t, rho) for the rate
    and q_fun(t, rho) for the sample, kept verbatim: every step evaluates
    all six stages, and an accepted step samples q at its end point."""
    c = characteristics
    _A2, _A3, _A4, _A5, _A6, _B5, _B4 = (c._A2, c._A3, c._A4, c._A5, c._A6,
                                          c._B5, c._B4)
    if not (0.0 < t_floor < t0):
        raise InputError("need 0 < t_floor < t0")
    if not (0.0 < xi < r_max):
        raise InputError("need 0 < xi < r_max")

    s = math.log(t0)
    s_end = math.log(t_floor)
    rho = float(xi)
    ts = [float(t0)]
    rhos = [rho]
    qs = [float(q_fun(t0, rho))]

    def f(s_, r_):
        return -b_fun(math.exp(s_), r_)

    h = (s_end - s) / 64.0  # negative
    accepted = rejected = 0
    status = None
    while s > s_end + 1e-13 * max(1.0, abs(s_end)):
        if s + h < s_end:
            h = s_end - s
        k1 = f(s, rho)
        k2 = f(s + h / 5, rho + h * (_A2[0] * k1))
        k3 = f(s + 3 * h / 10, rho + h * (_A3[0] * k1 + _A3[1] * k2))
        k4 = f(s + 3 * h / 5,
               rho + h * (_A4[0] * k1 + _A4[1] * k2 + _A4[2] * k3))
        k5 = f(s + h, rho + h * (_A5[0] * k1 + _A5[1] * k2 + _A5[2] * k3
                                 + _A5[3] * k4))
        k6 = f(s + 7 * h / 8,
               rho + h * (_A6[0] * k1 + _A6[1] * k2 + _A6[2] * k3
                          + _A6[3] * k4 + _A6[4] * k5))
        y5 = rho + h * (_B5[0] * k1 + _B5[2] * k3 + _B5[3] * k4
                        + _B5[5] * k6)
        y4 = rho + h * (_B4[0] * k1 + _B4[2] * k3 + _B4[3] * k4
                        + _B4[4] * k5 + _B4[5] * k6)
        err = abs(y5 - y4)
        scale = tol * (1.0 + abs(rho))
        if err <= scale:
            s += h
            rho = y5
            accepted += 1
            t_here = math.exp(s)
            ts.append(t_here)
            rhos.append(rho)
            qs.append(float(q_fun(t_here, rho)))
            if rho >= r_max:
                status = "left-domain"
                break
        else:
            rejected += 1
        fac = 5.0 if err == 0.0 else 0.9 * (scale / err) ** 0.2
        h *= min(5.0, max(0.2, fac))
        if (abs(h) < 1e-14 * max(1.0, abs(s))
                or accepted + rejected > c._MAX_STEPS):
            status = "step-failure"
            break
    if status is None:
        status = "extended-to-floor"
    return CharacteristicPath(ts=ts, rhos=rhos, qs=qs, status=status,
                              steps_accepted=accepted,
                              steps_rejected=rejected)
