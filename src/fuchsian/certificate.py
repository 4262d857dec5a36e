"""Barrier machinery for order-two instances.

Pipeline: shift the equation by a candidate base solution, rewrite the
shifted right-hand side over the factored Euler operators, build integral
comparison profiles for a test function w, select the weight parameters,
and verify the resulting differential inequality pointwise on a grid.

Everything up to grid evaluation is exact rational arithmetic.  A certify
builds one BarrierSystem; the weights and the box (BarrierParams) are an
argument of each method that reads them.  The grid runs in floats on a
tensor product, in one kernel, BarrierSystem.grid: a rho column evaluates
every rho-polynomial it reads in one Horner pass, and a t row does each
float operation of its points as one comprehension over the row's rhos,
the operations a point would see alone: bit for bit Horner on each majorant.
Each pointwise check, like the path checks in characteristics.py, is a
float comparison against characteristics.allowed(rhs), the one tolerance
rule; violations are reported, never absorbed, and a pass is not a proof.
The grid tests lhs > rhs inline and calls its _Check counter only on such
a candidate violation; each family's checked count comes from the grid size.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .characteristics import _Check
from .equation import CharData, decay_margin
from .errors import (
    HypothesisViolated,
    InexactRoots,
    InputError,
    SearchExhausted,
    TruncationExhausted,
    UnsplittableTerm,
)
from .majorant import norm_x, norm_xz
from .rational import BIAS, CRat, Frac
from .series import (SeriesTX, SeriesTXZ, ZKey, _norm_nu, _nu_degree, _zkey_sort,
                     lambda_keys)
from .solver import derivative_tuple

# rational headroom: exact domination can be off by at most one part in
# 2**48 of enclosure rounding, the directed-root bias
_HEADROOM = BIAS

# slot indices of the profile family
_SLOTS = ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2))

# weight of slot (1, 0) in the barrier, which is normalised on it
_EPS10 = Frac(1)

# decades of t in every verification grid; halvings allowed per search of
# choose_params, and the grid that checks its box
_DECADES, _MAX_HALVINGS, _PARAMS_GRID = 4.0, 60, (12, 12)


def _nu_drop(nu: tuple, *gone: ZKey) -> tuple:
    counts = dict(nu)
    for zk in gone:
        counts[zk] -= 1
        if counts[zk] < 0:
            raise ValueError("dropping a jet factor that is not there")
    return tuple((zk, counts[zk]) for zk, _ in nu if counts[zk] > 0)


def build_shifted_rhs(eq, u0: SeriesTX | None = None) -> SeriesTXZ:
    """Right-hand side seen by the difference w = u - u0.

    Substitutes z -> z + jet(u0) into F and keeps only the terms with a
    jet factor, at F's caps, so the result vanishes identically at z = 0.
    u0 = None means no shift.  The jet of u0 takes m x-derivatives: a u0
    of t-order K from solve_formal has x-cap >= m when F's k_x >= m (K + 1).
    """
    F = eq.F
    if u0 is not None and not u0.is_zero():
        if u0.t_order() == 0:
            raise HypothesisViolated("base series must vanish at t = 0")
        if u0.k_x < eq.m:
            raise TruncationExhausted(
                f"need k_x >= {eq.m * (u0.k_t + 1)} on the right-hand side "
                f"to shift by a base solution of t-order {u0.k_t}, whose "
                f"x-cap {u0.k_x} is below m = {eq.m} (have {F.k_x})")
        F = F.shift_z(derivative_tuple(u0))
    return SeriesTXZ(F.n, F.k_t, F.k_x,
                     {key: c for key, c in F.terms.items() if key[2]})


class Decomposition(NamedTuple):
    """Shifted right-hand side over the factored-operator jet basis.

    theta_rhs = beta0*d[0,0] + beta1*d[1,0] + t*sum a[k]*d[k]
                + sum b[k]*d[k] + sum c[(k1,k2)]*d[k1]*d[k2]
    with beta0(0) = beta1(0) = 0, b coefficients vanishing at d = 0, and
    c coefficients depending only on the second-order jet slots.
    """

    beta0: SeriesTX
    beta1: SeriesTX
    a: dict
    b: dict
    c: dict
    theta_rhs: SeriesTXZ


def reconstruct(dec: Decomposition) -> SeriesTXZ:
    """Recombine the split coefficients at theta_rhs's caps: the terms of
    beta0 z00, beta1 z10, t a[h] z_h, b[h] z_h and c[(za, zb)] za zb add
    into one dict.  verify_barrier compares the result with theta_rhs."""
    G = dec.theta_rhs
    zeros = (0,) * G.n
    parts = [(0, ((ZKey(i, zeros), 1),),
              {(k, a, ()): c for (k, a), c in beta.terms.items()})
             for i, beta in enumerate((dec.beta0, dec.beta1))]
    parts += [(1, ((h, 1),), s.terms) for h, s in dec.a.items()]
    parts += [(0, ((h, 1),), s.terms) for h, s in dec.b.items()]
    parts += [(0, ((za, 1), (zb, 1)), s.terms)
              for (za, zb), s in dec.c.items()]
    out: dict[tuple, CRat] = {}
    for shift, hosts, terms in parts:
        for (k, alpha, nu), c in terms.items():
            key = (k + shift, alpha, _norm_nu(nu + hosts))
            acc = out.get(key)
            out[key] = c if acc is None else acc + c
    return SeriesTXZ(G.n, G.k_t, G.k_x, out)


def normal_form(H: SeriesTXZ, cd: CharData) -> Decomposition:
    """Pass to the factored-operator basis and split the coefficients.

    (a) substitutes z[1, alpha] = d[1, alpha] + lam1 * z[0, alpha];
    (b) recentres the two linear x-series at their origin values;
    (c) splits every remaining monomial t^j x^gamma d^nu deterministically:
        j >= 1 feeds the a-coefficient of the graded-lex-smallest jet
        factor; j = 0 with a factor of derivative order <= 1 feeds the
        b-coefficient of the smallest such factor; j = 0 on second-order
        factors only feeds the c-coefficient of the smallest pair, the
        leftover factors folded into that coefficient.
    That the split recombines to theta_rhs is checked by verify_barrier.
    """
    if cd.roots_exact is None:
        raise InexactRoots(
            "exponents are not exact complex rationals; the basis change "
            "cannot be carried out in exact arithmetic")
    lam1, lam2 = cd.roots_exact
    n = H.n
    kt, kx = H.k_t, H.k_x
    zeros = (0,) * n
    keys = lambda_keys(n)

    def zvar(zk):
        return SeriesTXZ.z_var(n, kt, kx, zk)

    mapping = {zk: [(CRat(1), zk), (lam1, ZKey(0, zk.alpha))]
               for zk in keys if zk.i == 1}
    G = H.substitute_z_linear(mapping)
    # the left side picks up lower-order terms under the factorisation
    G = G - zvar(ZKey(1, zeros)).scale(lam1 + lam2) \
          - zvar(ZKey(0, zeros)).scale(lam1 * lam1)

    beta0, beta1 = (b - SeriesTX.const(b.n, b.k_t, b.k_x, b.coeff(0, zeros))
                    for b in cd.betas)
    beta0 = beta0 + beta1.scale(lam1)
    if not all(b.coeff(0, zeros).is_zero() for b in (beta0, beta1)):
        raise AssertionError("internal error: beta origins are not zero")

    # R = G - beta0 z00 - beta1 z10, in G's term order
    R = dict(G.terms)
    for i, beta in enumerate((beta0, beta1)):
        for (k, alpha), c in beta.scale(-1).terms.items():
            key = (k, alpha, ((ZKey(i, zeros), 1),))
            R[key] = R[key] + c if key in R else c

    a_terms: dict[ZKey, dict] = {}
    b_terms: dict[ZKey, dict] = {}
    c_terms: dict[tuple, dict] = {}

    def put(store, host, key, coeff):
        bucket = store.setdefault(host, {})
        acc = bucket.get(key)
        bucket[key] = coeff if acc is None else acc + coeff

    for (k, alpha, nu), coeff in SeriesTXZ(n, kt, kx, R).terms.items():
        if not nu:
            raise UnsplittableTerm(
                "jet-free term survives the linear extraction; the spectral "
                "data does not match this right-hand side")
        if k >= 1:
            host = min((zk for zk, _ in nu), key=_zkey_sort)
            put(a_terms, host, (k - 1, alpha, _nu_drop(nu, host)), coeff)
            continue
        if _nu_degree(nu) == 1:
            raise UnsplittableTerm(
                f"t-free term linear in the single jet variable {nu[0][0]}; "
                "the shifted right-hand side is corrupted")
        low = [zk for zk, _ in nu if sum(zk.alpha) <= 1]
        if low:
            host = min(low, key=_zkey_sort)
            put(b_terms, host, (0, alpha, _nu_drop(nu, host)), coeff)
        else:
            flat = []
            for zk, p in nu:
                flat.extend([zk] * p)
            flat.sort(key=_zkey_sort)
            za, zb = flat[0], flat[1]
            put(c_terms, (za, zb), (0, alpha, _nu_drop(nu, za, zb)), coeff)

    a = {h: SeriesTXZ(n, kt, kx, tt) for h, tt in a_terms.items()}
    b = {h: SeriesTXZ(n, 0, kx, tt) for h, tt in b_terms.items()}
    c = {pr: SeriesTXZ(n, 0, kx, tt) for pr, tt in c_terms.items()}
    return Decomposition(beta0=beta0, beta1=beta1, a=a, b=b, c=c, theta_rhs=G)


class ProfileFamily(NamedTuple):
    """Comparison profiles of one test function, indexed by (i, j):
    (0,0) and (1,0) are weighted time integrals of the factored-derivative
    norms, the rest are their rho-derivatives."""

    w: SeriesTX
    slots: dict


def profile_family(w: SeriesTX, cd: CharData) -> ProfileFamily:
    """Build the five comparison profiles for a test function w.

    w must vanish at t = 0.  Every exponent needs strictly negative real
    part (otherwise the weighted integrals diverge), and the exponents must
    be exact so the factored derivatives stay in exact arithmetic.  That
    the profiles dominate the jets of w is checked by verify_barrier.
    """
    if cd.roots_exact is None:
        raise InexactRoots("profiles need exact exponents")
    a1, a2 = cd.neg_re_lower
    if not w.is_zero() and w.t_order() == 0:
        raise HypothesisViolated("test function must vanish at t = 0")
    lam1, lam2 = cd.roots_exact

    th1 = w.euler_t() - w.scale(lam1)
    th2 = th1.euler_t() - th1.scale(lam2)
    p00 = norm_x(th1).integral_transform(a1)
    p10 = norm_x(th2).integral_transform(a2)
    p01 = p00.d_rho()
    p11 = p10.d_rho()
    p02 = p01.d_rho()
    slots = {(0, 0): p00, (1, 0): p10, (0, 1): p01, (1, 1): p11, (0, 2): p02}
    return ProfileFamily(w=w, slots=slots)


def _undominated_jet(w: SeriesTX, slots: dict):
    """The first jet key zk of w whose d^alpha w has a norm above slot
    (i, |alpha|) with headroom, or None when every slot dominates."""
    for zk, g in derivative_tuple(w).items():
        if not norm_x(g).leq(slots[(zk.i, sum(zk.alpha))].scale(_HEADROOM)):
            return zk
    return None


class BarrierParams(NamedTuple):
    """Weights of the barrier combination and the working box."""

    eps00: Frac
    eps01: Frac
    eps11: Frac
    kappa: Frac
    h: Frac
    sigma0: Frac
    R0: Frac

    def eps_slot(self, i: int, j: int) -> Frac:
        return {(0, 0): self.eps00, (1, 0): _EPS10,
                (0, 1): self.eps01, (1, 1): self.eps11}[(i, j)]


def barrier_grid(sigma0: float, R0: float, nt: int,
                 nrho: int) -> tuple[list, list]:
    """Deterministic verification grid: nt log-spaced t values ending at
    sigma0 and spanning four decades, nrho linear rho values in [0, R0].
    Corner (sigma0, R0) is always on the grid."""
    if nt < 1 or nrho < 1:
        raise InputError("grid needs at least one point per axis")
    ts = [sigma0 * 10.0 ** (-_DECADES * j / (nt - 1)) for j in range(nt)] \
        if nt > 1 else [sigma0]
    rhos = [R0 * k / (nrho - 1) for k in range(nrho)] if nrho > 1 else [R0]
    return ts, rhos


def choose_params(cd: CharData,
                  system: BarrierSystem) -> tuple[BarrierParams, dict]:
    """Select the barrier weights and a working box for system.

    Four steps: eps00 = h/4; eps11 halved from 1 until the slope term of
    the two linear x-series fits under h/4 at the initial radius 1; kappa
    and eps01 fixed by kappa = min(1/4, h*eps11/8), eps01 = eps11*(h/4 -
    kappa); finally the unit box is halved (the side whose halving lowers
    the corner value more) until the growth bound is at most h at the
    corner, which by monotonicity covers the whole box.  Reads system's beta
    norms and growth bound.  Returns the params and a small grid
    certificate of that last fact.
    """
    h = decay_margin(cd)
    eps00 = h / 4

    eps11 = sig = R = Frac(1)
    slope = system.dbeta0.eval_frac(R) / eps00 + system.dbeta1.eval_frac(R)
    n_eps = 0
    while eps11 * slope > h / 4:
        if n_eps >= _MAX_HALVINGS:
            raise SearchExhausted(
                f"slope term still above h/4 after {_MAX_HALVINGS} halvings "
                f"of the second-derivative weight")
        eps11 /= 2
        n_eps += 1

    kappa = min(Frac(1, 4), h * eps11 / 8)
    eps01 = eps11 * (h / 4 - kappa)
    if not (eps01 > 0 and kappa + eps01 / eps11 <= h / 4):
        raise AssertionError("internal error: weights break kappa + "
                             "eps01/eps11 <= h/4")

    params = BarrierParams(eps00=eps00, eps01=eps01, eps11=eps11, kappa=kappa,
                           h=h, sigma0=sig, R0=R)
    hf = float(h)
    n_box = 0
    # sig and R stay powers of two, so float(sig / 2) == float(sig) / 2 and
    # the chosen half's value is the next corner value
    a = system.growth_bound(params, float(sig), float(R))
    while a > hf:
        if n_box >= _MAX_HALVINGS:
            raise SearchExhausted(
                f"growth bound {a!r} > h = {hf!r} persists after "
                f"{_MAX_HALVINGS} box halvings")
        a_s = system.growth_bound(params, float(sig) / 2, float(R))
        a_r = system.growth_bound(params, float(sig), float(R) / 2)
        if a_s <= a_r:
            sig, a = sig / 2, a_s
        else:
            R, a = R / 2, a_r
        n_box += 1

    params = params._replace(sigma0=sig, R0=R)
    ts, rhos = barrier_grid(float(sig), float(R), *_PARAMS_GRID)
    mx = max([0.0, *(a for *_, A, _ in system.grid(params, ts, rhos)
                     for a in A)])
    cert = {
        "h": hf,
        "max_growth_bound": mx,
        "ok": mx <= hf,
        "grid": {"nt": _PARAMS_GRID[0], "nrho": _PARAMS_GRID[1],
                 "sigma0": float(sig), "R0": float(R)},
        "halvings": {"eps11": n_eps, "box": n_box},
    }
    return params, cert


class BarrierSystem:
    """The barrier q, its derivatives, and the majorant coefficients A and
    B of the differential inequality: the majorants, packs, beta norms and
    plan of one decomposition and profile family, with the weights and box
    an argument.  grid is their one kernel: it takes them at every point
    of a tensor grid, one t row at a time as columns over the rhos, and
    barrier, growth_bound, transport_rate and flow_point read one point of
    it, on a 1 x 1 grid."""

    def __init__(self, dec: Decomposition, profiles: ProfileFamily):
        self.dec, self.profiles = dec, profiles
        self.keys = lambda_keys(dec.theta_rhs.n)

        sl = profiles.slots
        self.p = dict(sl)
        self.d11 = sl[(1, 1)].d_rho()
        self.d02 = sl[(0, 2)].d_rho()
        self.e = {ij: sl[ij].euler() for ij in _SLOTS}
        # the twelve majorants the barrier reads: slots, d11, d02, images
        self.sectors = [*map(sl.get, _SLOTS), self.d11, self.d02,
                        *self.e.values()]
        # phi of key zk is slot (i, |alpha|); dphi is the slot after it in
        # the family, past its end d11 and d02
        self._phi = [(zk, _SLOTS.index((zk.i, sum(zk.alpha))))
                     for zk in self.keys]
        self._dphi = [(zk, s + 2) for zk, s in self._phi]

        def pack(s):
            prof = norm_xz(s)
            dz = ((zk, prof.dz(zk)) for zk in self.keys)
            return (prof, prof.d_rho(),
                    tuple((zk, g) for zk, g in dz if not g.is_zero()))

        # coefficient families in the order every evaluator sums them: a on
        # first-order hosts ("a1"), then on second-order ones ("a2"; so
        # (1,(1,)) precedes (0,(2,)), unlike in lambda_keys), b, c.  A host
        # of a1 or b is weighted by its slot's eps
        self.low = [zk for zk in self.keys if sum(zk.alpha) <= 1]
        fams = ([("a1", zk, dec.a[zk]) for zk in self.low if zk in dec.a]
                + [("a2", zk, dec.a[zk]) for zk in self.keys
                   if zk in dec.a and zk not in self.low]
                + [("b", zk, dec.b[zk]) for zk in self.low if zk in dec.b]
                + [("c", pr, s) for pr, s in dec.c.items()])
        self.kinds = [(kind, host) for kind, host, _ in fams]
        self.packs = [pack(s) for *_, s in fams]
        self.nbeta0 = norm_x(dec.beta0).slice(0)
        self.nbeta1 = norm_x(dec.beta1).slice(0)
        self.dbeta0 = self.nbeta0.d_rho()
        self.dbeta1 = self.nbeta1.d_rho()
        self.betas = (self.nbeta0, self.nbeta1, self.dbeta0, self.dbeta1)

        # the kernel's plan.  A column evaluates every rho-polynomial the
        # grid reads in one Horner pass in rho: the sectors' t-slices level
        # by level, highest power first and () above a sector's top; the
        # four betas; the terms of each pack, of its rho-derivative and of
        # its nonzero jet derivatives.  A level reads 22 columns of the
        # pass: the twelve sectors, phi for A, phi for B.  Per pack, in sum
        # order: the terms a row sums for its profiles (with A's phi) and
        # for the pack again (with B's), and the sector of dphi for each jet
        # derivative.  A term is (t-power, ((column, power), ...), index of
        # its rho-polynomial in the pass)
        levels = [m.horner() for m in self.sectors]
        top = max(1, *map(len, levels))
        cols = list(range(12)) + 2 * [s for _, s in self._phi]
        polys, self._levels = [], []
        for j in range(top):
            level = [lv[j - top + len(lv)] if j >= top - len(lv) else ()
                     for lv in levels]
            # a level below the top where every slice is empty is zero
            keep = not j or any(level)
            self._levels.append([len(polys) + i for i in cols] if keep
                                else None)
            polys += level if keep else []
        self._nb = len(polys)
        polys += [b.horner() for b in self.betas]
        nk, dphi = len(self.keys), dict(self._dphi)
        at = {zk: 12 + j for j, zk in enumerate(self.keys)}
        self._plan = []
        for prof, dr, dz in self.packs:
            segs = []
            for f in (prof, dr, *(g for _, g in dz)):
                terms = f.horner_terms()
                segs.append(tuple((k, tuple((at[zk], p) for zk, p in nu),
                                   len(polys) + j)
                                  for j, (k, _, nu) in enumerate(terms)))
                polys += [cs for _, cs, _ in terms]
            segs.append(tuple((k, tuple((i + nk, p) for i, p in nu), j)
                              for k, nu, j in segs[0]))
            self._plan.append((segs, tuple(dphi[zk] for zk, _ in dz)))
        # coefficient rows of the pass, zero-padded on top
        deg = max(1, *map(len, polys))
        self._row0, *self._rows = zip(*((0.0,) * (deg - len(cs)) + cs
                                        for cs in polys))
        self._kmax = max((k for segs, _ in self._plan for seg in segs
                          for k, _, _ in seg), default=0)

    def phi_values(self, t: float, rho: float) -> dict:
        return {zk: self.sectors[s].eval(t, rho) for zk, s in self._phi}

    def barrier(self, P: BarrierParams, t: float, rho: float) -> float:
        return next(self.grid(P, [t], [rho]))[2][0]

    def growth_bound(self, P: BarrierParams, t: float, rho: float) -> float:
        """Multiplier of q in the differential inequality.  Reads the
        weights of P only; the box enters through where it gets evaluated."""
        return next(self.grid(P, [t], [rho]))[6][0]

    def transport_rate(self, P: BarrierParams, t: float, rho: float) -> float:
        """Multiplier of the rho-derivative of q under the weights of P;
        also the speed of the domain-shrinking flow."""
        return next(self.grid(P, [t], [rho]))[7][0]

    def flow_point(self, P: BarrierParams, t: float,
                   rho: float) -> tuple[float, float]:
        """(B, q) at one point under P: the speed of the domain-shrinking
        flow and the barrier it samples, from one 1 x 1 grid."""
        _, _, q, _, _, _, _, B = next(self.grid(P, [t], [rho]))
        return B[0], q[0]

    def grid(self, P: BarrierParams, ts: list, rhos: list):
        """Yield one row (t, tk, q, dq, tdq, v, A, B) per t, in the order
        of ts (tk = t**kappa): q, dq, tdq, A and B are lists over rhos, and
        v is the twelve sector values, one tuple over rhos per sector.
        Each value is bit for bit Horner on each majorant alone.  A rho
        column runs the one Horner pass in rho of the plan, and a call
        turns its values into rows over rhos, one per polynomial.  A t row
        then does each float operation of a point as one comprehension over
        its rhos: the outer Horner passes in t of the sectors and of phi
        for A and for B, q, dq and t dq/dt, and per pack A's value and
        slope and B's value, in the order a point sums them, with no call.
        A and B each evaluate phi and the packs; work counts that.  A call
        converts the weights of P to floats once, and never reads its
        box."""
        e00, e01, e11, kf = map(float, (P.eps00, P.eps01, P.eps11, P.kappa))
        wc, sq_b, plan = 4.0 * e11 / 3.0, 1.5 / e11, []
        # per pack in sum order: kind, the eps of its host for a1 and b and
        # e11 over it, and the pack's part of the plan
        for (kind, host), part in zip(self.kinds, self._plan):
            wt = float(P.eps_slot(host.i, sum(host.alpha))) \
                if kind in ("a1", "b") else None
            plan.append((kind, wt, None if wt is None else e11 / wt, *part))
        nr, columns = len(rhos), []
        if not nr:
            return
        for rho in rhos:
            # 0.0 * rho + c is c, and a zero on top changes no value (finite
            # rho): bit for bit Horner on each polynomial alone
            vals = self._row0
            for row in self._rows:
                vals = [a * rho + c for a, c in zip(vals, row)]
            columns.append(vals)
        # T[i]: polynomial i of the pass at each rho
        T = list(zip(*columns))
        # Horner levels in t, highest first, each flat over the 22 columns
        # with rho fastest: starting at the leading level changes no value
        # (finite t, c >= 0), and a * t + 0.0 is a * t (a * t >= +0.0), so
        # a level below the lead is None where it is zero at every rho
        lead, *rest = [None if idx is None else [x for i in idx for x in T[i]]
                       for idx in self._levels]
        levels = [lv if lv and any(lv) else None for lv in rest]
        nb0, nb1, db0, db1 = T[self._nb:self._nb + 4]
        # A starts from the first term in rho alone and adds the other
        # three after the packs' values
        r0 = [e00 + (a / e00 + b) for a, b in zip(nb0, nb1)]
        r1 = kf + e01 / e11
        r2 = [e11 * (a / e00 + b) for a, b in zip(db0, db1)]
        r3 = [e11 * (a / e01 + b / e11) for a, b in zip(nb0, nb1)]
        zero = [0.0] * nr
        for t in ts:
            tk, t1k = t ** kf, t ** (1.0 - kf)
            tp = [t ** k for k in range(self._kmax + 1)]
            vals = lead
            for lv in levels:
                vals = ([a * t for a in vals] if lv is None
                        else [a * t + c for a, c in zip(vals, lv)])
            v = list(zip(*[iter(vals)] * nr))
            v00, v10, v01, v11, v02, dv11, dv02, e00v, e10v, e01v, e11v, \
                e02v = v[:12]
            sq02 = list(map(math.sqrt, v02))
            q = [e00 * a + b + tk * c + e01 * d + e11 * e + c ** 1.5
                 for a, b, c, d, e in zip(v00, v10, v02, v01, v11)]
            dq = [e00 * a + b + tk * c + e01 * d + e11 * e + 1.5 * s * c
                  for a, b, c, d, e, s in zip(v01, v11, dv02, v02, dv11,
                                               sq02)]
            tdq = [e00 * a + b + tk * (kf * c + d) + e01 * e + e11 * f
                   + 1.5 * s * d for a, b, c, d, e, f, s
                   in zip(e00v, e10v, v02, e02v, e01v, e11v, sq02)]
            A, B, slopes = r0, [tk / e11] * nr, []
            for kind, eps, we, segs, dphi in plan:
                # per pack the factor of its value in A (a divisor for b)
                # and of its slope in A and its value in B; c's are per point
                m1, m2 = ((t / eps, we * t) if kind == "a1" else
                          (t1k, e11 * t1k) if kind == "a2" else (eps, we))
                # A's value, its slope's parts, B's value
                outs = []
                for seg in segs:
                    acc = zero
                    for k, nu, j in seg:
                        us, tpk = T[j], tp[k]
                        if nu:
                            # u * t**k, times each factor in turn, then added
                            (i, p), *more = nu
                            us = [u * tpk * x ** p for u, x in zip(us, v[i])]
                            for i, p in more:
                                us = [u * x ** p for u, x in zip(us, v[i])]
                            acc = [a + u for a, u in zip(acc, us)]
                        else:
                            acc = [a + u * tpk for a, u in zip(acc, us)]
                    outs.append(acc)
                x, s, *chain, xb = outs
                for g, d in zip(chain, dphi):
                    s = [a + b * c for a, b, c in zip(s, g, v[d])]
                if kind == "c":
                    A = [a + b * c for a, b, c in zip(A, x, sq02)]
                    slopes.append([e11 * a * b for a, b in zip(s, sq02)])
                    B = [a + wc * b * c for a, b, c in zip(B, xb, sq02)]
                else:
                    A = ([a + b / m1 for a, b in zip(A, x)] if kind == "b"
                         else [a + m1 * b for a, b in zip(A, x)])
                    slopes.append([m2 * a for a in s])
                    B = [a + m2 * b for a, b in zip(B, xb)]
            A = [a + r1 + b + c for a, b, c in zip(A, r2, r3)]
            for y in slopes:
                A = [a + b for a, b in zip(A, y)]
            B = [a + sq_b * b for a, b in zip(B, sq02)]
            yield t, tk, q, dq, tdq, v[:12], A, B

    def work(self, nt: int, nrho: int) -> dict:
        """What grid on nt * nrho points and one constants() call evaluate:
        at each point A and B evaluate phi and the packs, and A the packs'
        slopes; constants() evaluates phi once and every pack but b's."""
        return {"phi_evals": 2 * nt * nrho + 1,
                "coefficient_evals": 3 * len(self.packs) * nt * nrho
                + sum(kind != "b" for kind, _ in self.kinds)}

    # -- envelope constants --------------------------------------------

    def constants(self, P: BarrierParams) -> dict:
        """Envelope constants for the transport rate under P, evaluated at
        its box corner (valid on the box by monotonicity): linear bounds for
        the two x-series, one linear bound per t-free coefficient, and the
        four constants of the t^kappa / q / q^(2/3) / q^(1/3) envelope."""
        sig, R = float(P.sigma0), float(P.R0)
        e11, kf = float(P.eps11), float(P.kappa)
        eps = {zk: float(P.eps_slot(zk.i, sum(zk.alpha))) for zk in self.low}
        phiv = self.phi_values(sig, R)
        L = 2.0 * max(phiv.values(), default=0.0)

        H0 = self.nbeta0.eval_frac(P.R0) / P.R0 if P.R0 > 0 else Frac(0)
        H1 = self.nbeta1.eval_frac(P.R0) / P.R0 if P.R0 > 0 else Frac(0)

        K1, K2, K3, b_linear = 1.0 / e11, 0.0, 1.5 / e11, {}
        for (kind, zk), pk in zip(self.kinds, self.packs):
            if kind == "b":
                b_lin = float(pk[0].z_linear_bound(P.R0, Frac(L)))
                b_linear[f"{zk.i},{','.join(map(str, zk.alpha))}"] = b_lin
                K2 += e11 / eps[zk] * b_lin
                continue
            x = pk[0].eval(sig, R, phiv)
            if kind == "c":
                K3 += (4.0 * e11 / 3.0) * x
            elif kind == "a1":
                K1 += e11 / eps[zk] * sig ** (1.0 - kf) * x
            else:
                K1 += e11 * sig ** (1.0 - 2.0 * kf) * x

        return {
            "H0": float(H0), "H1": float(H1), "L": L, "b_linear": b_linear,
            "K1": K1, "K2": K2, "K3": K3,
            "C1": K1, "C2": K2 * sum(1.0 / wt for wt in eps.values()),
            "C3": K2 * (len(self.keys) - len(self.low)),
            "C4": K3,
        }


def verify_barrier(system: BarrierSystem, params: BarrierParams, nt: int,
                   nrho: int) -> dict:
    """Grid verification report of system under params.

    Pointwise checks, under params, on an nt-by-nrho grid of its box:
      barrier_dineq       (t d/dt + 2h) q <= A q + B dq/drho
      growth_bound_le_h   A <= h
      phi_vs_q            each profile under its share of q
      dphi_vs_dq          same for the rho-derivatives
      envelope            B under the four-constant envelope
    plus three exact structural checks, decided here and nowhere else:
    reconstruction, jet domination, profile step.  Violations never raise.
    The grid is a tensor product, evaluated by system.grid one t row at a
    time; the checks read a row's lists point by point, through one zip.
    Each of the 15 checks per point tests lhs > rhs inline and calls its
    family's _Check only then, which applies the rule lhs > allowed(rhs);
    checked is nt*nrho times 1, 1, 6, 6 and 1.  A nan compares false and
    passes, as in record.
    """
    P, dec, profiles = params, system.dec, system.profiles
    hf, e00, e01, e11 = map(float, (P.h, P.eps00, P.eps01, P.eps11))
    consts = system.constants(P)
    C1, C2, C3, C4 = (consts[c] for c in ("C1", "C2", "C3", "C4"))
    ts, rhos = barrier_grid(float(P.sigma0), float(P.R0), nt, nrho)

    checks = {name: _Check() for name in ("barrier_dineq", "growth_bound_le_h",
                                          "phi_vs_q", "dphi_vs_dq", "envelope")}
    dineq, gb, pv, dpv, env = (chk.record for chk in checks.values())
    qmax = 0.0
    for t, tk, qs, dqs, tdqs, v, As, Bs in system.grid(P, ts, rhos):
        for rho, q, dq, tdq, A, B, v0, v1, v2, v3, v4, v5, v6 in zip(
                rhos, qs, dqs, tdqs, As, Bs, *v[:7]):
            if q > qmax:
                qmax = q
            lhs, rhs = tdq + 2.0 * hf * q, A * q + B * dq
            if lhs > rhs:
                dineq(lhs, rhs, t, rho)
            if A > hf:
                gb(A, hf, t, rho)
            # each slot under its share of q (eps10 = 1), then likewise the
            # rho-derivatives: slot (i, j + 1) is two places after (i, j)
            q23 = q ** (2.0 / 3.0)
            if v0 > q / e00:
                pv(v0, q / e00, t, rho)
            if v1 > q:
                pv(v1, q, t, rho)
            if v2 > q / e01:
                pv(v2, q / e01, t, rho)
            if v3 > q / e11:
                pv(v3, q / e11, t, rho)
            if v4 > q23:
                pv(v4, q23, t, rho)
            if tk * v4 > q:
                pv(tk * v4, q, t, rho)
            if v2 > dq / e00:
                dpv(v2, dq / e00, t, rho)
            if v3 > dq:
                dpv(v3, dq, t, rho)
            if v4 > dq / e01:
                dpv(v4, dq / e01, t, rho)
            if v5 > dq / e11:
                dpv(v5, dq / e11, t, rho)
            lhs = math.sqrt(v4) * v6
            if lhs > (2.0 / 3.0) * dq:
                dpv(lhs, (2.0 / 3.0) * dq, t, rho)
            if tk * v6 > dq:
                dpv(tk * v6, dq, t, rho)
            rhs = C1 * tk + C2 * q + C3 * q23 + C4 * q ** (1.0 / 3.0)
            if B > rhs:
                env(B, rhs, t, rho)
    for chk, per_point in zip(checks.values(), (1, 1, 6, 6, 1)):
        chk.checked = per_point * nt * nrho

    # exact structural checks
    recon_ok = reconstruct(dec) == dec.theta_rhs
    dom_ok = _undominated_jet(profiles.w, profiles.slots) is None
    p00, p10 = profiles.slots[(0, 0)], profiles.slots[(1, 0)]
    step = p00.euler() + p00.scale(2 * P.h)
    step_ok = step.leq(p10.scale(_HEADROOM))

    report = {
        "grid": {"nt": nt, "nrho": nrho, "decades": _DECADES,
                 "sigma0": float(P.sigma0), "R0": float(P.R0)},
        "params": {
            "eps00": str(P.eps00), "eps01": str(P.eps01),
            "eps11": str(P.eps11), "eps10": str(_EPS10),
            "kappa": str(P.kappa), "h": str(P.h),
            "sigma0": str(P.sigma0), "R0": str(P.R0),
        },
        "constants": consts,
        "r_sup": 1.05 * qmax,
        "checks": {
            "reconstruction": {"ok": recon_ok},
            "profile_domination": {"ok": dom_ok},
            "profile_step": {"ok": step_ok},
            **{name: chk.report() for name, chk in checks.items()},
        },
        "work": {"grid_points": nt * nrho, **system.work(nt, nrho)},
    }
    report["ok"] = all(c["ok"] for c in report["checks"].values())
    return report
