"""Barrier machinery for order-two instances.

Pipeline: shift the equation by a candidate base solution, rewrite the
shifted right-hand side over the factored Euler operators, build integral
comparison profiles for a test function w, select the weight parameters,
and verify the resulting differential inequality pointwise on a grid.

Everything up to grid evaluation is exact rational arithmetic.  The grid
runs in floats, on coefficient families that BarrierSystem compiles once.
Each pointwise check, like the path checks in characteristics.py, is a
float comparison against characteristics.allowed(rhs), the one tolerance
rule; violations are reported, never absorbed, and a pass is not a proof.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .characteristics import allowed
from .equation import CharData
from .errors import (
    HypothesisViolated,
    InexactRoots,
    InputError,
    NonpositiveExponent,
    SearchExhausted,
    UnsplittableTerm,
)
from .majorant import norm_x, norm_xz
from .rational import CRat, Frac
from .series import SeriesTX, SeriesTXZ, ZKey, _nu_degree, _zkey_sort, lambda_keys
from .solver import derivative_tuple

# rational headroom matching the directed-root bias in rational.py: exact
# domination can be off by at most one part in 2**48 of enclosure rounding
_HEADROOM = Frac((1 << 48) + 1, 1 << 48)

# slot indices of the profile family
_SLOTS = ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2))

# weight of slot (1, 0) in the barrier, which is normalised on it
_EPS10 = Frac(1)

# decades of t in every verification grid; halvings allowed per search of
# choose_params, and the grid that checks its box
_DECADES, _MAX_HALVINGS, _PARAMS_GRID = 4.0, 60, (12, 12)


def _lift_tx(f: SeriesTX, k_t: int, k_x: int, k_z: int) -> SeriesTXZ:
    """Embed a jet-free series with explicit caps.  SeriesTXZ.from_tx keeps
    the (often tighter) caps of f, which min-join poisons; this does not."""
    return SeriesTXZ(f.n, k_t, k_x, k_z,
                     {(k, a, ()): c for (k, a), c in f.terms.items()})


def _recap(s: SeriesTXZ, k_t: int, k_x: int, k_z: int) -> SeriesTXZ:
    return SeriesTXZ(s.n, k_t, k_x, k_z, s.terms, z_clipped=s.z_clipped)


def _nu_drop(nu: tuple, *gone: ZKey) -> tuple:
    counts = dict(nu)
    for zk in gone:
        counts[zk] -= 1
        if counts[zk] < 0:
            raise ValueError("dropping a jet factor that is not there")
    return tuple((zk, counts[zk]) for zk, _ in nu if counts[zk] > 0)


def build_shifted_rhs(eq, u0: SeriesTX | None = None) -> SeriesTXZ:
    """Right-hand side seen by the difference w = u - u0.

    Substitutes z -> z + jet(u0) into F and removes the jet-free part, so
    the result vanishes identically at z = 0.  u0 = None means no shift.
    """
    F = eq.F
    if u0 is not None and not u0.is_zero():
        if u0.t_order() == 0:
            raise HypothesisViolated("base series must vanish at t = 0")
        F = F.shift_z(derivative_tuple(u0))
    zfree = F.z_free_part()
    H = F - _lift_tx(zfree, F.k_t, F.k_x, F.k_z)
    assert H.z_free_part().is_zero()
    return H


class Decomposition(NamedTuple):
    """Shifted right-hand side over the factored-operator jet basis.

    theta_rhs = beta0*d[0,0] + beta1*d[1,0] + t*sum a[k]*d[k]
                + sum b[k]*d[k] + sum c[(k1,k2)]*d[k1]*d[k2]
    with beta0(0) = beta1(0) = 0, b coefficients vanishing at d = 0, and
    c coefficients depending only on the second-order jet slots.
    """

    lam1: CRat
    lam2: CRat
    beta0: SeriesTX
    beta1: SeriesTX
    a: dict
    b: dict
    c: dict
    theta_rhs: SeriesTXZ


def reconstruct(dec: Decomposition) -> SeriesTXZ:
    """Recombine the split coefficients; equals theta_rhs exactly."""
    G = dec.theta_rhs
    n, kt, kx, kz = G.n, G.k_t, G.k_x, G.k_z
    zeros = (0,) * n

    def zvar(zk):
        return SeriesTXZ.z_var(n, kt, kx, kz, zk)

    acc = _lift_tx(dec.beta0, kt, kx, kz) * zvar(ZKey(0, zeros))
    acc = acc + _lift_tx(dec.beta1, kt, kx, kz) * zvar(ZKey(1, zeros))
    tvar = SeriesTXZ(n, kt, kx, kz, {(1, zeros, ()): 1})
    for host in sorted(dec.a, key=_zkey_sort):
        acc = acc + tvar * _recap(dec.a[host], kt, kx, kz) * zvar(host)
    for host in sorted(dec.b, key=_zkey_sort):
        acc = acc + _recap(dec.b[host], kt, kx, kz) * zvar(host)
    for za, zb in sorted(dec.c, key=lambda p: (_zkey_sort(p[0]), _zkey_sort(p[1]))):
        acc = acc + _recap(dec.c[(za, zb)], kt, kx, kz) * zvar(za) * zvar(zb)
    return acc


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
    """
    if cd.roots_exact is None:
        raise InexactRoots(
            "exponents are not exact complex rationals; the basis change "
            "cannot be carried out in exact arithmetic")
    lam1, lam2 = cd.roots_exact
    n = H.n
    kt, kx, kz = H.k_t, H.k_x, H.k_z
    zeros = (0,) * n
    keys = lambda_keys(n)

    def zvar(zk):
        return SeriesTXZ.z_var(n, kt, kx, kz, zk)

    mapping = {zk: [(CRat(1), zk), (lam1, ZKey(0, zk.alpha))]
               for zk in keys if zk.i == 1}
    G = H.substitute_z_linear(mapping)
    # the left side picks up lower-order terms under the factorisation
    G = G - zvar(ZKey(1, zeros)).scale(lam1 + lam2) \
          - zvar(ZKey(0, zeros)).scale(lam1 * lam1)

    bst0, bst1 = cd.betas[0], cd.betas[1]
    beta1 = bst1 - bst1.coeff(0, zeros)
    beta0 = (bst0 - bst0.coeff(0, zeros)) + beta1.scale(lam1)
    assert beta0.coeff(0, zeros).is_zero() and beta1.coeff(0, zeros).is_zero()

    R = G - _lift_tx(beta0, kt, kx, kz) * zvar(ZKey(0, zeros)) \
          - _lift_tx(beta1, kt, kx, kz) * zvar(ZKey(1, zeros))

    a_terms: dict[ZKey, dict] = {}
    b_terms: dict[ZKey, dict] = {}
    c_terms: dict[tuple, dict] = {}

    def put(store, host, key, coeff):
        bucket = store.setdefault(host, {})
        acc = bucket.get(key)
        bucket[key] = coeff if acc is None else acc + coeff

    for (k, alpha, nu), coeff in R.terms.items():
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

    a = {h: SeriesTXZ(n, kt, kx, kz, tt) for h, tt in a_terms.items()}
    b = {h: SeriesTXZ(n, 0, kx, kz, tt) for h, tt in b_terms.items()}
    c = {pr: SeriesTXZ(n, 0, kx, kz, tt) for pr, tt in c_terms.items()}
    for s in b.values():
        assert s.z_free_part().is_zero()

    dec = Decomposition(lam1=lam1, lam2=lam2, beta0=beta0, beta1=beta1,
                        a=a, b=b, c=c, theta_rhs=G)
    assert reconstruct(dec) == G, "split coefficients fail to recombine"
    return dec


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
    be exact so the factored derivatives stay in exact arithmetic.  The
    jet-domination property is asserted coefficientwise before returning.
    """
    if cd.roots_exact is None:
        raise InexactRoots("profiles need exact exponents")
    a1, a2 = cd.neg_re_lower
    if a1 <= 0 or a2 <= 0:
        raise NonpositiveExponent(
            f"exponent real-part bounds ({a1}, {a2}) must both be positive; "
            "the decay hypothesis fails for this instance")
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

    jet = derivative_tuple(w)
    for zk, g in jet.items():
        dom = slots[(zk.i, sum(zk.alpha))].scale(_HEADROOM)
        assert norm_x(g).leq(dom), (
            f"profile ({zk.i}, {sum(zk.alpha)}) fails to dominate jet {zk}")
    return ProfileFamily(w=w, slots=slots)


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


def choose_params(cd: CharData, dec: Decomposition | None = None,
                  profiles: ProfileFamily | None = None
                  ) -> tuple[BarrierParams, dict]:
    """Select the barrier weights and a working box.

    Four steps: eps00 = h/4; eps11 halved from 1 until the slope term of
    the two linear x-series fits under h/4 at the initial radius 1; kappa
    and eps01 fixed by kappa = min(1/4, h*eps11/8), eps01 = eps11*(h/4 -
    kappa); finally the unit box is halved (the side whose halving lowers
    the corner value more) until the growth bound is at most h at the
    corner, which by monotonicity covers the whole box.  Returns the params
    and a small grid certificate of that last fact.
    """
    if cd is None or cd.h is None:
        raise HypothesisViolated(
            "no positive decay margin: some exponent has nonnegative real "
            "part, so the barrier construction does not apply")
    if dec is None or profiles is None:
        raise InputError("parameter selection needs a decomposition and a "
                         "profile family")
    h = cd.h
    eps00 = h / 4

    db0 = norm_x(dec.beta0).slice(0).d_rho()
    db1 = norm_x(dec.beta1).slice(0).d_rho()
    eps11 = sig = R = Frac(1)
    n_eps = 0
    while eps11 * (db0.eval_frac(R) / eps00 + db1.eval_frac(R)) > h / 4:
        if n_eps >= _MAX_HALVINGS:
            raise SearchExhausted(
                f"slope term still above h/4 after {_MAX_HALVINGS} halvings "
                f"of the second-derivative weight")
        eps11 /= 2
        n_eps += 1

    kappa = min(Frac(1, 4), h * eps11 / 8)
    eps01 = eps11 * (h / 4 - kappa)
    assert eps01 > 0 and kappa + eps01 / eps11 <= h / 4

    params = BarrierParams(eps00=eps00, eps01=eps01, eps11=eps11, kappa=kappa,
                           h=h, sigma0=sig, R0=R)
    # the growth bound reads only the weights, never the box, so one system
    # serves the whole box search
    system = BarrierSystem(dec, profiles, params)
    hf = float(h)
    n_box = 0
    # sig and R stay powers of two, so float(sig / 2) == float(sig) / 2 and
    # the chosen half's value is the next corner value
    a = system.growth_bound(float(sig), float(R))
    while a > hf:
        if n_box >= _MAX_HALVINGS:
            raise SearchExhausted(
                f"growth bound {a!r} > h = {hf!r} persists after "
                f"{_MAX_HALVINGS} box halvings")
        a_s = system.growth_bound(float(sig) / 2, float(R))
        a_r = system.growth_bound(float(sig), float(R) / 2)
        if a_s <= a_r:
            sig, a = sig / 2, a_s
        else:
            R, a = R / 2, a_r
        n_box += 1

    params = BarrierParams(eps00=eps00, eps01=eps01, eps11=eps11, kappa=kappa,
                           h=h, sigma0=sig, R0=R)
    ts, rhos = barrier_grid(float(sig), float(R), *_PARAMS_GRID)
    mx = 0.0
    for t in ts:
        for rho in rhos:
            mx = max(mx, system.growth_bound(t, rho))
    cert = {
        "h": hf,
        "max_growth_bound": mx,
        "ok": mx <= hf,
        "grid": {"nt": _PARAMS_GRID[0], "nrho": _PARAMS_GRID[1],
                 "sigma0": float(sig), "R0": float(R)},
        "halvings": {"eps11": n_eps, "box": n_box},
    }
    return params, cert


class _Check:
    """Accumulator for one pointwise inequality over the grid."""

    __slots__ = ("checked", "violations", "worst", "examples")

    def __init__(self):
        self.checked = 0
        self.violations = 0
        self.worst = 0.0
        self.examples = []

    def record(self, lhs: float, rhs: float, t: float, rho: float):
        self.checked += 1
        lim = allowed(rhs)
        if lhs > lim:
            self.violations += 1
            excess = lhs - lim
            if excess > self.worst:
                self.worst = excess
            if len(self.examples) < 5:
                self.examples.append({"t": t, "rho": rho,
                                      "lhs": lhs, "rhs": rhs})

    def report(self) -> dict:
        return {"ok": self.violations == 0, "checked": self.checked,
                "violations": self.violations, "worst_excess": self.worst,
                "examples": self.examples}


class BarrierSystem:
    """Pointwise evaluators built from a decomposition, a profile family
    and selected weights: the barrier q, its derivatives, and the two
    majorant coefficients of the differential inequality."""

    def __init__(self, dec: Decomposition, profiles: ProfileFamily,
                 params: BarrierParams):
        self.params = params
        self.keys = lambda_keys(dec.theta_rhs.n)
        # float weights for the grid, converted once
        self.e00, self.e01 = float(params.eps00), float(params.eps01)
        self.e11, self.kf = float(params.eps11), float(params.kappa)

        sl = profiles.slots
        self.p = dict(sl)
        self.d11 = sl[(1, 1)].d_rho()
        self.d02 = sl[(0, 2)].d_rho()
        self.e = {ij: sl[ij].euler() for ij in _SLOTS}

        self._slot_maj = {zk: sl[(zk.i, sum(zk.alpha))] for zk in self.keys}
        # the rho-derivative of slot (i, j) is slot (i, j + 1), past the
        # family's end d11 and d02
        nxt = {**sl, (1, 2): self.d11, (0, 3): self.d02}
        self._dslot_maj = {zk: nxt[(zk.i, sum(zk.alpha) + 1)]
                           for zk in self.keys}

        def pack(s):
            prof = norm_xz(s)
            dz = ((zk, prof.dz(zk)) for zk in self.keys)
            return (prof, prof.d_rho(),
                    tuple((zk, g) for zk, g in dz if not g.is_zero()))

        # coefficient families in the order every evaluator sums them: a on
        # first-order hosts, then on second-order ones (so (1,(1,)) precedes
        # (0,(2,)), unlike in lambda_keys), b with its host, c
        eps = {zk: float(params.eps_slot(zk.i, sum(zk.alpha)))
               for zk in self.keys if sum(zk.alpha) <= 1}
        self.a_low = [(pack(dec.a[zk]), wt) for zk, wt in eps.items()
                      if zk in dec.a]
        self.a_high = [pack(dec.a[zk]) for zk in self.keys
                       if zk in dec.a and zk not in eps]
        self.b_fam = [(zk, pack(dec.b[zk]), wt) for zk, wt in eps.items()
                      if zk in dec.b]
        self.c_fam = [pack(s) for s in dec.c.values()]
        self.inv_eps = sum(1.0 / wt for wt in eps.values())
        self.n_high = len(self.keys) - len(eps)
        self.nbeta0 = norm_x(dec.beta0).slice(0)
        self.nbeta1 = norm_x(dec.beta1).slice(0)
        self.dbeta0 = self.nbeta0.d_rho()
        self.dbeta1 = self.nbeta1.d_rho()
        self.work = {"phi_evals": 0, "coefficient_evals": 0}

    # -- profile values ------------------------------------------------

    def phi_values(self, t: float, rho: float) -> dict:
        self.work["phi_evals"] += 1
        return {zk: self._slot_maj[zk].eval(t, rho) for zk in self.keys}

    def dphi_values(self, t: float, rho: float) -> dict:
        return {zk: self._dslot_maj[zk].eval(t, rho) for zk in self.keys}

    def _comp(self, pack, t, rho, phiv) -> float:
        self.work["coefficient_evals"] += 1
        return pack[0].eval(t, rho, phiv)

    def _comp_drho(self, pack, t, rho, phiv, dphiv) -> float:
        """Total rho-derivative of a composed coefficient norm: the direct
        rho slope plus the chain through every profile slot."""
        self.work["coefficient_evals"] += 1
        _, dr, dz = pack
        v = dr.eval(t, rho, phiv)
        for zk, g in dz:
            v += g.eval(t, rho, phiv) * dphiv[zk]
        return v

    # -- barrier -----------------------------------------------------

    def barrier_jet(self, t: float, rho: float) -> tuple:
        """The barrier q, its rho-derivative, and t d/dt of it (by exact
        term calculus on each part), with the slot values v and the two
        second rho-derivatives they were built from:
        (q, dq, tdq, v, dv11, dv02)."""
        v = {ij: self.p[ij].eval(t, rho) for ij in _SLOTS}
        dv11 = self.d11.eval(t, rho)
        dv02 = self.d02.eval(t, rho)
        e = {ij: self.e[ij].eval(t, rho) for ij in _SLOTS}
        tk = t ** self.kf
        sq02 = math.sqrt(v[(0, 2)])
        q = (self.e00 * v[(0, 0)] + v[(1, 0)] + tk * v[(0, 2)]
             + self.e01 * v[(0, 1)] + self.e11 * v[(1, 1)]
             + v[(0, 2)] ** 1.5)
        dq = (self.e00 * v[(0, 1)] + v[(1, 1)] + tk * dv02
              + self.e01 * v[(0, 2)] + self.e11 * dv11
              + 1.5 * sq02 * dv02)
        tdq = (self.e00 * e[(0, 0)] + e[(1, 0)]
               + tk * (self.kf * v[(0, 2)] + e[(0, 2)])
               + self.e01 * e[(0, 1)] + self.e11 * e[(1, 1)]
               + 1.5 * sq02 * e[(0, 2)])
        return q, dq, tdq, v, dv11, dv02

    def barrier(self, t: float, rho: float) -> float:
        return self.barrier_jet(t, rho)[0]

    # -- the two majorant coefficients ---------------------------------

    def growth_bound(self, t: float, rho: float) -> float:
        """Multiplier of q in the differential inequality.  Reads the
        weights only; the box enters through where it gets evaluated."""
        e00, e01, e11 = self.e00, self.e01, self.e11
        phiv = self.phi_values(t, rho)
        dphiv = self.dphi_values(t, rho)
        sq02 = math.sqrt(self.p[(0, 2)].eval(t, rho))
        t1k = t ** (1.0 - self.kf)

        acc = e00
        acc += self.nbeta0.eval(rho) / e00 + self.nbeta1.eval(rho)
        for pk, eps in self.a_low:
            acc += t / eps * self._comp(pk, t, rho, phiv)
        for pk in self.a_high:
            acc += t1k * self._comp(pk, t, rho, phiv)
        for _, pk, eps in self.b_fam:
            acc += self._comp(pk, t, rho, phiv) / eps
        for pk in self.c_fam:
            acc += self._comp(pk, t, rho, phiv) * sq02
        acc += self.kf + e01 / e11
        acc += e11 * (self.dbeta0.eval(rho) / e00 + self.dbeta1.eval(rho))
        acc += e11 * (self.nbeta0.eval(rho) / e01 + self.nbeta1.eval(rho) / e11)
        for pk, eps in self.a_low:
            acc += e11 / eps * t * self._comp_drho(pk, t, rho, phiv, dphiv)
        for pk in self.a_high:
            acc += e11 * t1k * self._comp_drho(pk, t, rho, phiv, dphiv)
        for _, pk, eps in self.b_fam:
            acc += e11 / eps * self._comp_drho(pk, t, rho, phiv, dphiv)
        for pk in self.c_fam:
            acc += e11 * self._comp_drho(pk, t, rho, phiv, dphiv) * sq02
        return acc

    def transport_rate(self, t: float, rho: float) -> float:
        """Multiplier of the rho-derivative of q; also the speed of the
        domain-shrinking flow."""
        e11 = self.e11
        phiv = self.phi_values(t, rho)
        sq02 = math.sqrt(self.p[(0, 2)].eval(t, rho))
        tk = t ** self.kf
        t1k = t ** (1.0 - self.kf)

        acc = tk / e11
        for pk, eps in self.a_low:
            acc += e11 / eps * t * self._comp(pk, t, rho, phiv)
        for pk in self.a_high:
            acc += e11 * t1k * self._comp(pk, t, rho, phiv)
        for _, pk, eps in self.b_fam:
            acc += e11 / eps * self._comp(pk, t, rho, phiv)
        for pk in self.c_fam:
            acc += (4.0 * e11 / 3.0) * self._comp(pk, t, rho, phiv) * sq02
        acc += 1.5 / e11 * sq02
        return acc

    # -- envelope constants --------------------------------------------

    def constants(self) -> dict:
        """Envelope constants for the transport rate, evaluated at the box
        corner (valid on the box by monotonicity): linear bounds for the
        two x-series, one linear bound per t-free coefficient, and the
        four constants of the t^kappa / q / q^(2/3) / q^(1/3) envelope."""
        P = self.params
        sig, R = float(P.sigma0), float(P.R0)
        e11, kf = self.e11, self.kf
        phiv = self.phi_values(sig, R)
        L = 2.0 * max(phiv.values(), default=0.0)

        H0 = self.nbeta0.eval_frac(P.R0) / P.R0 if P.R0 > 0 else Frac(0)
        H1 = self.nbeta1.eval_frac(P.R0) / P.R0 if P.R0 > 0 else Frac(0)

        K1 = 1.0 / e11
        for pk, eps in self.a_low:
            K1 += e11 / eps * sig ** (1.0 - kf) * self._comp(pk, sig, R, phiv)
        for pk in self.a_high:
            K1 += e11 * sig ** (1.0 - 2.0 * kf) * self._comp(pk, sig, R, phiv)
        K2 = 0.0
        b_linear = {}
        for zk, pk, eps in self.b_fam:
            b_lin = float(pk[0].z_linear_bound(P.R0, Frac(L)))
            b_linear[f"{zk.i},{','.join(map(str, zk.alpha))}"] = b_lin
            K2 += e11 / eps * b_lin
        K3 = 1.5 / e11
        for pk in self.c_fam:
            K3 += (4.0 * e11 / 3.0) * self._comp(pk, sig, R, phiv)

        return {
            "H0": float(H0), "H1": float(H1), "L": L, "b_linear": b_linear,
            "K1": K1, "K2": K2, "K3": K3,
            "C1": K1, "C2": K2 * self.inv_eps, "C3": K2 * self.n_high,
            "C4": K3,
        }


def verify_barrier(params: BarrierParams, profiles: ProfileFamily,
                   dec: Decomposition, nt: int = 50, nrho: int = 50) -> dict:
    """Grid verification report.

    Pointwise checks on an nt-by-nrho grid of the working box:
      barrier_dineq       (t d/dt + 2h) q <= A q + B dq/drho
      growth_bound_le_h   A <= h
      phi_vs_q            each profile under its share of q
      dphi_vs_dq          same for the rho-derivatives
      envelope            B under the four-constant envelope
    plus three exact structural checks (reconstruction, jet domination,
    profile step inequality).  Violations are report entries, never raises.
    """
    system = BarrierSystem(dec, profiles, params)
    P = params
    hf, kf = float(P.h), float(P.kappa)
    e = {ij: float(P.eps_slot(*ij)) for ij in ((0, 0), (1, 0), (0, 1), (1, 1))}
    consts = system.constants()
    ts, rhos = barrier_grid(float(P.sigma0), float(P.R0), nt, nrho)

    names = ("barrier_dineq", "growth_bound_le_h", "phi_vs_q",
             "dphi_vs_dq", "envelope")
    checks = {name: _Check() for name in names}
    qmax = 0.0
    for t in ts:
        tk = t ** kf
        for rho in rhos:
            q, dq, tdq, v, dv11, dv02 = system.barrier_jet(t, rho)
            A = system.growth_bound(t, rho)
            B = system.transport_rate(t, rho)
            qmax = max(qmax, q)

            checks["barrier_dineq"].record(tdq + 2.0 * hf * q,
                                           A * q + B * dq, t, rho)
            checks["growth_bound_le_h"].record(A, hf, t, rho)

            pv = checks["phi_vs_q"]
            for ij in ((0, 0), (1, 0), (0, 1), (1, 1)):
                pv.record(v[ij], q / e[ij], t, rho)
            pv.record(v[(0, 2)], q ** (2.0 / 3.0), t, rho)
            pv.record(tk * v[(0, 2)], q, t, rho)

            dpv = checks["dphi_vs_dq"]
            dval = {(0, 0): v[(0, 1)], (1, 0): v[(1, 1)],
                    (0, 1): v[(0, 2)], (1, 1): dv11}
            for ij, val in dval.items():
                dpv.record(val, dq / e[ij], t, rho)
            dpv.record(math.sqrt(v[(0, 2)]) * dv02, (2.0 / 3.0) * dq, t, rho)
            dpv.record(tk * dv02, dq, t, rho)

            env = (consts["C1"] * tk + consts["C2"] * q
                   + consts["C3"] * q ** (2.0 / 3.0)
                   + consts["C4"] * q ** (1.0 / 3.0))
            checks["envelope"].record(B, env, t, rho)

    # exact structural checks
    recon_ok = reconstruct(dec) == dec.theta_rhs
    jet = derivative_tuple(profiles.w)
    dom_ok = all(
        norm_x(g).leq(profiles.slots[(zk.i, sum(zk.alpha))].scale(_HEADROOM))
        for zk, g in jet.items())
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
            **{name: checks[name].report() for name in names},
        },
        "work": {"grid_points": nt * nrho, **system.work},
    }
    report["ok"] = all(c["ok"] for c in report["checks"].values())
    return report
