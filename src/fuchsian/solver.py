"""Recursive construction of the formal solution.

Writing u = sum_{k>=1} u_k(x) t^k, applying (t d/dt)^m to u and matching
the t^k coefficient against the right-hand side evaluated on the partial
sum gives, order by order,

    P_k(x) u_k(x) = G_k(x),

where P_k(x) = k^m - sum_i beta*_i(x) k^i is a unit x-series whenever its
value at x = 0 is nonzero (positive-integer non-resonance), and G_k is the
t^k coefficient of F(t, x, jet of u_1 t + ... + u_{k-1} t^{k-1}).

G_k is computed on-line (relaxed), one t-coefficient per step, as in van
der Hoeven, "Relax, but don't be too lazy", J. Symbolic Comput. 34 (2002).
The jet value z_e = sum_j j^i d^alpha u_j t^j of each key e = (i, alpha)
is cached coefficient by coefficient as soon as u_j is known.  Every jet
value vanishes at t = 0, so for a jet monomial Z^nu of degree d >= 2, with
nu = nu' + e,

    [t^s] Z^nu = sum_{j=1}^{s-d+1} [t^{s-j}] Z^nu' * [t^j] z_e

involves u_1 .. u_{s-1} only, and step k appends [t^k] to the coefficient
list of every product F needs.  A term c t^a x^beta Z^nu of F then adds
c x^beta [t^{k-a}] Z^nu to G_k.  Linear terms with a = 0 would need u_k
itself; they are the indicial part and enter through P_k instead.  Every
step is exact rational arithmetic.

Truncation budget: each jet evaluation consumes up to m orders of x-cap,
once per step, so producing x-degree x_order at t-order K needs the
right-hand side to carry k_x >= x_order + m*K and k_t >= K.  Step k works
at x-cap k_x - k*a, with a the largest spatial order among the jet keys F
uses, which is what full re-substitution of the partial sum would keep.

Verification re-substitutes the result into F with the full expansion of
SeriesTXZ.substitute_z, an algorithm independent of the construction, and
insists the residual vanishes identically.  It only covers x-degrees up to
u.k_x - a, the cap left after the construction minus one more jet
evaluation; with the default x_order and a = m that is x-degree
x_order - m, which is x-degree 0 for x_order = m.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import perm

from .equation import FuchsianEquation
from .errors import A2Violation, IndicialZero, TruncationExhausted
from .rational import CRat
from .series import SeriesTX, SeriesTXZ, ZKey


def derivative_tuple(u: SeriesTX, keys) -> dict[ZKey, SeriesTX]:
    """Jet of u on the given keys: alpha spatial derivatives, then i Euler
    derivatives (the two commute)."""
    out: dict[ZKey, SeriesTX] = {}
    by_alpha: dict[tuple, SeriesTX] = {}
    for zk in keys:
        d = by_alpha.get(zk.alpha)
        if d is None:
            d = u.dx_multi(zk.alpha)
            by_alpha[zk.alpha] = d
        for _ in range(zk.i):
            d = d.euler_t()
        out[zk] = d
    return out


@dataclass(frozen=True)
class FormalSolution:
    """Result of the order-by-order construction.

    verified means the re-substitution residual vanished on x-degrees up
    to the construction's final x-cap minus one jet evaluation (see the
    module docstring), not on every x-degree up to x_order."""

    u: SeriesTX
    order: int
    x_order: int
    indicial: dict          # step k -> exact indicial value at x = 0
    verified: bool


# t-free x-series are plain dicts alpha -> nonzero CRat inside this module


def _mul_add(out: dict, f: dict, g: dict, cap: int) -> None:
    """out += f * g, keeping total x-degrees <= cap."""
    g_items = [(a, c, sum(a)) for a, c in g.items()]
    for a1, c1 in f.items():
        room = cap - sum(a1)
        for a2, c2, d2 in g_items:
            if d2 > room:
                continue
            alpha = tuple(p + q for p, q in zip(a1, a2))
            c = c1 * c2
            acc = out.get(alpha)
            out[alpha] = c if acc is None else acc + c


def _jet_coeff(uk: dict, zk: ZKey, k: int) -> dict:
    """k^i d^alpha u_k: the t^k coefficient of z[i, alpha] from u_k."""
    out = {}
    for a, c in uk.items():
        if any(p < q for p, q in zip(a, zk.alpha)):
            continue
        f = k ** zk.i
        for p, q in zip(a, zk.alpha):
            f *= perm(p, q)
        out[tuple(p - q for p, q in zip(a, zk.alpha))] = c if f == 1 else c * f
    return out


def solve_formal(eq: FuchsianEquation, order: int, x_order: int | None = None,
                 verify: bool = True) -> FormalSolution:
    """Unique formal solution with u(0, x) = 0, through t-order `order` and
    x-degree `x_order`."""
    if order < 1:
        raise ValueError("order must be at least 1")
    if x_order is not None and x_order < 0:
        raise ValueError("x_order must be at least 0")
    F = eq.F
    if F.k_t < order:
        raise TruncationExhausted(
            f"right-hand side tracks t-order {F.k_t} < requested {order}")
    budget = eq.m * order
    if x_order is None:
        x_order = max(F.k_x - budget, 0)
    if F.k_x < x_order + budget:
        raise TruncationExhausted(
            f"need k_x >= {x_order + budget} on the right-hand side for "
            f"x-degree {x_order} at t-order {order} (have {F.k_x})")

    n = eq.n
    used = sorted(F.jet_keys_used())
    # x-cap lost per step: one jet evaluation of the partial sum
    a_used = max((sum(zk.alpha) for zk in used), default=0)
    # F's terms grouped by jet monomial, flattened to a tuple of jet keys
    # with repetition; every prefix of length >= 2 is a product to extend
    groups: dict[tuple, list] = {}
    for (a, beta, nu), c in F.terms.items():
        flat = tuple(zk for zk, p in nu for _ in range(p))
        groups.setdefault(flat, []).append((a, beta, sum(beta), c))
    products = sorted({flat[:d] for flat in groups
                       for d in range(2, len(flat) + 1)}, key=len)
    # coefficient lists indexed by t-power; index 0 is the zero at t = 0
    jets: dict[ZKey, list] = {zk: [{}] for zk in used}
    powers: dict[tuple, list] = {p: [{}] for p in products}
    u_coeffs: list[dict] = [{}]
    indicial: dict[int, CRat] = {}
    for k in range(1, order + 1):
        kx = F.k_x - k * a_used
        if F.z_clipped:
            _check_clipped(F, used, jets, k, order, kx + a_used)
        for p in products:
            head = powers[p[:-1]] if len(p) > 2 else jets[p[0]]
            tail = jets[p[-1]]
            acc: dict = {}
            for j in range(1, k - len(p) + 2):
                _mul_add(acc, head[k - j], tail[j], kx)
            powers[p].append({a: c for a, c in acc.items() if not c.is_zero()})

        G: dict = {}
        for flat, group in groups.items():
            d = len(flat)
            for a, beta, bdeg, c in group:
                s = k - a
                if d == 0:
                    if s == 0 and bdeg <= kx:
                        acc = G.get(beta)
                        G[beta] = c if acc is None else acc + c
                    continue
                # a linear term at a = 0 sees u_k, still zero: indicial part
                if s < d or (d == 1 and s == k):
                    continue
                src = jets[flat[0]][s] if d == 1 else powers[flat][s]
                _mul_add(G, {beta: c}, src, kx)
        section = SeriesTX(n, 0, kx, {(0, a): c for a, c in G.items()})

        Pk = eq.indicial_series(k)
        p0 = Pk.coeff(0, (0,) * n)
        indicial[k] = p0
        if p0.is_zero():
            raise IndicialZero(
                f"indicial polynomial vanishes at s = {k}; the recursion "
                f"cannot be solved at this order")
        Pk = Pk.truncate(k_x=kx)
        uk = {a: c for (_, a), c in (Pk.invert_unit() * section).terms.items()}
        u_coeffs.append(uk)
        for zk in used:
            jets[zk].append(_jet_coeff(uk, zk, k))

    u = SeriesTX(n, order, F.k_x - order * a_used,
                 {(k, a): c for k, uk in enumerate(u_coeffs)
                  for a, c in uk.items()})
    verified = False
    # re-substitution needs m more x-derivatives than construction did, so
    # it only runs when that much budget is left over
    if verify and u.k_x >= eq.m:
        res = residual(eq, u, order)
        assert res.is_zero(), (
            "internal error: formal solution leaves a nonzero residual")
        verified = True
    return FormalSolution(u=u.truncate(k_x=x_order), order=order,
                          x_order=x_order, indicial=indicial, verified=verified)


def _check_clipped(F: SeriesTXZ, used: list, jets: dict, k: int, order: int,
                   u_cap: int) -> None:
    """Raise when F's dropped z-degrees could reach t^k.

    Terms above z-degree k_z are gone, so the substitution is reliable only
    to t-order (k_z + 1) * ord_min - 1, where ord_min is the least t-order
    among the used jet values of the partial sum, each read at the x-cap
    u_cap - |alpha| that u_1 .. u_{k-1} carry into step k."""
    live = (j for j in range(1, k)
            if any(sum(a) <= u_cap - sum(zk.alpha)
                   for zk in used for a in jets[zk][j]))
    ord_min = next(live, None)
    if ord_min is None:
        return
    kt = min(order, (F.k_z + 1) * ord_min - 1)
    if kt < k:
        raise TruncationExhausted(
            f"substitution reliable only to t-order {kt} < {k}")


def residual(eq: FuchsianEquation, u: SeriesTX, K: int) -> SeriesTX:
    """(t d/dt)^2 u - F(jet of u), truncated at t-order K."""
    lhs = u.euler_t().euler_t()
    rhs = eq.F.substitute_z(derivative_tuple(u, eq.keys))
    return (lhs - rhs).truncate(k_t=K)


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
