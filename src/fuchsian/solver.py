"""Recursive construction of the formal solution.

Writing u = sum_{k>=1} u_k(x) t^k and matching t^k coefficients of
(t d/dt)^2 u = F(t, x, jet of u) gives, order by order,

    P_k(x) u_k(x) = G_k(x),

where P_k(x) = k^2 - sum_i beta*_i(x) k^i is a unit x-series whenever its
value at x = 0 is nonzero (positive-integer non-resonance), and G_k is the
t^k coefficient of F(t, x, jet of u_1 t + ... + u_{k-1} t^{k-1}).

G_k is computed on-line (relaxed), one t-coefficient per step, as in van
der Hoeven, "Relax, but don't be too lazy", J. Symbolic Comput. 34 (2002).
The t^j coefficient j^i d^alpha u_j of each jet value z_e, e = (i, alpha),
is cached once u_j is known.  A jet monomial of degree >= 2 is split once
as Z^nu = Z^p z_e, e the factor fewest other monomials share (then the
least ZKey).  F's terms c t^a x^beta Z^nu with one p form the linear form
L_p[j] = sum c x^beta [t^(j-a)] z_e, and G_k gains sum_{j=1}^{k-|p|}
[t^(k-j)] Z^p * L_p[j]: monomials sharing p share one Cauchy product, which
needs only u_1 .. u_{k-1} as jets vanish at t = 0.  Z^p, |p| >= 2, is a
prefix product extended by one entry per step.  A linear term adds
c x^beta [t^(k-a)] z_e; at a = 0 it would see u_k: it is in P_k.

Cached coefficients, product entries and F's coefficients are integer
numerators, real and imaginary, over one positive denominator: the content
and primitive-part form of Geddes, Czapor & Labahn, "Algorithms for
Computer Algebra" (1992).  Monomials are packed exponent vectors with the
total degree on top (Monagan & Pearce, CASC 2007): a term product adds two
ints with no carry, and one compare tests the x-cap.  A produced
coefficient, a [t^k] entry, L_p[j] or G_k, is one sum of products: an lcm
of the pair denominators, integer multiply-adds, then a single gcd over
the result.  P_k is one such sum, and u_k a triangular division by the
unit P_k (van der Hoeven, section 4): no step multiplies CRat values.
The check reads these integer sections as they are, and u is converted
to CRat once, at the caps it is returned with.

Truncation budget: each step's jet evaluation costs up to 2 orders of
x-cap, so x-degree x_order at t-order K needs k_x >= x_order + 2K and
k_t >= K.  Step k works at x-cap k_x - k*a, with a the largest spatial
order among the jet keys F uses, as full re-substitution would.

Verification re-substitutes the finished u into F and insists the residual
(t d/dt)^2 u - F(jet of u) vanishes, one t-order at a time, at the caps
residual() below has.  It shares the construction's two kernels and
nothing else: _sections_vanish takes u's t^k sections u_k, cut at the
final x-cap k_x - K a, recomputes their jets with _jet_coeffs, builds each
prefix of a jet monomial as one _cauchy product per t-order, and sums the
t^k coefficient of the residual as one _cauchy sum over F's terms and
-k^2 u_k, with no Z^p L_p split and no division.  It covers x-degrees up
to that cap minus one more jet evaluation: x-degree x_order - 2 for the
default x_order, a = 2.  _residual_vanishes is its front for a SeriesTX u;
residual() is the CRat form of the same check, kept as the tests' oracle.
"""

from __future__ import annotations

from collections import Counter
from math import gcd, lcm, perm, prod
from typing import NamedTuple

from .equation import FuchsianEquation
from .errors import IndicialZero, TruncationExhausted
from .rational import CRat, Frac
from .series import SeriesTX, ZKey, lambda_keys


def derivative_tuple(u: SeriesTX) -> dict[ZKey, SeriesTX]:
    """Jet of u on lambda_keys(u.n): alpha spatial derivatives, then i
    Euler derivatives (the two commute)."""
    out: dict[ZKey, SeriesTX] = {}
    by_alpha: dict[tuple, SeriesTX] = {}
    for zk in lambda_keys(u.n):
        d = by_alpha.get(zk.alpha)
        if d is None:
            d = u.dx_multi(zk.alpha)
            by_alpha[zk.alpha] = d
        for _ in range(zk.i):
            d = d.euler_t()
        out[zk] = d
    return out


class FormalSolution(NamedTuple):
    """Result of the order-by-order construction.

    u carries the requested orders as its caps: u.k_t is the t-order and
    u.k_x the x-degree, and it holds the constructed u_k's terms up to
    x-degree u.k_x alone.  verified means the residual of the
    re-substituted u vanished on x-degrees up to the construction's final
    x-cap minus one jet evaluation (see the module docstring), not on every
    x-degree up to u.k_x."""

    u: SeriesTX
    verified: bool


# Inside this module a t-free x-series is a pair (den, {key: (re, im)}):
# integer numerators over one positive denominator, zero entries dropped,
# keys ascending.  x^alpha has key |alpha| B^n + alpha_0 B^(n-1) + ... +
# alpha_(n-1), B one more than any x-degree a solve or check meets.  Under
# an x-cap c < B no field passes c, so keys add with no carry: x^a x^b has
# key a + b, past c exactly when a + b >= (c + 1) B^n, and int order is
# (degree, lex) order, _alpha_key's.


def _pack(alpha: tuple, B: int) -> int:
    return sum(a * B ** i for i, a in enumerate([*alpha[::-1], sum(alpha)]))


def _unpack(key: int, n: int, B: int) -> tuple:
    return tuple(key // B ** i % B for i in range(n - 1, -1, -1))


def _from_crat(c: dict, B: int) -> tuple:
    """(den, numerators) form of a dict alpha -> CRat, packed in base B."""
    den = lcm(*(f.denominator for z in c.values() for f in (z.re, z.im)))
    return den, dict(sorted(
        (_pack(a, B), (z.re.numerator * (den // z.re.denominator),
                       z.im.numerator * (den // z.im.denominator)))
        for a, z in c.items()))


def _cauchy(pairs: list, lim: int) -> tuple:
    """sum of f * g over the (f, g) pairs on the keys below lim (x-cap c:
    lim = (c + 1) B^n), reduced by one gcd over the denominator and every
    numerator; an empty side adds nothing, and the scans of f and of g stop
    at lim (keys ascend)."""
    pairs = [(f, g) for f, g in pairs if f[1] and g[1]]
    den = lcm(*(f[0] * g[0] for f, g in pairs))
    re: dict = {}
    im: dict = {}
    for (df, f), (dg, g) in pairs:
        s = den // (df * dg)
        for k1, (r1, i1) in f.items():
            room = lim - k1
            if room <= 0:
                break
            r1, i1 = r1 * s, i1 * s
            for k2, (r2, i2) in g.items():
                if k2 >= room:
                    break
                k = k1 + k2
                re[k] = re.get(k, 0) + r1 * r2 - i1 * i2
                im[k] = im.get(k, 0) + r1 * i2 + i1 * r2
    g = gcd(den, *re.values(), *im.values())
    return den // g, {k: (re[k] // g, im[k] // g)
                      for k in sorted(re) if re[k] or im[k]}


def _jet_coeffs(uk: tuple, used: list, k: int, n: int, B: int) -> dict:
    """k^i d^alpha u_k, the t^k coefficient of each used z[i, alpha], from
    one d^alpha u_k per distinct alpha (perm(p, q) = 0 when p < q, and
    0^i = 0: at k = 0 only the keys with i = 0 are nonzero); d^alpha x^a
    has key a - _pack(alpha)."""
    den, num = uk
    terms = [(_unpack(a, n, B), a, re, im) for a, (re, im) in num.items()]
    by_alpha = {}
    for al in {zk.alpha for zk in used}:
        s = _pack(al, B)
        by_alpha[al] = {a - s: (re * f, im * f) for d, a, re, im in terms
                        if (f := prod(map(perm, d, al)))}
    out = {}
    for zk in used:
        f, d = k ** zk.i, by_alpha[zk.alpha]
        out[zk] = den, (d if f == 1 else {a: (re * f, im * f)
                                          for a, (re, im) in d.items() if f})
    return out


def _divide_unit(P: tuple, G: tuple, lim: int) -> tuple:
    """u with P u = G on the keys below lim, P[0] != 0: by total degree, on
    the monomials reached from G's support by adding those of P's tail,
    u[alpha] = (G[alpha] - sum_{beta != 0} P[beta] u[alpha - beta]) / P[0].
    1 / P[0] = c / N, c = conj(P[0]) and N = |P[0]|^2 (c = +-1, N = |P[0]|
    if P[0] is real); u[alpha] is held over gden N^e, e one more than the
    largest it reads, until one gcd reduces u over gden N^max(e)."""
    (pden, p), (gden, g) = P, G
    pr, pi = p[0]
    cr, ci, N = ((pr, -pi, pr * pr + pi * pi) if pi
                 else (1 if pr > 0 else -1, 0, abs(pr)))
    tail = [(b, r, i) for b, (r, i) in p.items() if b]
    reach = set(g)
    todo = list(g)
    while todo:
        a = todo.pop()
        for b, _, _ in tail:
            c = a + b
            if c < lim and c not in reach:
                reach.add(c)
                todo.append(c)
    # a - b is a key of w only where b divides a: if c = a - b is a key,
    # |c| + |b| <= |a| < B by the top fields, so c + b adds with no carry
    w: dict = {}
    for a in sorted(reach):
        hits = [(r, i, w[a - b]) for b, r, i in tail if a - b in w]
        e = max((we for _, _, (_, _, we) in hits), default=0)
        sr, si = (v * pden * N ** e for v in g.get(a, (0, 0)))
        for r, i, (wr, wi, we) in hits:
            f = N ** (e - we)
            sr -= (r * wr - i * wi) * f
            si -= (r * wi + i * wr) * f
        if sr or si:
            w[a] = (sr * cr - si * ci, sr * ci + si * cr, e + 1)
    E = max((e for _, _, e in w.values()), default=0)
    w = {a: (r * N ** (E - e), i * N ** (E - e)) for a, (r, i, e) in w.items()}
    h = gcd(gden * N ** E, *(v for ri in w.values() for v in ri))
    return gden * N ** E // h, {a: (r // h, i // h) for a, (r, i) in w.items()}


def solve_formal(eq: FuchsianEquation, order: int, x_order: int | None = None,
                 verify: bool = True) -> FormalSolution:
    """Unique formal solution with u(0, x) = 0, through t-order `order` >= 1
    and x-degree `x_order` >= 0; the CLI checks both."""
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
    B = F.k_x + 1
    # coefficient lists indexed by t-power; index 0 is the zero at t = 0
    zero, unit = (1, {}), (1, {0: (1, 0)})
    # F's terms of jet degree <= 1 as (a, c, flat), flat the jet keys; the
    # others split as Z^nu = Z^p z_e and grouped by p into the terms of L_p
    share = Counter(zk for nu in {nu for _, _, nu in F.terms}
                    if sum(p for _, p in nu) > 1 for zk, _ in nu)
    low, forms = [], {}
    for (a, beta, nu), c in F.terms.items():
        c = _from_crat({beta: c}, B)
        flat = [zk for zk, p in nu for _ in range(p)]
        if len(flat) < 2:
            low.append((a, c, flat))
            continue
        e = min((zk for zk, _ in nu), key=lambda zk: (share[zk], zk))
        flat.remove(e)
        forms.setdefault(tuple(flat), ([], [zero]))[0].append((a, c, e))
    # every prefix of length >= 2 of a p is a product to extend
    products = sorted({p[:d] for p in forms for d in range(2, len(p) + 1)},
                      key=len)
    jets: dict[ZKey, list] = {zk: [zero] for zk in used}
    powers: dict[tuple, list] = {p: [zero] for p in products}
    u_coeffs: list[tuple] = [zero]
    for k in range(1, order + 1):
        kx = F.k_x - k * a_used
        lim = (kx + 1) * B ** n
        for p in products:
            head = powers[p[:-1]] if len(p) > 2 else jets[p[0]]
            tail = jets[p[-1]]
            powers[p].append(_cauchy(
                [(head[k - j], tail[j]) for j in range(1, k - len(p) + 2)],
                lim))

        # a linear term at a = 0 would see u_k itself: it is indicial, and
        # P_k = k^2 - k beta*_1 - beta*_0 gathers these terms
        P, pairs = [(unit, (1, {0: (k * k, 0)}))], []
        for a, c, flat in low:
            if not flat and a == k:
                pairs.append((c, unit))
            elif flat and a == 0:
                P.append((c, (1, {0: (-k ** flat[0].i, 0)})))
            elif flat and a < k:
                pairs.append((c, jets[flat[0]][k - a]))
        # L_p[k - |p|] is first read now, at the largest x-cap it needs
        for p, (terms, L) in forms.items():
            top = k - len(p)
            if top > 0:
                L.append(_cauchy([(c, jets[e][top - a]) for a, c, e in terms
                                  if top > a], lim))
            Zp = powers[p] if len(p) > 1 else jets[p[0]]
            pairs += [(Zp[k - j], L[j]) for j in range(1, top + 1)]
        P = _cauchy(P, lim)
        if 0 not in P[1]:
            raise IndicialZero(
                f"indicial polynomial vanishes at s = {k}; the recursion "
                f"cannot be solved at this order")
        uk = _divide_unit(P, _cauchy(pairs, lim), lim)
        u_coeffs.append(uk)
        for zk, z in _jet_coeffs(uk, used, k, n, B).items():
            jets[zk].append(z)

    verified = False
    # re-substitution needs m more x-derivatives than construction did, so
    # it only runs when that much budget is left over; it reads u_k below
    # the final x-cap, as a u built at that cap would hold
    kx = F.k_x - order * a_used
    if verify and kx >= eq.m:
        lim = (kx + 1) * B ** n
        if not _sections_vanish(eq, [(den, {a: c for a, c in uk.items()
                                            if a < lim})
                                     for den, uk in u_coeffs], kx, B):
            raise AssertionError(
                "internal error: formal solution leaves a nonzero residual")
        verified = True
    lim = (x_order + 1) * B ** n
    u = SeriesTX(n, order, x_order,
                 {(k, _unpack(a, n, B)): CRat(Frac(re, den), Frac(im, den))
                  for k, (den, uk) in enumerate(u_coeffs)
                  for a, (re, im) in uk.items() if a < lim})
    return FormalSolution(u=u, verified=verified)


def _valuation(z: list) -> int:
    """Index of the first non-empty section of z, len(z) if none is."""
    return next((k for k, (_, num) in enumerate(z) if num), len(z))


def _residual_vanishes(eq: FuchsianEquation, u: SeriesTX, K: int) -> bool:
    """residual(eq, u, K).is_zero(): u's t^k sections u_k, up to t-order
    min(F.k_t, u.k_t, K), packed for _sections_vanish."""
    kt = min(eq.F.k_t, u.k_t, K)
    B = max(eq.F.k_x, u.k_x) + 1
    split: list[dict] = [{} for _ in range(kt + 1)]
    for (j, a), c in u.terms.items():
        if j <= kt:
            split[j][a] = c
    return _sections_vanish(eq, [_from_crat(s, B) for s in split], u.k_x, B)


def _sections_vanish(eq: FuchsianEquation, sections: list, k_x: int,
                     B: int) -> bool:
    """Whether the residual of u vanishes, one t-order at a time on u's t^k
    sections u_k (packed in base B > max(F.k_x, k_x), k up to the t-cap
    len(sections) - 1 <= F.k_t; k_x is u's x-cap): the t^k coefficient of
    F(jet of u) - (t d/dt)^2 u is one _cauchy sum of c x^beta [t^(k-a)]
    Z^nu over F's terms and of -k^2 u_k.  The x-cap is residual's,
    min(F.k_x, k_x, k_x - |alpha|) over the jet keys F uses.  Products and
    sums start at the first t-order where both sides can be nonzero."""
    F, n = eq.F, eq.n
    used = F.jet_keys_used()
    kt = len(sections) - 1
    kx = min([F.k_x, k_x] + [k_x - sum(zk.alpha) for zk in used])
    lim = (kx + 1) * B ** n
    jets: dict[ZKey, list] = {zk: [] for zk in used}
    for k, uk in enumerate(sections):
        for zk, z in _jet_coeffs(uk, used, k, n, B).items():
            jets[zk].append(z)
    # F's terms inside the caps as (valuation, a, c, Z^nu by t-order); each
    # prefix of a flattened nu is multiplied once
    products = {(): [(1, {0: (1, 0)})] + [(1, {})] * kt,
                **{(zk,): z for zk, z in jets.items()}}
    rows = []
    for (a, beta, nu), c in F.terms.items():
        if a > kt or sum(beta) > kx:
            continue
        flat = tuple(zk for zk, p in nu for _ in range(p))
        for d in range(2, len(flat) + 1):
            if flat[:d] not in products:
                head, tail = products[flat[:d - 1]], jets[flat[d - 1]]
                vh, vt = _valuation(head), _valuation(tail)
                products[flat[:d]] = [(1, {})] * (vh + vt) + [
                    _cauchy([(head[j], tail[k - j])
                             for j in range(vh, k - vt + 1)], lim)
                    for k in range(vh + vt, kt + 1)]
        Z = products[flat]
        rows.append((a + _valuation(Z), a, _from_crat({beta: c}, B), Z))
    start = min([v for v, _, _, _ in rows] + [_valuation(sections)])
    return not any(_cauchy([(c, Z[k - a]) for v, a, c, Z in rows if v <= k]
                           + [((1, {0: (-k * k, 0)}), sections[k])],
                           lim)[1] for k in range(start, kt + 1))


def residual(eq: FuchsianEquation, u: SeriesTX, K: int) -> SeriesTX:
    """(t d/dt)^2 u - F(jet of u), truncated at t-order K."""
    lhs = u.euler_t().euler_t()
    rhs = eq.F.substitute_z(derivative_tuple(u))
    return (lhs - rhs).truncate(k_t=K)

