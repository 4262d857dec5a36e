"""Backward integration of the domain-shrinking flow and its checks.

The flow is d(rho)/dt = -B(t, rho)/t with B the transport rate, run from
an anchor (t0, xi) down toward a floor time.  In s = log t the equation
reads d(rho)/ds = -B(e^s, rho), smooth on the whole range, so a standard
embedded Runge-Kutta 4(5) pair does the work.  The Cash-Karp pair is used
on purpose: its fifth-order weights are all nonnegative, which keeps rho
exactly nondecreasing as t decreases whenever B >= 0.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InputError, SearchExhausted

# Cash-Karp tableau
_A2 = (1 / 5,)
_A3 = (3 / 40, 9 / 40)
_A4 = (3 / 10, -9 / 10, 6 / 5)
_A5 = (-11 / 54, 5 / 2, -70 / 27, 35 / 27)
_A6 = (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096)
_B5 = (37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771)
_B4 = (2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4)

# relative slack of every float verdict in the path and grid checks
SLACK = 1e-9

# step budget of one flow run; anchor halvings of one smallness search
_MAX_STEPS, _MAX_HALVINGS = 200000, 400

# radii R of the decay profile, its log-spaced times per r and its points
# per circle |x| = R
_DECAY_RADII, _DECAY_NT, _DECAY_NX = (0.5, 0.25, 0.125, 0.0625), 64, 32


def allowed(rhs: float) -> float:
    """Largest float that passes a check against rhs.  The one tolerance
    rule of the float verdicts; they are comparisons, not proofs."""
    return rhs + SLACK * (1.0 + abs(rhs))


class _Check:
    """Counter for one inequality lhs <= allowed(rhs) over the grid or a
    path: checks, violations, the largest excess over allowed(rhs) and the
    first five failing points.  record counts each check it is given; the
    grid calls it only when lhs > rhs and sets checked from its size."""

    __slots__ = ("checked", "violations", "worst", "examples")

    def __init__(self):
        self.checked = 0
        self.violations = 0
        self.worst = 0.0
        self.examples = []

    def record(self, lhs: float, rhs: float, t: float, rho: float):
        self.checked += 1
        if lhs <= rhs:      # allowed(rhs) >= rhs; nan and inf go on
            return
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


class CharacteristicPath(NamedTuple):
    """Sampled path of the flow: ts strictly decreasing from the anchor
    time ts[0] to the last time reached ts[-1], rhos nondecreasing from the
    anchor radius rhos[0], qs the barrier sampled along the way."""

    ts: list
    rhos: list
    qs: list
    status: str  # "extended-to-floor" | "left-domain" | "step-failure"
    steps_accepted: int
    steps_rejected: int


def integrate(flow, t0: float, xi: float, r_max: float, t_floor: float,
              tol: float = 1e-10) -> CharacteristicPath:
    """Integrate the flow from (t0, xi) down to t_floor.

    flow(t, rho) returns (rate, q): the transport rate and the quantity
    sampled along the path.  Each distinct point is evaluated once: an
    accepted step's end point gives its sample q and the next step's first
    stage, and a rejected step keeps its first stage, so a run makes
    2 + 5 (accepted + rejected) + accepted calls, the first two at t0 and
    at exp(log t0).  Stops at the floor, on leaving rho >= r_max, or on
    step failure; the stop reason lands in the status field rather than an
    exception.
    """
    if not (0.0 < t_floor < t0):
        raise InputError("need 0 < t_floor < t0")
    if not (0.0 < xi < r_max):
        raise InputError("need 0 < xi < r_max")

    s = math.log(t0)
    s_end = math.log(t_floor)
    rho = float(xi)
    ts = [float(t0)]
    rhos = [rho]
    qs = [float(flow(t0, rho)[1])]

    def f(s_, r_):
        return -flow(math.exp(s_), r_)[0]

    k1 = f(s, rho)
    h = (s_end - s) / 64.0  # negative
    accepted = rejected = 0
    status = None
    while s > s_end + 1e-13 * max(1.0, abs(s_end)):
        if s + h < s_end:
            h = s_end - s
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
            rate, q = flow(t_here, rho)
            k1 = -rate
            ts.append(t_here)
            rhos.append(rho)
            qs.append(float(q))
            if rho >= r_max:
                status = "left-domain"
                break
        else:
            rejected += 1
        fac = 5.0 if err == 0.0 else 0.9 * (scale / err) ** 0.2
        h *= min(5.0, max(0.2, fac))
        if abs(h) < 1e-14 * max(1.0, abs(s)) or accepted + rejected > _MAX_STEPS:
            status = "step-failure"
            break
    if status is None:
        status = "extended-to-floor"
    return CharacteristicPath(ts=ts, rhos=rhos, qs=qs, status=status,
                              steps_accepted=accepted,
                              steps_rejected=rejected)


def check_weighted_decay(path: CharacteristicPath, h) -> dict:
    """Weighted decay along the path: t^h * q must not increase as t
    decreases through the samples.

    Also reports (without asserting) the pairwise two-point bound
    q(larger t) <= (smaller t / larger t)^h * q(smaller t) on a subsample;
    that bound needs the differential inequality to hold on the path, so
    for supplied test functions it is informational only.
    """
    hf = float(h)
    ts, rhos, qs = path.ts, path.rhos, path.qs
    vs = [t ** hf * q for t, q in zip(ts, qs)]
    step = _Check()
    for j in range(1, len(vs)):
        step.record(vs[j], vs[j - 1], ts[j], rhos[j])

    idx = list(range(len(vs)))
    if len(idx) > 40:
        stride = (len(idx) - 1) / 39.0
        idx = sorted({round(j * stride) for j in range(40)})
    pair = _Check()
    for a_ in range(len(idx)):
        for b_ in range(a_ + 1, len(idx)):
            j, l = idx[a_], idx[b_]  # t[j] > t[l]
            pair.record(qs[j], (ts[l] / ts[j]) ** hf * qs[l], ts[j], rhos[j])
    return {
        "ok": step.violations == 0,
        "checked": step.checked,
        "violations": step.violations,
        "worst_excess": step.worst,
        "weighted_first": vs[0] if vs else 0.0,
        "weighted_last": vs[-1] if vs else 0.0,
        "pair_bound": {"checked": pair.checked, "violations": pair.violations},
    }


def _radius_cap(consts: dict, h, r: float) -> float:
    """The t-independent part of the radius growth bound."""
    hf = float(h)
    return (consts["C2"] / hf * r
            + 1.5 * consts["C3"] / hf * r ** (2.0 / 3.0)
            + 3.0 * consts["C4"] / hf * r ** (1.0 / 3.0))


def check_radius_bounds(path: CharacteristicPath, consts: dict, kappa, h,
                        r: float) -> dict:
    """Two-sided radius bound at every sample: rho never drops below the
    anchor value, and never exceeds the anchor plus the integrated
    envelope of the transport rate.  worst_excess is the largest excess
    over the passing limit on either side."""
    kf = float(kappa)
    t0 = path.ts[0]
    xi = path.rhos[0]
    cap_rest = _radius_cap(consts, h, r)
    lower, upper = _Check(), _Check()
    for t, rho in zip(path.ts, path.rhos):
        lower.record(-rho, -xi, t, rho)
        bound = xi + consts["C1"] / kf * (t0 ** kf - t ** kf) + cap_rest
        upper.record(rho, bound, t, rho)
    return {
        "ok": lower.violations == 0 and upper.violations == 0,
        "checked": len(path.ts),
        "lower_violations": lower.violations,
        "upper_violations": upper.violations,
        "worst_excess": max(lower.worst, upper.worst),
    }


def smallness_box(consts: dict, h, kappa, R: float, q_corner,
                  sigma_max: float) -> tuple:
    """Shrink the anchor time until the total radius budget fits in R/2.

    q_corner(sigma) must return the supremum of the barrier on the box
    (0, sigma] x [0, R]; with monotone profiles that is the corner value.
    Seeds sigma so the t^kappa term alone takes R/4, then halves until the
    full budget (with r = 1.05 * q_corner) clears R/2.  Returns
    (sigma, r, info).
    """
    kf = float(kappa)
    C1 = consts["C1"]
    if C1 <= 0.0:
        sigma = float(sigma_max)
    else:
        sigma = min(float(sigma_max), (R * kf / (4.0 * C1)) ** (1.0 / kf))
    if sigma <= 0.0:
        raise SearchExhausted(
            "anchor time underflows: the t^kappa budget requires a time "
            "below the floating-point range")
    halvings = 0
    while True:
        r = 1.05 * q_corner(sigma)
        total = C1 / kf * sigma ** kf + _radius_cap(consts, h, r)
        if total < R / 2.0:
            return sigma, r, {"value": total, "budget": R / 2.0,
                              "sigma": sigma, "r": r, "halvings": halvings}
        if halvings >= _MAX_HALVINGS:
            raise SearchExhausted(
                f"radius budget {total!r} still above {R / 2.0!r} after "
                f"{_MAX_HALVINGS} anchor halvings")
        sigma /= 2.0
        halvings += 1
        if sigma == 0.0:
            raise SearchExhausted("anchor time underflowed to zero")


def check_reaches_origin(path: CharacteristicPath, R: float, consts: dict,
                         kappa, h, r: float) -> dict:
    """Full small-data conclusion on one path: the anchor radius is under
    R/2, the radius budget fits, the path reaches the floor inside the
    capped radius, and the terminal weighted bound is reported."""
    kf, hf = float(kappa), float(h)
    t0 = path.ts[0]
    xi = path.rhos[0]
    out: dict = {"xi": xi, "R": R, "status": path.status}
    if not xi < R / 2.0:
        out["ok"] = False
        out["reason"] = (f"anchor radius {xi!r} is not below R/2 = "
                         f"{R / 2.0!r}; the conclusion does not apply")
        return out
    small = C1_term = consts["C1"] / kf * t0 ** kf
    small += _radius_cap(consts, h, r)
    ok_small = small < R / 2.0
    R1 = xi + small
    rho_max = max(path.rhos)
    reached = path.status == "extended-to-floor"
    inside = rho_max <= allowed(R1)
    terminal_bound = (path.ts[-1] / t0) ** hf * r
    out.update({
        "smallness": {"value": small, "budget": R / 2.0, "ok": ok_small,
                      "anchor_term": C1_term},
        "R1": R1,
        "rho_max": rho_max,
        "reached_floor": reached,
        "inside_R1": inside,
        "terminal_bound": terminal_bound,
        "q_at_anchor": path.qs[0],
        "terminal_ok": path.qs[0] <= allowed(terminal_bound),
        "ok": ok_small and reached and inside and R1 < R,
    })
    return out


def decay_profile(u_eval, exponent_p: int, r_list=None) -> dict:
    """Scaled boundary suprema of a solution evaluator in one space
    variable near t = 0.

    u_eval(xs) is a function of t listing u(t, x) for the points x in xs
    (builtin.closed_form_eval).  For each pair (r, R): sup of |u(t, x)|
    over _DECAY_NT log-spaced times in (r/1e4, r] and _DECAY_NX points x on
    the circle |x| = R, divided by R^exponent_p.  Evaluator failures
    propagate.  Returns the table plus, per R, the inner-limit trend over
    shrinking r.
    """
    if r_list is None:
        r_list = [0.1 * 10.0 ** (-j) for j in range(5)]
    angles = [2.0 * math.pi * k / _DECAY_NX for k in range(_DECAY_NX)]
    rows = []
    for R in _DECAY_RADII:
        at = u_eval([R * complex(math.cos(a), math.sin(a)) for a in angles])
        for r in r_list:
            sup = 0.0
            for i in range(_DECAY_NT):
                t = r * 10.0 ** (-4.0 * i / (_DECAY_NT - 1))
                sup = max(sup, *map(abs, at(t)))
            rows.append({"r": r, "R": R,
                         "sup_scaled": sup / R ** exponent_p})
    inner = []
    for R in _DECAY_RADII:
        vals = [row["sup_scaled"] for row in rows if row["R"] == R]
        inner.append({"R": R, "limit_estimate": vals[-1],
                      "monotone_decreasing": all(
                          vals[j + 1] <= vals[j] * (1.0 + 1e-12)
                          for j in range(len(vals) - 1))})
    return {"exponent_p": exponent_p, "rows": rows, "inner_trend": inner,
            "outer_values": [e["limit_estimate"] for e in inner]}
