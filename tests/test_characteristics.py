"""Characteristic-path integration and the decay checks.

Oracle: with transport rate b(t, rho) = C t^kappa the path equation
    t rho'(t) = -b(t, rho)
integrates in closed form to rho(t) = xi + (C/kappa) (t0^kappa - t^kappa).
Every accuracy claim below is measured against that formula.
"""

import math

import pytest

from fuchsian import characteristics
from fuchsian.builtin import closed_form_eval
from fuchsian.characteristics import (CharacteristicPath, allowed,
                                      check_radius_bounds,
                                      check_reaches_origin,
                                      check_weighted_decay, decay_profile,
                                      integrate, smallness_box)
from fuchsian.cli import main
from fuchsian.errors import InputError, SearchExhausted
from fuchsian.rational import Frac
from oracles import integrate_two_callbacks


def closed_form_path(C=2.0, kappa=0.3, t0=0.5, xi=0.1, floor_ratio=1e-6,
                     tol=1e-10):
    path = integrate(lambda t, rho: (C * t ** kappa, 0.0),
                     t0=t0, xi=xi, r_max=10.0, t_floor=t0 * floor_ratio,
                     tol=tol)
    return path, lambda t: xi + (C / kappa) * (t0 ** kappa - t ** kappa)


def test_integrate_matches_closed_form():
    path, exact = closed_form_path()
    assert path.status == "extended-to-floor"
    worst = max(abs(rho - exact(t)) for t, rho in zip(path.ts, path.rhos))
    assert worst < 1e-8


def test_integrate_tighter_tolerance_is_at_least_as_accurate():
    loose, exact = closed_form_path(tol=1e-6)
    tight, _ = closed_form_path(tol=1e-12)
    err_loose = max(abs(r - exact(t)) for t, r in zip(loose.ts, loose.rhos))
    err_tight = max(abs(r - exact(t)) for t, r in zip(tight.ts, tight.rhos))
    assert err_tight <= err_loose + 1e-12
    assert err_tight < 1e-10


def test_path_is_exactly_monotone():
    # the accepted-step weights are all nonnegative, so a nonnegative rate
    # can never decrease rho, without any float tolerance
    path, _ = closed_form_path()
    for a, b in zip(path.rhos, path.rhos[1:]):
        assert b >= a
    for a, b in zip(path.ts, path.ts[1:]):
        assert b < a


def test_zero_rate_keeps_path_constant():
    path = integrate(lambda t, rho: (0.0, 0.0),
                     t0=0.25, xi=0.3, r_max=1.0, t_floor=1e-9)
    assert path.status == "extended-to-floor"
    assert all(rho == 0.3 for rho in path.rhos)


def test_left_domain_status():
    path = integrate(lambda t, rho: (50.0, 0.0),
                     t0=0.5, xi=0.05, r_max=0.4, t_floor=1e-12)
    assert path.status == "left-domain"
    assert path.rhos[-1] >= 0.4
    assert path.ts[-1] > 1e-12


def test_step_budget_exhaustion_reports_step_failure(monkeypatch):
    monkeypatch.setattr(characteristics, "_MAX_STEPS", 5)
    path = integrate(lambda t, rho: (1.0 + rho, 0.0),
                     t0=0.5, xi=0.05, r_max=1e9, t_floor=1e-300, tol=1e-10)
    assert path.status == "step-failure"
    assert path.steps_accepted + path.steps_rejected == 6


def test_step_size_underflow_reports_step_failure():
    # a nan rate rejects every step and shrinks h fivefold each time, so h
    # falls below the relative floor long before the step budget
    path = integrate(lambda t, rho: (math.nan, 0.0),
                     t0=0.5, xi=0.05, r_max=1.0, t_floor=1e-9)
    assert path.status == "step-failure"
    assert (path.steps_accepted, path.steps_rejected) == (0, 20)
    assert path.ts == [0.5] and path.rhos == [0.05]


def test_integrate_validates_inputs():
    with pytest.raises(InputError):
        integrate(lambda t, r: (0.0, 0.0),
                  t0=0.0, xi=0.1, r_max=1.0, t_floor=1e-9)
    with pytest.raises(InputError):
        integrate(lambda t, r: (0.0, 0.0),
                  t0=0.5, xi=0.1, r_max=1.0, t_floor=0.7)
    with pytest.raises(InputError):
        integrate(lambda t, r: (0.0, 0.0),
                  t0=0.5, xi=-0.1, r_max=1.0, t_floor=1e-9)


# -- one flow callback ---------------------------------------------------


def _by_repr(path):
    return repr((path.ts, path.rhos, path.qs, path.status,
                 path.steps_accepted, path.steps_rejected))


def _by_two_callbacks(flow, **kw):
    return integrate_two_callbacks(lambda t, rho: flow(t, rho)[0],
                                   lambda t, rho: flow(t, rho)[1], **kw)


def _certify_flow(argv, tmp_path, monkeypatch):
    # the flow certify integrates on argv, and the keywords of that run
    runs = []

    def spy(flow, **kw):
        runs.append((flow, kw))
        return integrate(flow, **kw)

    monkeypatch.setattr(characteristics, "integrate", spy)
    main(["certify", *argv, "--grid", "2x2", "--out",
          str(tmp_path / "report.json")])
    (run,) = runs
    return run


# a rate with a jump at t = 1e-3: the steps across it are rejected
def _kink(t, rho):
    return (50.0 if t > 1e-3 else 0.5), t * rho


_KINK = dict(t0=0.5, xi=0.05, r_max=1e9, t_floor=1e-9)
_CERTIFY_ARGVS = [["remark3"], ["remark3_forced"],
                  ["remark3", "--kappa", "2/5", "--eps00", "1/7"],
                  ["remark3", "--seed", "7"], ["remark3", "--seed", "23"]]


@pytest.mark.parametrize("argv", _CERTIFY_ARGVS,
                         ids=["remark3", "remark3_forced", "remark3-kappa",
                              "remark3-seed7", "remark3-seed23"])
def test_certify_flow_matches_two_callback_oracle(argv, tmp_path,
                                                  monkeypatch):
    # by repr: the path certify integrates on the built-ins that reach the
    # flow, under overridden weights and with seeded w, equals the path of
    # the loop that asked a rate callback and a sample callback for every
    # point
    flow, kw = _certify_flow(argv, tmp_path, monkeypatch)
    path = integrate(flow, **kw)
    assert path.status == "extended-to-floor"
    assert _by_repr(path) == _by_repr(_by_two_callbacks(flow, **kw))


@pytest.mark.parametrize("flow,kw", [
    (_kink, _KINK),
    (lambda t, rho: (3.0 * t ** 0.3 * (1.0 + rho), rho),
     dict(t0=0.5, xi=0.1, r_max=1e9, t_floor=1e-8, tol=1e-12)),
    (lambda t, rho: (50.0, rho), dict(t0=0.5, xi=0.05, r_max=0.4,
                                      t_floor=1e-12)),
    (lambda t, rho: (math.nan, 0.0), dict(t0=0.5, xi=0.05, r_max=1.0,
                                          t_floor=1e-9))],
    ids=["kink", "power", "left-domain", "nan"])
def test_flow_with_rejected_steps_matches_two_callback_oracle(flow, kw):
    path = integrate(flow, **kw)
    assert _by_repr(path) == _by_repr(_by_two_callbacks(flow, **kw))


def _counted(flow):
    calls = []

    def counting(t, rho):
        calls.append((t, rho))
        return flow(t, rho)
    return counting, calls


@pytest.mark.parametrize("argv", [None, *_CERTIFY_ARGVS[:2]],
                         ids=["kink", "remark3", "remark3_forced"])
def test_flow_evaluates_each_point_once(argv, tmp_path, monkeypatch):
    # 2 + 5 (a + r) + a calls: the sample at t0, the first stage at
    # exp(log t0), five stages per step, and per accepted step its end
    # point, which is the next step's first stage.  A rejected step keeps
    # its first stage: asking for it again would add r calls, and the kink
    # rejects more than five steps
    if argv is None:
        flow, kw = _kink, _KINK
    else:
        flow, kw = _certify_flow(argv, tmp_path, monkeypatch)
    counting, calls = _counted(flow)
    path = integrate(counting, **kw)
    a, r = path.steps_accepted, path.steps_rejected
    assert len(calls) == 2 + 5 * (a + r) + a
    if argv is None:
        assert path.status == "extended-to-floor" and a > 5 and r > 5
    else:
        # certify's runs on the built-ins: 56 calls, 64 with two callbacks
        assert (a, r, len(calls)) == (9, 0, 56)
        b_fun, b_calls = _counted(lambda t, rho: flow(t, rho)[0])
        q_fun, q_calls = _counted(lambda t, rho: flow(t, rho)[1])
        integrate_two_callbacks(b_fun, q_fun, **kw)
        assert len(b_calls) + len(q_calls) == 64


# -- weighted decay ------------------------------------------------------


def synthetic_path(q_of_t, n=20, t0=0.5, xi=0.2):
    ts = [t0 * (0.5 ** k) for k in range(n)]
    rhos = [xi] * n
    qs = [q_of_t(t) for t in ts]
    return CharacteristicPath(ts=ts, rhos=rhos, qs=qs,
                              status="extended-to-floor",
                              steps_accepted=n - 1, steps_rejected=0)


def test_weighted_decay_accepts_supersolution_profile():
    h = Frac(9, 20)
    path = synthetic_path(lambda t: t ** (2 * float(h)))
    rep = check_weighted_decay(path, h)
    assert rep["ok"]
    assert rep["violations"] == 0


def test_weighted_decay_rejects_growing_profile():
    h = Frac(9, 20)
    path = synthetic_path(lambda t: t ** (-2 * float(h)))
    rep = check_weighted_decay(path, h)
    assert not rep["ok"]
    assert rep["violations"] > 0


def test_weighted_decay_flat_profile_fails():
    # constant q: the weight t^h shrinks as t decreases, so v decreases;
    # that is admissible
    h = Frac(9, 20)
    path = synthetic_path(lambda t: 1.0)
    assert check_weighted_decay(path, h)["ok"]


# -- radius bounds -------------------------------------------------------


def frozen_consts(C1=2.0, C2=0.0, C3=0.0, C4=0.0):
    return {"C1": C1, "C2": C2, "C3": C3, "C4": C4}


def test_radius_bounds_on_closed_form_path():
    path, _ = closed_form_path(C=2.0, kappa=0.3)
    rep = check_radius_bounds(path, frozen_consts(C1=2.0), Frac(3, 10),
                              Frac(9, 20), r=0.0)
    assert rep["ok"]


def test_radius_lower_bound_catches_decreasing_path():
    bad = CharacteristicPath(ts=[0.5, 0.25], rhos=[0.2, 0.1], qs=[0.0, 0.0],
                             status="extended-to-floor", steps_accepted=1,
                             steps_rejected=0)
    rep = check_radius_bounds(bad, frozen_consts(), Frac(3, 10),
                              Frac(9, 20), r=0.0)
    assert not rep["ok"]


def test_radius_upper_bound_catches_overshoot():
    # path rises faster than the C1 envelope allows
    bad = CharacteristicPath(ts=[0.5, 0.25], rhos=[0.2, 5.0], qs=[0.0, 0.0],
                             status="extended-to-floor", steps_accepted=1,
                             steps_rejected=0)
    rep = check_radius_bounds(bad, frozen_consts(C1=0.01), Frac(3, 10),
                              Frac(9, 20), r=0.0)
    assert not rep["ok"]


@pytest.mark.parametrize("rhos,counts,excess", [
    ([0.2, 0.1], (1, 0), -0.1 - allowed(-0.2)),
    ([0.2, 5.0], (0, 1), 5.0 - allowed(0.2)),
    ([0.2, 0.05, 0.3], (1, 1), -0.05 - allowed(-0.2)),
], ids=["lower", "upper", "both"])
def test_radius_worst_excess_is_over_the_passing_limit(rhos, counts, excess):
    # with every envelope constant zero both limits sit at xi = 0.2; the
    # worst excess is measured from the passing limit, on either side
    path = hand_path([0.5, 0.25, 0.125][:len(rhos)], rhos, [0.0] * len(rhos))
    rep = check_radius_bounds(path, frozen_consts(C1=0.0), Frac(3, 10),
                              Frac(9, 20), r=0.0)
    assert (rep["lower_violations"], rep["upper_violations"]) == counts
    assert rep["worst_excess"] == excess


# -- smallness search and origin check ------------------------------------


def test_smallness_box_closed_form_seed():
    # with C2 = C3 = C4 = 0 the smallness total is (C1/kappa) sigma^kappa,
    # and the analytic seed sigma = (R kappa / (4 C1))^(1/kappa) makes it
    # R/4 < R/2 with no halving at all
    consts = frozen_consts(C1=1.0)
    kappa = Frac(1, 4)
    R = 0.5
    sigma, r, info = smallness_box(consts, Frac(9, 20), kappa, R,
                                   q_corner=lambda s: 0.0, sigma_max=1.0)
    seed = (R * float(kappa) / 4.0) ** (1.0 / float(kappa))
    assert sigma == pytest.approx(seed, rel=1e-12)
    assert info["halvings"] == 0
    assert info["value"] < info["budget"] == R / 2


def test_smallness_box_halves_when_q_is_large():
    # corner value decays with sigma, so halving the anchor helps; the
    # analytic seed alone is not small enough here
    consts = frozen_consts(C1=1.0, C2=1.0)
    sigma, r, info = smallness_box(consts, Frac(9, 20), Frac(1, 4), 0.5,
                                   q_corner=lambda s: 30.0 * s ** 0.4,
                                   sigma_max=1.0)
    assert info["halvings"] == 2
    assert info["value"] < 0.25


def test_smallness_box_exhaustion():
    # a constant corner value can never satisfy the bound if C2 is huge
    consts = frozen_consts(C1=1.0, C2=1e9)
    with pytest.raises(SearchExhausted, match="after 400 anchor halvings"):
        smallness_box(consts, Frac(9, 20), Frac(1, 4), 0.5,
                      q_corner=lambda s: 1.0, sigma_max=1.0)


def test_reaches_origin_closed_form():
    kappa = Frac(1, 4)
    h = Frac(9, 20)
    R = 0.5
    consts = frozen_consts(C1=1.0)
    sigma, r, info = smallness_box(consts, h, kappa, R,
                                   q_corner=lambda s: 0.0, sigma_max=1.0)
    path = integrate(lambda t, rho: (1.0 * t ** float(kappa), 0.0),
                     t0=sigma, xi=R / 4, r_max=R, t_floor=sigma * 1e-6)
    rep = check_reaches_origin(path, R, consts, kappa, h, r)
    assert rep["ok"]
    assert rep["reached_floor"]
    assert rep["rho_max"] <= rep["R1"] + 1e-15
    assert rep["R1"] < R


def test_reaches_origin_rejects_wide_start():
    path = integrate(lambda t, rho: (0.0, 0.0),
                     t0=0.1, xi=0.4, r_max=0.5, t_floor=1e-7)
    rep = check_reaches_origin(path, 0.5, frozen_consts(C1=1.0),
                               Frac(1, 4), Frac(9, 20), r=0.0)
    assert not rep["ok"]
    assert "anchor radius" in rep["reason"]


# -- solution decay profiles ----------------------------------------------


def test_decay_profile_constant_closed_form():
    # x^4/72 is t-independent: every inner sample equals 1/72 R^4
    ev = closed_form_eval("remark3")
    rep = decay_profile(ev, exponent_p=4, r_list=[0.01])
    assert [row["R"] for row in rep["rows"]] == [0.5, 0.25, 0.125, 0.0625]
    for row in rep["rows"]:
        assert row["sup_scaled"] == pytest.approx(1 / 72, rel=1e-12)
    for trend in rep["inner_trend"]:
        assert trend["limit_estimate"] == pytest.approx(1 / 72, rel=1e-12)


def test_decay_profile_logarithmic_example_trends_to_zero():
    ev = closed_form_eval("remark2")
    rep = decay_profile(ev, exponent_p=2,
                        r_list=[0.3678794411714423, 0.03678794411714423,
                                0.003678794411714423])
    assert all(trend["monotone_decreasing"] for trend in rep["inner_trend"])
    # the scaled sup over the inner window shrinks as r -> 0
    for R in (0.5, 0.25, 0.125, 0.0625):
        sups = [row["sup_scaled"] for row in rep["rows"] if row["R"] == R]
        assert sups == sorted(sups, reverse=True)
        assert sups[-1] < sups[0]


# -- the one tolerance rule ---------------------------------------------


def hand_path(ts, rhos, qs):
    return CharacteristicPath(ts=ts, rhos=rhos, qs=qs,
                              status="extended-to-floor",
                              steps_accepted=len(ts) - 1, steps_rejected=0)


@pytest.mark.parametrize("rhs", [0.0, 0.7, 3.25e5, 1e-12])
def test_allowed_is_the_last_passing_float(rhs):
    lim = allowed(rhs)
    assert lim == rhs + 1e-9 * (1.0 + abs(rhs))
    over = math.nextafter(lim, math.inf)

    # weighted decay with h = 0: t^0 * q is q itself
    def decay_violations(q1):
        return check_weighted_decay(hand_path([1.0, 0.5], [0.1, 0.1],
                                              [rhs, q1]), 0)["violations"]
    assert decay_violations(lim) == 0
    assert decay_violations(over) == 1

    # with every envelope constant zero the upper bound is xi itself
    def radius(rho):
        rep = check_radius_bounds(hand_path([1.0, 0.5], [rhs, rho], [0.0, 0.0]),
                                  frozen_consts(C1=0.0), Frac(1, 4),
                                  Frac(9, 20), r=0.0)
        return rep["lower_violations"], rep["upper_violations"]
    assert radius(lim) == (0, 0)
    assert radius(over) == (0, 1)
    low = -allowed(-rhs)
    assert radius(low) == (0, 0)
    assert radius(math.nextafter(low, -math.inf)) == (1, 0)
