"""Shifted right-hand side, operator normal form, barrier machinery.

Frozen numbers in this file come from two independent sources: closed-form
hand computation of the profile slots for w = t x^2 (written out in each
assertion), and direct evaluation of the corner formulas restated inline
with math.pow, never through the code path under test.
"""

import collections
import functools
import json
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuchsian import certificate, cli
from fuchsian.builtin import (load_equation, parse_equation,
                              read_equation_source)
from fuchsian.certificate import (BarrierSystem, Decomposition,
                                  ProfileFamily, _undominated_jet,
                                  barrier_grid, build_shifted_rhs,
                                  choose_params, normal_form, profile_family,
                                  reconstruct, verify_barrier)
from fuchsian.characteristics import _Check, allowed
from fuchsian.equation import FuchsianEquation
from fuchsian.errors import (HypothesisViolated, InexactRoots,
                             NonpositiveExponent, TruncationExhausted,
                             UnsplittableTerm)
from fuchsian.majorant import RhoPoly, SectorMajorant, norm_xz
from fuchsian.rational import CRat, Frac
from fuchsian.series import (SeriesTX, SeriesTXZ, ZKey, _norm_nu, _nu_degree,
                             _zkey_sort, lambda_keys)
from fuchsian.solver import solve_formal
from oracles import (_slope, _slope_inner, barrier_point, grid_checks_by_record,
                     grid_points, manufactured, reconstruct_by_products,
                     weighted)
from test_bench_reference import WORKLOADS

GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


@pytest.fixture(scope="module")
def remark3_setup():
    eq = load_equation("remark3")
    cd = eq.char_exponents()
    dec = normal_form(build_shifted_rhs(eq), cd)
    w = SeriesTX.monomial(1, 10, 12, 1, 1, (2,))     # w = t x^2
    prof = profile_family(w, cd)
    params, cert = choose_params(cd, BarrierSystem(dec, prof))
    return eq, cd, dec, w, prof, params, cert


# -- shifted right-hand side ------------------------------------------


def test_shifted_rhs_identity_when_solution_is_zero():
    eq = load_equation("remark3")
    H = build_shifted_rhs(eq)
    # zero shift: H is F itself (which has no jet-free part)
    assert H.terms == eq.F.terms


def test_shifted_rhs_forced_equation_matches_plain():
    # for F + t the solution t/6 absorbs the forcing; the recentred
    # operators of both equations coincide term for term
    H_plain = build_shifted_rhs(load_equation("remark3"))
    eqf = load_equation("remark3_forced")
    sol = solve_formal(eqf, 4)
    H_forced = build_shifted_rhs(eqf, sol.u)
    common_kt = min(H_plain.k_t, H_forced.k_t)
    common_kx = min(H_plain.k_x, H_forced.k_x)

    def window(H):
        return {key: c for key, c in H.terms.items()
                if key[0] <= common_kt and sum(key[1]) <= common_kx}

    assert window(H_plain) == window(H_forced)


def test_shifted_rhs_has_no_jet_free_part():
    eqf = load_equation("remark3_forced")
    sol = solve_formal(eqf, 4)
    H = build_shifted_rhs(eqf, sol.u)
    assert H.terms and all(nu for _, _, nu in H.terms)


def test_shifted_rhs_rejects_base_with_constant_term():
    eq = load_equation("remark3")
    u0 = SeriesTX.one(1, eq.F.k_t, eq.F.k_x)
    with pytest.raises(HypothesisViolated):
        build_shifted_rhs(eq, u0)


def test_shifted_rhs_refuses_a_base_too_short_in_x_before_any_shift(
        monkeypatch):
    eq = load_equation("remark3_forced")
    u0 = solve_formal(eq, 6).u
    assert (u0.k_t, u0.k_x) == (6, 0) and not u0.is_zero()
    monkeypatch.setattr(certificate, "derivative_tuple", None)
    with pytest.raises(TruncationExhausted) as exc:
        build_shifted_rhs(eq, u0)
    assert str(exc.value) == (
        "need k_x >= 14 on the right-hand side to shift by a base solution "
        "of t-order 6, whose x-cap 0 is below m = 2 (have 12)")


# -- operator normal form ----------------------------------------------


def test_normal_form_frozen_decomposition(remark3_setup):
    _, cd, dec, *_ = remark3_setup
    assert cd.roots_exact == (CRat(Frac(-2)), CRat(Frac(-1)))
    assert dec.beta0.is_zero() and dec.beta1.is_zero()
    assert dec.a == {} and dec.b == {}
    key = (ZKey(0, (2,)), ZKey(0, (2,)))
    assert set(dec.c.keys()) == {key}
    assert dec.c[key].terms[(0, (0,), ())] == CRat(Frac(1))


def test_reconstruct_is_exact(remark3_setup):
    _, cd, dec, *_ = remark3_setup
    assert reconstruct(dec) == dec.theta_rhs


def _split(eq, order=4):
    # the decomposition certify builds: shifted by the solution to order
    cd = eq.char_exponents()
    u0 = solve_formal(eq, order).u
    return cd, normal_form(build_shifted_rhs(eq, u0), cd)


@pytest.mark.parametrize("source", ["remark2", "remark3", "remark3_forced",
                                    *(f"dense-{s}" for s in range(10))])
def test_reconstruct_equals_ring_operator_oracle(source):
    # every built-in and one document of each of the 10 solve-dense shapes;
    # none of them has c hosts next to a or b hosts, which the property
    # below covers
    eq = (load_equation(source) if not source.startswith("dense")
          else parse_equation(WORKLOADS.solve_document(int(source[6:]), 0)))
    _, dec = _split(eq)
    got = reconstruct(dec)
    assert got == reconstruct_by_products(dec) == dec.theta_rhs
    assert (got.k_t, got.k_x) == (dec.theta_rhs.k_t, dec.theta_rhs.k_x)


@st.composite
def decompositions(draw):
    """Decompositions with all five families non-empty.  Their terms, with
    up to `jets` jet factors besides their hosts, may pass theta_rhs's caps
    in t and in x, so that the truncation of each product is exercised."""
    n = draw(st.integers(1, 2))
    kt, kx, jets = (draw(st.integers(0, 3)), draw(st.integers(0, 3)),
                    draw(st.integers(1, 3)))
    keys = lambda_keys(n)

    def terms(jets):
        out = {}
        for _ in range(draw(st.integers(1, 3))):
            nu = _norm_nu((zk, 1) for zk in draw(
                st.lists(st.sampled_from(keys), max_size=jets)))
            key = (draw(st.integers(0, kt + 1)),
                   tuple(draw(st.integers(0, 2)) for _ in range(n)), nu)
            out[key] = CRat(Frac(draw(st.sampled_from([-3, -1, 1, 2])),
                                 draw(st.integers(1, 3))),
                            Frac(draw(st.integers(-1, 1))))
        return out

    def series(jets):
        return SeriesTXZ(n, kt + 1, kx + 4, terms(jets))

    def hosts():
        return draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3,
                             unique=True))

    betas = [SeriesTX(n, kt + 1, kx + 4, {(k, a): c for (k, a, _), c
                                           in terms(0).items()})
             for _ in range(2)]
    pairs = {tuple(sorted(draw(st.lists(st.sampled_from(keys), min_size=2,
                                        max_size=2)), key=_zkey_sort))
             for _ in range(draw(st.integers(1, 2)))}
    return Decomposition(
        beta0=betas[0], beta1=betas[1],
        a={h: series(jets) for h in hosts()},
        b={h: series(jets) for h in hosts()},
        c={pr: series(jets) for pr in pairs},
        theta_rhs=SeriesTXZ.zero(n, kt, kx))


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(dec=decompositions())
def test_reconstruct_matches_oracle_on_random_decompositions(dec):
    assert not (dec.beta0.is_zero() or dec.beta1.is_zero())
    assert all(s.terms for fam in (dec.a, dec.b, dec.c)
               for s in fam.values())
    assert reconstruct(dec) == reconstruct_by_products(dec)


def _drop_one_term(dec, family):
    # dec with the first term of one family's first series removed
    if family.startswith("beta"):
        s = getattr(dec, family)
        kept = dict(list(s.terms.items())[1:])
        return dec._replace(**{family: SeriesTX(s.n, s.k_t, s.k_x, kept)})
    fam = dict(getattr(dec, family))
    host, s = next(iter(fam.items()))
    fam[host] = SeriesTXZ(s.n, s.k_t, s.k_x,
                          dict(list(s.terms.items())[1:]))
    return dec._replace(**{family: fam})


@pytest.mark.parametrize("family", ["beta0", "beta1", "a", "b", "c"])
def test_dropped_split_term_fails_the_reconstruction_check(family):
    # x-dependent betas and a, b and c hosts; K_x leaves x-degree 4 after
    # the shift, so every family has terms inside theta_rhs's caps
    cd, dec = _split(parse_equation({
        "name": "x-betas", "m": 2, "n": 1,
        "terms": _FOUR_FAMILIES + _X_BETAS_EXTRA,
        "truncation": {"K_t": 6, "K_x": 14, "K_z": 4}}))
    w = SeriesTX.monomial(1, 6, 14, 1, 1, (2,))
    prof = profile_family(w, cd)
    params, _ = choose_params(cd, BarrierSystem(dec, prof))
    rep = verify_barrier(BarrierSystem(dec, prof), params, 3, 3)
    assert rep["checks"]["reconstruction"] == {"ok": True}
    broken = _drop_one_term(dec, family)
    assert broken != dec
    rep = verify_barrier(BarrierSystem(broken, prof), params, 3, 3)
    assert rep["checks"]["reconstruction"] == {"ok": False}
    assert rep["ok"] is False


def test_broken_split_makes_certify_exit_1(monkeypatch, tmp_path):
    # a split that fails to recombine is a failed check in the report, not
    # an internal error: the first c coefficient keeps its two jet factors
    drop, calls = certificate._nu_drop, []

    def keep_first(nu, *gone):
        calls.append(nu)
        return nu if len(calls) == 1 else drop(nu, *gone)

    monkeypatch.setattr(certificate, "_nu_drop", keep_first)
    out = tmp_path / "report.json"
    code = cli.main(["certify", "remark3", "--grid", "3x3", "--out", str(out)])
    report = json.loads(out.read_text())
    assert code == 1 and "error" not in report
    checks = report["results"]["barrier"]["checks"]
    assert checks["reconstruction"] == {"ok": False}


def test_reconstruct_builds_one_series(monkeypatch):
    _, dec = _split(parse_equation(json.loads(
        (GOLDEN_INPUTS / "dense_0_0.json").read_text())))
    built = [0]
    init = SeriesTXZ.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(SeriesTXZ, "__init__", counting)
    assert reconstruct(dec) == dec.theta_rhs
    assert built[0] == 1


def test_certify_decides_each_structural_check_once(monkeypatch, tmp_path):
    calls = {"reconstruct": 0, "_undominated_jet": 0}
    for name in calls:
        real = getattr(certificate, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(certificate, name, counting)
    for argv in (["remark3"], ["remark3_forced", "--seed", "3"]):
        for name in calls:
            calls[name] = 0
        out = tmp_path / "report.json"
        cli.main(["certify", *argv, "--grid", "4x4", "--out", str(out)])
        assert json.loads(out.read_text())["results"]["barrier"]["checks"][
            "reconstruction"] == {"ok": True}
        assert calls == {"reconstruct": 1, "_undominated_jet": 1}


def test_certify_builds_one_system(monkeypatch, tmp_path):
    # one BarrierSystem per certify, with or without weight overrides, so
    # each beta norm and each pack's norm is taken once; the x-betas
    # document has packs of every kind (at the chosen weights it stops at
    # the anchor time, after the grid)
    doc = tmp_path / "x-betas.json"
    doc.write_text(json.dumps({
        "name": "x-betas", "m": 2, "n": 1,
        "terms": _FOUR_FAMILIES + _X_BETAS_EXTRA,
        "truncation": {"K_t": 6, "K_x": 8, "K_z": 4}}))
    calls = {"__init__": [], "normal_form": [], "norm_x": [], "norm_xz": []}
    for owner, name in ((BarrierSystem, "__init__"),
                        (certificate, "normal_form"), (certificate, "norm_x"),
                        (certificate, "norm_xz")):
        real = getattr(owner, name)

        def counting(*args, _real=real, _seen=calls[name]):
            out = _real(*args)
            _seen.append(out if _real is normal_form else args[-1])
            return out

        monkeypatch.setattr(owner, name, counting)
    overrides = ["--kappa", "1/7", "--eps00", "1/3"]
    for argv, exit_code in ((["remark3"], 1), (["remark3", *overrides], 1),
                            ([str(doc), "--order", "3"], 2),
                            ([str(doc), "--order", "3", *overrides], 1)):
        for seen in calls.values():
            seen.clear()
        out = tmp_path / "report.json"
        assert cli.main(["certify", *argv, "--grid", "4x4",
                         "--out", str(out)]) == exit_code
        (dec,) = calls["normal_form"]
        assert len(calls["__init__"]) == 1
        for beta in (dec.beta0, dec.beta1):
            assert sum(s is beta for s in calls["norm_x"]) == 1
        packs = [*dec.a.values(), *dec.b.values(), *dec.c.values()]
        assert packs and [sum(s is pk for s in calls["norm_xz"])
                          for pk in packs] == [1] * len(packs)


def test_normal_form_random_roundtrip():
    # random equations with exact rational exponents; solve, recentre,
    # decompose, and require the reassembled series to match exactly
    rng = random.Random(8844)
    done = 0
    while done < 12:
        n = 1 + (done % 2)
        lam1 = Frac(-rng.randint(1, 3))
        lam2 = lam1 + Frac(rng.randint(0, 2))
        if lam2 >= 0:
            lam2 = Frac(-1)
        b1, b0 = lam1 + lam2, -(lam1 * lam2)
        kt, kx = 7, 14
        F = SeriesTXZ.z_var(n, kt, kx, ZKey(1, (0,) * n)).scale(b1) \
            + SeriesTXZ.z_var(n, kt, kx, ZKey(0, (0,) * n)).scale(b0)
        keys = lambda_keys(n)
        for _ in range(rng.randint(1, 4)):
            zk1, zk2 = rng.choice(keys), rng.choice(keys)
            c = Frac(rng.choice([-1, 1]) * rng.randint(1, 4), rng.randint(1, 4))
            base = SeriesTX.monomial(n, kt, kx, 1, rng.randint(0, 1),
                                     tuple(rng.randint(0, 1) for _ in range(n)))
            term = SeriesTXZ.from_tx(base) \
                * SeriesTXZ.z_var(n, kt, kx, zk1) \
                * SeriesTXZ.z_var(n, kt, kx, zk2)
            F = F + term.scale(c)
        try:
            eq = FuchsianEquation(F)
        except Exception:
            continue
        target = SeriesTX.monomial(n, kt, kx,
                                   Frac(rng.randint(1, 5), rng.randint(1, 5)),
                                   rng.randint(1, 2),
                                   tuple(rng.randint(0, 1) for _ in range(n)))
        try:
            eqf = manufactured(eq, target)
            sol = solve_formal(eqf, 4)
        except Exception:
            continue
        cd = eqf.char_exponents()
        H = build_shifted_rhs(eqf, sol.u)
        dec = normal_form(H, cd)
        assert reconstruct(dec) == dec.theta_rhs
        # a b entry keeps at least one jet factor in every term
        for s in dec.b.values():
            assert all(nu for _, _, nu in s.terms)
        done += 1


def test_normal_form_rejects_inexact_roots():
    # golden-ratio exponents: no rational root pair
    F = SeriesTXZ.z_var(1, 6, 8, ZKey(1, (0,))) \
        + SeriesTXZ.z_var(1, 6, 8, ZKey(0, (0,)))
    eq = FuchsianEquation(F)
    cd = eq.char_exponents()
    with pytest.raises(InexactRoots):
        normal_form(build_shifted_rhs(eq), cd)


def test_normal_form_rejects_stranded_derivative_term():
    # a t-free term linear in the second-derivative slot fits none of the
    # three coefficient families
    eq = load_equation("remark3")
    cd = eq.char_exponents()
    H = SeriesTXZ.z_var(1, 6, 8, ZKey(0, (2,)))
    with pytest.raises(UnsplittableTerm):
        normal_form(H, cd)


# -- profile family -----------------------------------------------------


def test_profile_slots_closed_form(remark3_setup):
    _, cd, dec, w, prof, *_ = remark3_setup
    # w = t x^2: first operator gives 3 t x^2, second 6 t x^2; the
    # transforms divide slice 1 by 1 + a, with a the bounds (2, 1) on -Re
    # of the roots, leaving the family below
    assert cd.neg_re_lower == (Frac(2), Frac(1))
    sl = prof.slots
    for t, rho in [(0.5, 0.25), (0.03125, 1.0), (1.0, 0.0)]:
        assert sl[(0, 0)].eval(t, rho) == pytest.approx(t * rho * rho, rel=1e-15)
        assert sl[(1, 0)].eval(t, rho) == pytest.approx(3 * t * rho * rho, rel=1e-15)
        assert sl[(0, 1)].eval(t, rho) == pytest.approx(2 * t * rho, rel=1e-15)
        assert sl[(1, 1)].eval(t, rho) == pytest.approx(6 * t * rho, rel=1e-15)
        assert sl[(0, 2)].eval(t, rho) == pytest.approx(2 * t, rel=1e-15)


def test_profile_step_domination_exact(remark3_setup):
    # (Euler + 2h) applied to the first profile stays below the second,
    # exactly, because both sides reduce to multiples of t rho^2
    _, cd, dec, w, prof, params, _ = remark3_setup
    p00, p10 = prof.slots[(0, 0)], prof.slots[(1, 0)]
    lhs = p00.euler() + p00.scale(2 * Frac(9, 20))
    assert lhs.leq(p10)


def test_jet_domination_failure_names_the_jet(remark3_setup, monkeypatch):
    # the report's profile_domination check is the one place jet domination
    # is decided: halving slot (0, 2) leaves d^2 w = 2t above it, and a
    # headroom below 1 fails the first jet, w itself, while profile_family
    # still returns its profiles
    _, cd, dec, w, prof, params, _ = remark3_setup
    assert _undominated_jet(w, prof.slots) is None
    slots = {**prof.slots, (0, 2): prof.slots[(0, 2)].scale(Frac(1, 2))}
    assert _undominated_jet(w, slots) == ZKey(0, (2,))
    rep = verify_barrier(BarrierSystem(dec, ProfileFamily(w, slots)), params,
                         2, 2)
    assert rep["checks"]["profile_domination"] == {"ok": False}
    monkeypatch.setattr(certificate, "_HEADROOM", Frac(1, 2))
    halved = profile_family(w, cd)
    assert halved.slots == prof.slots
    assert _undominated_jet(w, halved.slots) == ZKey(0, (0,))
    rep = verify_barrier(BarrierSystem(dec, halved), params, 2, 2)
    assert rep["checks"]["profile_domination"] == {"ok": False}
    assert rep["ok"] is False


def test_profile_family_rejects_inexact_roots():
    F = SeriesTXZ.z_var(1, 6, 8, ZKey(1, (0,))) \
        + SeriesTXZ.z_var(1, 6, 8, ZKey(0, (0,)))
    eq = FuchsianEquation(F)
    with pytest.raises(InexactRoots):
        profile_family(SeriesTX.monomial(1, 6, 8, 1, 1, (0,)),
                       eq.char_exponents())


def test_profile_family_rejects_nonnegative_exponent():
    # roots -1 and +2: the positive root gives a transform weight <= 0
    F = SeriesTXZ.z_var(1, 6, 8, ZKey(1, (0,))) \
        + SeriesTXZ.z_var(1, 6, 8, ZKey(0, (0,))).scale(2)
    eq = FuchsianEquation(F)
    with pytest.raises(NonpositiveExponent):
        profile_family(SeriesTX.monomial(1, 6, 8, 1, 1, (0,)),
                       eq.char_exponents())


# -- parameter search ---------------------------------------------------


def test_choose_params_frozen_recipe(remark3_setup):
    *_, params, cert = remark3_setup
    assert params.eps00 == Frac(9, 80)
    assert params.eps01 == Frac(9, 160)
    assert params.eps11 == Frac(1)
    assert params.kappa == Frac(9, 160)
    assert params.h == Frac(9, 20)
    assert params.sigma0 == Frac(1, 64)
    assert params.R0 == Frac(1)
    assert cert["ok"] is True
    assert cert["halvings"] == {"eps11": 0, "box": 6}
    assert cert["max_growth_bound"] == pytest.approx(0.4017766952966369, rel=1e-12)


def _box_by_corners(system, params):
    # choose_params's box search as one-point growth_bound calls at the two
    # candidate corners of each halving, under the weights of params
    hf, sig, R = float(params.h), Frac(1), Frac(1)
    a, n_box = system.growth_bound(params, 1.0, 1.0), 0
    while a > hf:
        a_s = system.growth_bound(params, float(sig) / 2, float(R))
        a_r = system.growth_bound(params, float(sig), float(R) / 2)
        sig, R, a = (sig / 2, R, a_s) if a_s <= a_r else (sig, R / 2, a_r)
        n_box += 1
    return sig, R, n_box


def test_box_search_makes_one_kernel_call_per_halving(monkeypatch):
    # choose_params reads both candidates of a halving from one 2 x 2 grid:
    # the box, max_growth_bound and halvings of per-corner growth_bound
    # calls, from 1 + halvings kernel calls before its 12 x 12 grid
    grid, shapes = BarrierSystem.grid, []

    def counting(self, P, ts, rhos):
        shapes.append((len(ts), len(rhos)))
        return grid(self, P, ts, rhos)

    halved = 0
    for source in _SOURCES:
        cd, system, chosen = _kernel_case(source)
        sig, R, n_box = _box_by_corners(system, chosen)
        box = chosen._replace(sigma0=sig, R0=R)
        mx = max([0.0, *(a for *_, A, _ in system.grid(
            box, *barrier_grid(float(sig), float(R), 12, 12)) for a in A)])
        monkeypatch.setattr(BarrierSystem, "grid", counting)
        shapes.clear()
        params, cert = choose_params(cd, system)
        monkeypatch.setattr(BarrierSystem, "grid", grid)
        assert params == box, source
        assert cert["halvings"]["box"] == n_box
        assert repr(cert["max_growth_bound"]) == repr(mx)
        assert shapes == [(1, 1)] + n_box * [(2, 2)] + [(12, 12)]
        halved += n_box > 0
    assert halved == len(_SOURCES)


def test_choose_params_needs_decay_rate():
    eq = load_equation("remark2")
    with pytest.raises(HypothesisViolated):
        choose_params(eq.char_exponents(), None)


# -- barrier evaluation --------------------------------------------------


def hand_barrier(t, rho, kappa):
    # independent restatement for w = t x^2 with the frozen parameters
    p00 = t * rho * rho
    p10 = 3 * t * rho * rho
    p01 = 2 * t * rho
    p11 = 6 * t * rho
    p02 = 2 * t
    return (9 / 80) * p00 + p10 + math.pow(t, kappa) * p02 \
        + (9 / 160) * p01 + p11 + math.pow(p02, 1.5)


def test_barrier_matches_hand_formula(remark3_setup):
    _, cd, dec, w, prof, params, _ = remark3_setup
    kappa = float(params.kappa)
    system = BarrierSystem(dec, prof)
    for t, rho in [(1 / 64, 1.0), (1e-4, 0.5), (1e-8, 0.125)]:
        ours = system.barrier(params, t, rho)
        assert ours == pytest.approx(hand_barrier(t, rho, kappa), rel=1e-12)


def test_barrier_corner_frozen(remark3_setup):
    _, cd, dec, w, prof, params, _ = remark3_setup
    system = BarrierSystem(dec, prof)
    q, dq, tdq = _grid_point(system, params, 1 / 64, 1.0)[3:6]
    assert q == pytest.approx(0.17439650722798405, rel=1e-12)
    assert dq == pytest.approx(0.19277343749999998, rel=1e-12)
    assert tdq == pytest.approx(0.17854979618261702, rel=1e-12)


def test_barrier_drho_teuler_hand_formulas(remark3_setup):
    _, cd, dec, w, prof, params, _ = remark3_setup
    system = BarrierSystem(dec, prof)
    kap = float(params.kappa)
    for t, rho in [(1 / 64, 1.0), (1e-5, 0.25)]:
        dq, tdq = _grid_point(system, params, t, rho)[4:6]
        drho = (9 / 80) * 2 * t * rho + 6 * t * rho \
            + (9 / 160) * 2 * t + 6 * t
        assert dq == pytest.approx(drho, rel=1e-12)
        # every slot is t-degree 1; the power terms pick up the kappa and
        # three-halves factors
        teuler = (9 / 80) * t * rho * rho + 3 * t * rho * rho \
            + math.pow(t, kap) * (kap + 1) * 2 * t \
            + (9 / 160) * 2 * t * rho + 6 * t * rho \
            + 1.5 * math.pow(2 * t, 1.5)
        assert tdq == pytest.approx(teuler, rel=1e-12)


def _grid_point(system, params, t, rho):
    # (t, rho, tk, q, dq, tdq, v, A, B) from a 1 x 1 grid, which the grid
    # test below ties bit for bit to the per-point evaluators
    (point,) = grid_points(system.grid(params, [t], [rho]), [rho])
    return point


def _old_barrier_parts(system, params, t, rho):
    # q, dq, t dq/dt from one separate evaluator per part, restated
    slots = ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2))
    w = weighted(system, params)
    v = {ij: system.p[ij].eval(t, rho) for ij in slots}
    e = {ij: system.e[ij].eval(t, rho) for ij in slots}
    dv11, dv02 = system.d11.eval(t, rho), system.d02.eval(t, rho)
    tk = t ** w.kf
    q = (w.e00 * v[(0, 0)] + v[(1, 0)] + tk * v[(0, 2)]
         + w.e01 * v[(0, 1)] + w.e11 * v[(1, 1)]
         + v[(0, 2)] ** 1.5)
    dq = (w.e00 * v[(0, 1)] + v[(1, 1)] + tk * dv02
          + w.e01 * v[(0, 2)] + w.e11 * dv11
          + 1.5 * math.sqrt(v[(0, 2)]) * dv02)
    tdq = (w.e00 * e[(0, 0)] + e[(1, 0)]
           + tk * (w.kf * v[(0, 2)] + e[(0, 2)])
           + w.e01 * e[(0, 1)] + w.e11 * e[(1, 1)]
           + 1.5 * math.sqrt(v[(0, 2)]) * e[(0, 2)])
    return q, dq, tdq, v, dv11, dv02


def test_barrier_jet_equals_separate_evaluators(remark3_setup):
    # bit-identical, not approximately equal: the grid report depends on it
    _, cd, dec, _, _, params, _ = remark3_setup
    rng = random.Random(4242)
    for _ in range(4):
        # x-degrees up to 4, so the second rho-derivatives are not zero
        w = SeriesTX.zero(1, 10, 12)
        for _ in range(3):
            w = w + SeriesTX.monomial(1, 10, 12,
                                      Frac(rng.randint(-9, 9), rng.randint(1, 9)),
                                      rng.randint(1, 2), (rng.randint(0, 4),))
        if w.is_zero():
            continue
        system = BarrierSystem(dec, profile_family(w, cd))
        points = [(1 / 64, 1.0), (0.0, 0.5), (1e-5, 0.0)]
        points += [(10.0 ** rng.uniform(-6, -1.8), rng.uniform(0, 1))
                   for _ in range(25)]
        for t, rho in points:
            q, dq, tdq, v, dv11, dv02 = _old_barrier_parts(system, params,
                                                           t, rho)
            _, _, _, *jet, grid_v, _, _ = _grid_point(system, params, t, rho)
            assert jet == [q, dq, tdq]
            assert list(grid_v[:7]) == [*v.values(), dv11, dv02]
            assert system.barrier(params, t, rho) == q


def test_growth_bound_corner_and_small_t_limit(remark3_setup):
    _, cd, dec, w, prof, params, _ = remark3_setup
    system = BarrierSystem(dec, prof)
    corner = system.growth_bound(params, 1 / 64, 1.0)
    # 2 eps00 + sqrt(phi02) contribution at the corner
    assert corner == pytest.approx(0.225 + math.sqrt(1 / 32), rel=1e-12)
    assert corner <= float(params.h)
    small = system.growth_bound(params, 1e-12, 0.0)
    assert small == pytest.approx(0.225, abs=2e-6)


def test_transport_rate_zero_profiles_is_t_to_kappa(remark3_setup):
    _, cd, dec, w, prof, params, _ = remark3_setup
    prof0 = profile_family(SeriesTX.zero(1, 10, 12), cd)
    system = BarrierSystem(dec, prof0)
    for t in (0.01, 1e-6, 1e-3):
        assert system.transport_rate(params, t, 0.3) \
            == pytest.approx(math.pow(t, float(params.kappa)), rel=1e-13)


def _values(system, params):
    # everything a system yields under params, by repr so that -0.0 shows
    sig, R = float(params.sigma0), float(params.R0)
    points = [(sig, R), (1e-5, 0.0), (0.0, 0.5), (sig / 3, R * 0.6)]
    ts, rhos = barrier_grid(sig, R, 3, 4)
    grid = [(*p[:6], list(p[6]), *p[7:])
            for p in grid_points(system.grid(params, ts, rhos), rhos)]
    return repr((grid, system.constants(params),
                 [(system.barrier(params, t, rho),
                   system.growth_bound(params, t, rho),
                   system.transport_rate(params, t, rho))
                  for t, rho in points]))


def test_reused_system_matches_fresh_system(remark3_setup):
    # params are inputs, not state: one system evaluated under P, then P'
    # (other kappa and eps00, box halved), then P again gives, bit for
    # bit, what a system that only ever saw that params gives
    _, cd, dec, w, prof, params, _ = remark3_setup
    other = params._replace(kappa=Frac(1, 7), eps00=Frac(1, 3),
                            sigma0=params.sigma0 / 2, R0=params.R0 / 2)
    shared = BarrierSystem(dec, prof)
    seen = [_values(shared, P) for P in (params, other, params)]
    fresh = [_values(BarrierSystem(dec, profile_family(w, cd)), P)
             for P in (params, other, params)]
    assert seen == fresh
    assert seen[0] != seen[1]


def test_constants_frozen(remark3_setup):
    _, cd, dec, w, prof, params, _ = remark3_setup
    system = BarrierSystem(dec, prof)
    c = system.constants(params)
    assert c["H0"] == 0.0 and c["H1"] == 0.0
    assert c["L"] == pytest.approx(0.1875, rel=1e-15)
    assert c["C1"] == pytest.approx(1.0, rel=1e-15)
    assert c["C2"] == 0.0 and c["C3"] == 0.0
    assert c["C4"] == pytest.approx(17 / 6, rel=1e-14)


def _jet_term(c, t_pow, jets, den=1, x_pow=0):
    return {"coeff": [c, den, 0, 1], "t_pow": t_pow, "x_pows": [x_pow],
            "z_pows": [{"i": i, "alpha": [a], "pow": p} for i, a, p in jets]}


# -3 z10 - 2 z00 + z02^2 + z00 z01 + t z01^2 + t z02^2 + t: exponents -1
# and -2, and every coefficient family is non-empty (a on a first-order and
# on a second-order host, b on z00, c on z02 z02)
_FOUR_FAMILIES = [_jet_term(-3, 0, [(1, 0, 1)]), _jet_term(-2, 0, [(0, 0, 1)]),
                  _jet_term(1, 0, [(0, 2, 2)]),
                  _jet_term(1, 0, [(0, 0, 1), (0, 1, 1)]),
                  _jet_term(1, 1, [(0, 1, 2)]), _jet_term(1, 1, [(0, 2, 2)]),
                  _jet_term(1, 1, [])]


def _comp(pack, t, rho, phiv):
    return pack[0].eval(t, rho, phiv)


def _comp_drho(pack, t, rho, phiv, dphiv):
    return _slope(pack, _slope_inner(pack, rho), t, phiv, dphiv)


class _KeyedSystem:
    """The filtered key-dict loops that BarrierSystem's compiled families
    replaced, restated on top of a system's own profile evaluators."""

    def __init__(self, system, dec, params):
        self.s, self.P, self.w = system, params, weighted(system, params)
        keys = system.keys
        self.low = tuple(zk for zk in keys if sum(zk.alpha) <= 1)
        self.high = tuple(zk for zk in keys if sum(zk.alpha) == 2)
        self.eps = {zk: float(params.eps_slot(zk.i, sum(zk.alpha)))
                    for zk in self.low}

        def pack(series_map):
            out = {}
            for key, s in series_map.items():
                prof = norm_xz(s)
                dz = ((zk, prof.dz(zk)) for zk in keys)
                out[key] = (prof, prof.d_rho(),
                            tuple((zk, g) for zk, g in dz if not g.is_zero()))
            return out

        self.na, self.nb, self.nc = pack(dec.a), pack(dec.b), pack(dec.c)

    def growth_bound(self, t, rho):
        s, eps, w = self.s, self.eps, self.w
        e00, e01, e11 = w.e00, w.e01, w.e11
        phiv = s.phi_values(t, rho)
        dphiv = {zk: s.sectors[d].eval(t, rho) for zk, d in s._dphi}
        sq02 = math.sqrt(s.p[(0, 2)].eval(t, rho))
        t1k = t ** (1.0 - w.kf)
        acc = e00
        acc += s.nbeta0.eval(rho) / e00 + s.nbeta1.eval(rho)
        for zk in self.low:
            if zk in self.na:
                acc += t / eps[zk] * _comp(self.na[zk], t, rho, phiv)
        for zk in self.high:
            if zk in self.na:
                acc += t1k * _comp(self.na[zk], t, rho, phiv)
        for zk in self.low:
            if zk in self.nb:
                acc += _comp(self.nb[zk], t, rho, phiv) / eps[zk]
        for pr in self.nc:
            acc += _comp(self.nc[pr], t, rho, phiv) * sq02
        acc += w.kf + e01 / e11
        acc += e11 * (s.dbeta0.eval(rho) / e00 + s.dbeta1.eval(rho))
        acc += e11 * (s.nbeta0.eval(rho) / e01 + s.nbeta1.eval(rho) / e11)
        for zk in self.low:
            if zk in self.na:
                acc += (e11 / eps[zk] * t
                        * _comp_drho(self.na[zk], t, rho, phiv, dphiv))
        for zk in self.high:
            if zk in self.na:
                acc += e11 * t1k * _comp_drho(self.na[zk], t, rho,
                                              phiv, dphiv)
        for zk in self.low:
            if zk in self.nb:
                acc += (e11 / eps[zk]
                        * _comp_drho(self.nb[zk], t, rho, phiv, dphiv))
        for pr in self.nc:
            acc += e11 * _comp_drho(self.nc[pr], t, rho, phiv, dphiv) * sq02
        return acc

    def transport_rate(self, t, rho):
        s, eps, e11, kf = self.s, self.eps, self.w.e11, self.w.kf
        phiv = s.phi_values(t, rho)
        sq02 = math.sqrt(s.p[(0, 2)].eval(t, rho))
        tk = t ** kf
        t1k = t ** (1.0 - kf)
        acc = tk / e11
        for zk in self.low:
            if zk in self.na:
                acc += e11 / eps[zk] * t * _comp(self.na[zk], t, rho, phiv)
        for zk in self.high:
            if zk in self.na:
                acc += e11 * t1k * _comp(self.na[zk], t, rho, phiv)
        for zk in self.low:
            if zk in self.nb:
                acc += e11 / eps[zk] * _comp(self.nb[zk], t, rho, phiv)
        for pr in self.nc:
            acc += (4.0 * e11 / 3.0) * _comp(self.nc[pr], t, rho, phiv) * sq02
        acc += 1.5 / e11 * sq02
        return acc

    def constants(self):
        s, eps, P = self.s, self.eps, self.P
        sig, R = float(P.sigma0), float(P.R0)
        e11, kf = self.w.e11, self.w.kf
        phiv = s.phi_values(sig, R)
        L = 2.0 * max(phiv.values(), default=0.0)
        H0 = s.nbeta0.eval_frac(P.R0) / P.R0 if P.R0 > 0 else Frac(0)
        H1 = s.nbeta1.eval_frac(P.R0) / P.R0 if P.R0 > 0 else Frac(0)
        sup_a = {zk: _comp(self.na[zk], sig, R, phiv) for zk in self.na}
        sup_c = {pr: _comp(self.nc[pr], sig, R, phiv) for pr in self.nc}
        b_lin = {zk: self.nb[zk][0].z_linear_bound(P.R0, Frac(L))
                 for zk in self.nb}
        K1 = 1.0 / e11
        for zk in self.low:
            if zk in sup_a:
                K1 += e11 / eps[zk] * sig ** (1.0 - kf) * sup_a[zk]
        for zk in self.high:
            if zk in sup_a:
                K1 += e11 * sig ** (1.0 - 2.0 * kf) * sup_a[zk]
        K2 = 0.0
        for zk in self.low:
            if zk in b_lin:
                K2 += e11 / eps[zk] * float(b_lin[zk])
        K3 = 1.5 / e11
        for pr in self.nc:
            K3 += (4.0 * e11 / 3.0) * sup_c[pr]
        inv_eps = sum(1.0 / eps[zk] for zk in self.low)
        return {
            "H0": float(H0), "H1": float(H1), "L": L,
            "b_linear": {f"{zk.i},{','.join(map(str, zk.alpha))}": float(v)
                         for zk, v in sorted(b_lin.items(),
                                             key=lambda kv: _zkey_sort(kv[0]))},
            "K1": K1, "K2": K2, "K3": K3,
            "C1": K1, "C2": K2 * inv_eps, "C3": K2 * len(self.high),
            "C4": K3,
        }


_Z11_EXTRA = [_jet_term(1, 1, [(1, 1, 2)]),
              _jet_term(2, 0, [(0, 2, 2)], den=7, x_pow=1),
              _jet_term(3, 0, [(0, 0, 1), (0, 1, 1)], den=5, x_pow=1)]

# linear terms with x: beta0 and beta1 depend on x, so A's terms in rho
# alone are not 0 and their sum order shows in the bits
_X_BETAS_EXTRA = [_jet_term(1, 0, [(0, 0, 1)], den=3, x_pow=1),
                  _jet_term(1, 0, [(1, 0, 1)], den=7, x_pow=2)]


def _four_families_doc(extra):
    return {"name": "four-families", "m": 2, "n": 1,
            "terms": _FOUR_FAMILIES + extra,
            "truncation": {"K_t": 6, "K_x": 8, "K_z": 4}}


def _four_families(extra):
    return _split(parse_equation(_four_families_doc(extra)), 3)


def _premise_doc(case):
    # a document and the base order its other tests solve it to
    if case.startswith("remark3"):
        return json.loads(read_equation_source(case)[0]), 4
    if case == "dense_0_0":
        return json.loads((GOLDEN_INPUTS / "dense_0_0.json").read_text()), 4
    return _four_families_doc({"four-families": [],
                               "with-z11-host": _Z11_EXTRA,
                               "with-x-betas": _X_BETAS_EXTRA}[case]), 3


@pytest.mark.parametrize("case", ["remark3", "remark3_forced", "dense_0_0",
                                  "four-families", "with-z11-host",
                                  "with-x-betas"])
def test_no_stage_raises_the_z_degree(case):
    # SeriesTXZ has no z-degree cap, so a right-hand side is the whole
    # polynomial in z its document lists (at most K_z), and the shift, the
    # basis change, the split and the recombination must not raise that
    # degree: a stage that did would grow an untruncated series, which this
    # catches.  An a or b term carries one host factor and a c term two.
    doc, order = _premise_doc(case)
    eq = parse_equation(doc)
    H = build_shifted_rhs(eq, solve_formal(eq, order).u)
    dec = normal_form(H, eq.char_exponents())

    def degrees(s, hosts=0):
        return {_nu_degree(nu) + hosts for _, _, nu in s.terms}

    top = max(degrees(eq.F))
    assert top <= doc["truncation"]["K_z"]
    for s in (H, dec.theta_rhs, reconstruct(dec)):
        assert max(degrees(s)) <= top
    for hosts, family in ((1, dec.a), (1, dec.b), (2, dec.c)):
        assert all(max(degrees(s, hosts)) <= top for s in family.values())


@pytest.mark.parametrize(
    "extra", [[], _Z11_EXTRA, _X_BETAS_EXTRA],
    ids=["four-families", "with-z11-host", "with-x-betas"])
def test_compiled_families_match_keyed_loops(extra):
    # bit-identical, not approximately equal: the reports depend on it.  The
    # second equation adds an a-host (1,(1,)), which lambda_keys puts after
    # the second-order host (0,(2,)) but every sum takes first, and moves
    # the b and c coefficients off 1 so that no product is exact.  The third
    # makes beta0 and beta1 depend on x.
    cd, dec = _four_families(extra)
    assert dec.a and dec.b and dec.c
    hosts = {sum(zk.alpha) for zk in dec.a}
    assert 2 in hosts and hosts - {2}
    rng = random.Random(2718)
    for _ in range(4):
        w = SeriesTX.zero(1, 6, 8)
        for _ in range(3):
            w = w + SeriesTX.monomial(1, 6, 8, Frac(rng.randint(1, 9),
                                                    rng.randint(1, 9)),
                                      rng.randint(1, 2), (rng.randint(0, 4),))
        prof = profile_family(w, cd)
        system = BarrierSystem(dec, prof)
        chosen, _ = choose_params(cd, system)
        # the chosen weights and box, then random ones, on the one system:
        # constants() reads the box, and other weights move every product
        variants = [chosen] + [
            chosen._replace(eps11=Frac(rng.randint(1, 99), 100),
                            kappa=Frac(rng.randint(1, 49), 100),
                            sigma0=Frac(1, 2 ** rng.randint(0, 12)),
                            R0=Frac(rng.randint(1, 99), 100))
            for _ in range(9)]
        for params in variants:
            keyed = _KeyedSystem(BarrierSystem(dec, prof), dec, params)
            assert system.constants(params) == keyed.constants()
            sig, R = float(params.sigma0), float(params.R0)
            points = [(sig, R), (0.0, 0.5), (sig, 0.0)]
            points += [(sig * 10.0 ** rng.uniform(-4, 0), R * rng.random())
                       for _ in range(20)]
            for t, rho in points:
                assert (system.growth_bound(params, t, rho)
                        == keyed.growth_bound(t, rho))
                assert (system.transport_rate(params, t, rho)
                        == keyed.transport_rate(t, rho))


@pytest.mark.parametrize("extra", [None, [], _Z11_EXTRA],
                         ids=["remark3", "four-families", "with-z11-host"])
def test_grid_matches_per_point_evaluators_bitwise(extra):
    # bit-identical, not approximately equal: the reports depend on it.  On
    # remark3 and on both four-families equations, where every coefficient
    # family is non-empty, with t x^2 and a seeded test function; the grid
    # includes the rho = 0 column and the t = sigma0 row
    if extra is None:
        eq = load_equation("remark3")
        cd = eq.char_exponents()
        dec, (k_t, k_x) = normal_form(build_shifted_rhs(eq), cd), (10, 12)
    else:
        (cd, dec), (k_t, k_x) = _four_families(extra), (6, 8)
    rng = random.Random(3141)
    seeded = SeriesTX.zero(1, k_t, k_x)
    for _ in range(3):
        seeded = seeded + SeriesTX.monomial(
            1, k_t, k_x, Frac(rng.randint(1, 9), rng.randint(1, 9)),
            rng.randint(1, 2), (rng.randint(0, 4),))
    for w in (SeriesTX.monomial(1, k_t, k_x, 1, 1, (2,)), seeded):
        prof = profile_family(w, cd)
        grid_sys, point_sys = BarrierSystem(dec, prof), BarrierSystem(dec, prof)
        params, _ = choose_params(cd, grid_sys)
        ts, rhos = barrier_grid(float(params.sigma0), float(params.R0), 6, 5)
        assert rhos[0] == 0.0 and ts[0] == float(params.sigma0)
        seen = []
        for t, rho, tk, q, dq, tdq, v, A, B in grid_points(
                grid_sys.grid(params, ts, rhos), rhos):
            seen.append((t, rho))
            jet = _old_barrier_parts(point_sys, params, t, rho)
            assert (q, dq, tdq) == jet[:3]
            assert q == point_sys.barrier(params, t, rho)
            assert list(jet[3].values()) == list(v[:5])
            assert (v[5], v[6]) == jet[4:]
            assert tk == t ** float(params.kappa)
            assert A == point_sys.growth_bound(params, t, rho)
            assert B == point_sys.transport_rate(params, t, rho)
        assert seen == [(t, rho) for t in ts for rho in rhos]
        # work counts phi twice per point the grid yields, as A and B read
        # it, and once in constants(); the grid computes it once per point
        assert grid_sys.work(len(ts), len(rhos))["phi_evals"] \
            == 2 * len(seen) + 1


def test_grid_sector_evals_do_not_grow_with_nt(remark3_setup, monkeypatch):
    # every point reads the column caches: SectorMajorant.eval runs only in
    # constants(), whatever the grid
    _, cd, dec, w, prof, params, _ = remark3_setup
    calls = [0]
    ev = SectorMajorant.eval

    def counting(self, t, rho):
        calls[0] += 1
        return ev(self, t, rho)

    monkeypatch.setattr(SectorMajorant, "eval", counting)
    counts = {}
    for nt, nrho in ((10, 10), (20, 10), (10, 20), (20, 20)):
        calls[0] = 0
        verify_barrier(BarrierSystem(dec, prof), params, nt=nt, nrho=nrho)
        counts[(nt, nrho)] = calls[0]
    assert counts[(20, 10)] == counts[(10, 10)], counts
    assert counts[(10, 20)] == counts[(10, 10)], counts
    assert counts[(20, 20)] == counts[(10, 10)], counts


@functools.cache
def _kernel_case(source):
    # the equation's exponent data, the system certify builds on source,
    # with a seeded w of three terms, and the params it chooses.  A flag
    # after remark3 takes certify's w instead: of a seed, or of a --w spec
    name, *flag = source.split()
    if name.startswith("remark3"):
        (cd, dec), (k_t, k_x) = _split(load_equation(name)), (10, 12)
    elif name == "no-packs":
        # the linear terms of four-families with x-dependent betas only
        doc = {**_four_families_doc(_X_BETAS_EXTRA),
               "terms": _FOUR_FAMILIES[:2] + _X_BETAS_EXTRA}
        (cd, dec), (k_t, k_x) = _split(parse_equation(doc), 3), (6, 8)
    else:
        extra = {"with-x-betas": _X_BETAS_EXTRA,
                 "with-z11-host": _Z11_EXTRA}[name]
        (cd, dec), (k_t, k_x) = _four_families(extra), (6, 8)
    rng = random.Random(577)
    w = SeriesTX.monomial(1, k_t, k_x, 1, 1, (2,))
    for _ in range(3):
        w = w + SeriesTX.monomial(
            1, k_t, k_x, Frac(rng.randint(1, 9), rng.randint(1, 9)),
            rng.randint(1, 2), (rng.randint(0, 4),))
    if flag:
        w = (cli.random_test_function(int(flag[1]), 1, k_t, k_x)
             if flag[0] == "--seed" else cli._parse_w(flag[1], 1, k_t, k_x))
    system = BarrierSystem(dec, profile_family(w, cd))
    return cd, system, choose_params(cd, system)[0]


def _kernel_system(source):
    return _kernel_case(source)[1:]


def test_kernel_property_systems_cover_every_pack_kind():
    # the x-betas decomposition has every kind of pack, packs that read
    # phi, and terms of A in rho alone that are not 0; its linear part
    # alone has no pack, so A and B close without one
    system, _ = _kernel_system("with-x-betas")
    assert {kind for kind, _ in system.kinds} == {"a1", "a2", "b", "c"}
    assert any(nu for pk in system.packs for _, nu in pk[0].profiles)
    assert not system.nbeta0.is_zero() and not system.nbeta1.is_zero()
    system, _ = _kernel_system("no-packs")
    assert not system.packs and not system.nbeta0.is_zero()


# the z11 host adds c and b packs that depend on rho, and no-packs has
# none.  These five have sectors with levels in t (12, None); the last four
# are remark3 with (12, 12, None) and (12, None, None), the w of certify's
# seeds 0 and 3, and with a zero level between nonzero ones and a run of
# three zero levels, from t x^2 + t^3 x and t x^2 + t^5 x
_SOURCES = ("remark3", "remark3_forced", "with-x-betas", "with-z11-host",
            "no-packs", "remark3 --seed 0", "remark3 --seed 3",
            "remark3 --w 1,1,2;1,3,1", "remark3 --w 1,1,2;1,5,1")


def test_kernel_property_systems_cover_the_level_patterns():
    # which t levels of the plan are kept: the grid folds a zero level
    # into the pass of the nonzero level before it, and two zero levels
    # into one pass
    kept = {tuple(idx is not None for idx in _kernel_system(s)[0]._levels)
            for s in _SOURCES}
    assert kept == {(True, False), (True, True, False), (True, False, False),
                    (True, False, True, False),
                    (True, False, False, False, True, False)}


@pytest.mark.parametrize("source", _SOURCES)
def test_kernel_plan_computes_each_value_once(source):
    # every kept t level of the plan indexes exactly the twelve sector
    # columns of its level, phi of a key reads its sector there, and a
    # pack's plan is one segment for its value, which A and B both read,
    # one for its rho-derivative and one per nonzero jet derivative
    system, _ = _kernel_system(source)
    kept = [idx for idx in system._levels if idx is not None]
    assert kept == [list(range(12 * j, 12 * j + 12))
                    for j in range(len(kept))]
    assert system._nb == 12 * len(kept)
    at = dict(system._phi)
    assert set(at.values()) <= set(range(12))
    for (prof, _, dz), (segs, dphi) in zip(system.packs, system._plan,
                                           strict=True):
        assert len(segs) == 2 + len(dz) == 2 + len(dphi)
        assert [nu for _, nu, _ in segs[0]] \
            == [tuple((at[zk], p) for zk, p in nu)
                for _, _, nu in prof.horner_terms()]


# an axis as fractions of the box: t = sigma0 * 10^(-4 f), rho = R0 * f,
# so f = 0 is the row t = sigma0 and the column rho = 0
_AXIS = st.lists(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
                 min_size=1, max_size=6)


# weights and box, drawn from a seed: the chosen ones are mostly powers
# of two, under which many orders of the same products give the same
# bits, and in a small box a last-bit change of a small term drowns in the
# sums.  Weights span five decades, so that each term leads A somewhere
def _drawn_params(params, seed):
    rng = random.Random(seed)
    eps = [Frac(rng.randint(1, 99), 10 ** rng.randint(0, 4)) for _ in "012"]
    return params._replace(eps00=eps[0], eps01=eps[1], eps11=eps[2],
                           kappa=Frac(rng.randint(1, 99), 100),
                           R0=Frac(rng.randint(1, 99), 100),
                           sigma0=Frac(1, 2 ** rng.randint(0, 12)))


_SEED = st.none() | st.integers(0, 2 ** 32 - 1)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(source=st.sampled_from(_SOURCES), seed=_SEED, seed2=_SEED, tf=_AXIS,
       rf=_AXIS)
@example(source="remark3", seed=None, seed2=None, tf=[0.0], rf=[0.0])
@example(source="remark3_forced", seed=None, seed2=None, tf=[0.0], rf=[0.0])
@example(source="with-x-betas", seed=None, seed2=None, tf=[0.0], rf=[0.0])
@example(source="with-z11-host", seed=None, seed2=None, tf=[0.0], rf=[0.0])
@example(source="no-packs", seed=None, seed2=None, tf=[0.0], rf=[0.0])
@example(source="remark3 --seed 0", seed=None, seed2=None, tf=[0.0, 1.0],
         rf=[0.0, 1.0])
@example(source="remark3 --seed 3", seed=None, seed2=None, tf=[0.0, 1.0],
         rf=[0.0, 1.0])
@example(source="remark3 --w 1,1,2;1,3,1", seed=None, seed2=None,
         tf=[0.0, 1.0], rf=[0.0, 1.0])
@example(source="remark3 --w 1,1,2;1,5,1", seed=None, seed2=None,
         tf=[0.0, 1.0], rf=[0.0, 1.0])
def test_grid_matches_per_point_oracle_bitwise(source, seed, seed2, tf, rf):
    # bit-identical, compared by repr so that -0.0 would show: every value
    # the grid yields against the per-point formulas it replaced, on grids
    # of 1 to 36 points, at the chosen weights and box or at drawn ones,
    # then at a second chosen or drawn params on the same system
    system, chosen = _kernel_system(source)

    def rows(points):
        return repr([(*p[:6], list(p[6]), *p[7:]) for p in points])

    for s in (seed, seed2):
        params = chosen if s is None else _drawn_params(chosen, s)
        sig, R = float(params.sigma0), float(params.R0)
        ts = [sig * 10.0 ** (-4.0 * f) for f in tf]
        rhos = [R * f for f in rf]
        assert rows(grid_points(system.grid(params, ts, rhos), rhos)) \
            == rows(barrier_point(system, params, t, rho)
                    for t in ts for rho in rhos)


def _by_repr(points):
    return repr([(*p[:6], list(p[6]), *p[7:]) for p in points])


@pytest.mark.parametrize("source", _SOURCES)
def test_a_point_has_the_same_bits_in_every_row(source):
    # the grid works a t row at a time, over its rhos; a point's q, A and B
    # must not depend on the row around it, so a one-point call gives, by
    # repr, what the 7 x 5 grid yields there, at the chosen and at drawn
    # weights and box
    system, chosen = _kernel_system(source)
    for params in (chosen, _drawn_params(chosen, 4242)):
        ts, rhos = barrier_grid(float(params.sigma0), float(params.R0), 7, 5)
        for t, rho, _, q, _, _, _, A, B in grid_points(
                system.grid(params, ts, rhos), rhos):
            assert repr((system.barrier(params, t, rho),
                         system.growth_bound(params, t, rho),
                         system.transport_rate(params, t, rho))) \
                == repr((q, A, B))


def test_grid_mixed_level_and_thin_grids_match_the_oracle_bitwise():
    # a w whose sectors have four levels in t: the t^2 terms have x-degree
    # 4 or more, so every sector's t^2 slice, and the phi copies, are zero
    # at rho = 0 and not at rho > 0; below the lead, t^2 is such a mixed
    # level, t^1 is nonzero at every rho and t^0 is empty.  The grid, on
    # rows of several rhos and on 1 x N and N x 1 grids, must give every
    # point the oracle's bits
    cd, dec = _four_families(_X_BETAS_EXTRA)
    rng = random.Random(4711)
    w = SeriesTX.zero(1, 6, 8)
    for t_pow, x_pow in ((1, 2), (2, 4), (2, 5), (3, 1)):
        w = w + SeriesTX.monomial(1, 6, 8, Frac(rng.randint(1, 9),
                                                rng.randint(1, 9)),
                                  t_pow, (x_pow,))
    system = BarrierSystem(dec, profile_family(w, cd))
    top = max(len(m.horner()) for m in system.sectors)
    assert top >= 3
    _, chosen = _kernel_system("with-x-betas")
    sig, R = float(chosen.sigma0), float(chosen.R0)
    ts, rhos = barrier_grid(sig, R, 7, 5)
    assert rhos[0] == 0.0

    def zero_at(k, rho):
        return all(m.slice(k).eval(rho) == 0.0 for m in system.sectors)

    assert any(len({zero_at(k, rho) for rho in rhos}) == 2
               for k in range(top - 1))
    for params in (chosen, _drawn_params(chosen, 99)):
        for grid_ts, grid_rhos in ((ts, rhos), (ts[:1], rhos),
                                   (ts, rhos[:1]), (ts, rhos[-1:]),
                                   (ts[3:4], rhos[2:3])):
            assert _by_repr(grid_points(
                system.grid(params, grid_ts, grid_rhos), grid_rhos)) \
                == _by_repr(barrier_point(system, params, t, rho)
                            for t in grid_ts for rho in grid_rhos)


@pytest.mark.parametrize("source", ["remark3", "with-x-betas"])
def test_grid_python_calls_do_not_grow_with_points(source):
    # a grid point runs inline: the package functions the grid calls (its
    # own resumptions and comprehensions aside) do not grow from 100 to
    # 400 points, on 10 or on 20 columns.  Each point called about ten
    # helpers when q, A and B were a chain of them
    system, params = _kernel_system(source)
    sig, R = float(params.sigma0), float(params.R0)
    grid_code = BarrierSystem.grid.__code__
    package = str(Path(certificate.__file__).parent)

    def calls(nt, nrho):
        seen = collections.Counter()

        def profile(frame, event, arg):
            code = frame.f_code
            if (event == "call" and code is not grid_code
                    and code.co_filename.startswith(package)
                    and not code.co_name.startswith("<")):
                seen[f"{code.co_filename}:{code.co_name}"] += 1

        rows = system.grid(params, *barrier_grid(sig, R, nt, nrho))
        sys.setprofile(profile)
        try:
            n = sum(len(q) for _, _, q, *_ in rows)
        finally:
            sys.setprofile(None)
        assert n == nt * nrho
        return seen

    assert calls(40, 10) == calls(10, 10)
    assert calls(20, 20) == calls(10, 10)


def _record_edge_pairs():
    tiny = 5e-324                                   # smallest subnormal
    specials = [0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308, 1.0, -1.0,
                1e300, -1e300, math.inf, -math.inf, math.nan]
    pairs = [(a, b) for a in specials for b in specials]
    rng = random.Random(1618)
    for _ in range(2000):
        rhs = rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(-320, 300)
        # lhs just above rhs, inside and beyond the slack, or anywhere
        lhs = rng.choice([rhs * (1 + 10.0 ** rng.uniform(-17, -7)),
                          allowed(rhs), math.nextafter(allowed(rhs), math.inf),
                          rng.uniform(-2.0, 2.0) * rhs])
        pairs.append((lhs, rhs))
    return pairs


def test_record_early_return_keeps_every_verdict():
    # record returns early on lhs <= rhs; the verdict must equal the full
    # rule not lhs <= allowed(rhs) for signed zeros, subnormals, infinities,
    # nan on either side and seeded random pairs near the slack.  A nan on
    # either side fails; an example writes a non-finite side as its repr and
    # worst keeps only finite excesses.  Where lhs <= rhs fails, miss gives
    # record's violations, worst and examples without counting the check
    for lhs, rhs in _record_edge_pairs():
        chk = _Check()
        chk.record(lhs, rhs, 0.5, 0.25)
        bad = not lhs <= allowed(rhs)
        if lhs == rhs == -math.inf:
            # allowed(-inf) is nan, but lhs <= rhs passes before the rule,
            # in record as in the inline grid checks
            bad = False
        assert chk.checked == 1
        assert chk.violations == int(bad), (lhs, rhs)
        if math.isnan(lhs) or math.isnan(rhs):
            assert bad
        shown = [x if math.isfinite(x) else repr(x) for x in (lhs, rhs)]
        assert chk.examples == ([{"t": 0.5, "rho": 0.25, "lhs": shown[0],
                                  "rhs": shown[1]}] if bad else [])
        if bad:
            excess = lhs - allowed(rhs)
            assert chk.worst == (max(0.0, excess) if math.isfinite(excess)
                                 else 0.0)
        if not lhs <= rhs:
            # the grid's fail path: past record's own test, and uncounted
            missed = _Check()
            missed.miss(lhs, rhs, 0.5, 0.25)
            assert missed.checked == 0
            assert repr((missed.violations, missed.worst, missed.examples)) \
                == repr((chk.violations, chk.worst, chk.examples))


def _faulty(system, seed):
    # system.grid with one seeded fault per point: one of the 15 checks has
    # its lhs moved onto rhs * (1 +- f), f log-uniform from well inside the
    # slack of allowed(rhs) to far past it, or q is scaled up.  The faults
    # are drawn point by point in t-major order, and each row is yielded
    # as grid yields it, lists over rhos and the sector rows in v
    grid = system.grid

    def run(P, ts, rhos):
        hf, e00, e01, e11 = (float(f) for f in (P.h, P.eps00, P.eps01,
                                                P.eps11))
        C1, C2, C3, C4 = (BarrierSystem(system.dec, system.profiles)
                          .constants(P)[c] for c in ("C1", "C2", "C3", "C4"))
        rng = random.Random(seed)
        for row in grid(P, ts, rhos):
            t, tk, *_ = row
            points = []
            for _, _, _, q, dq, tdq, v, A, B in grid_points([row], rhos):
                v = list(v)
                pick = rng.randrange(16)
                up = 1.0 + rng.choice([-1, 1]) * 10.0 ** rng.uniform(-12, 0.5)
                if pick == 0:
                    tdq = (A * q + B * dq) * up - 2.0 * hf * q
                elif pick == 1:
                    A = hf * up
                elif pick < 8:
                    i, share = [(0, q / e00), (1, q), (2, q / e01),
                                (3, q / e11), (4, q ** (2.0 / 3.0)),
                                (4, q / tk)][pick - 2]
                    v[i] = share * up
                elif pick < 14:
                    i, share = [(2, dq / e00), (3, dq), (4, dq / e01),
                                (5, dq / e11),
                                (6, (2.0 / 3.0) * dq / math.sqrt(v[4])
                                 if v[4] else 0.0), (6, dq / tk)][pick - 8]
                    v[i] = share * up
                elif pick == 14:
                    B = (C1 * tk + C2 * q + C3 * q ** (2.0 / 3.0)
                         + C4 * q ** (1.0 / 3.0)) * up
                else:
                    q *= abs(up) + 1.0
                points.append((q, dq, tdq, v, A, B))
            q, dq, tdq, vs, A, B = map(list, zip(*points))
            yield t, tk, q, dq, tdq, list(zip(*vs)), A, B
    return run


def _nan_a_and_v0(system):
    # system.grid with A and the first sector row nan at every point
    grid = system.grid

    def run(P, ts, rhos):
        for t, tk, q, dq, tdq, v, A, B in grid(P, ts, rhos):
            nans = [math.nan] * len(rhos)
            yield t, tk, q, dq, tdq, [nans, *v[1:]], nans, B
    return run


def _inline_and_oracle(dec, prof, params, nt, nrho, fault=None):
    # verify_barrier's grid families, r_sup and work next to the oracle's,
    # each on its own system, both reading the same (possibly faulty) grid
    systems = [BarrierSystem(dec, prof) for _ in range(2)]
    if fault is not None:
        for system in systems:
            system.grid = fault(system)
    rep = verify_barrier(systems[0], params, nt, nrho)
    want = grid_checks_by_record(systems[1], params, nt, nrho)
    got = {"checks": {name: rep["checks"][name] for name in want["checks"]},
           "r_sup": rep["r_sup"], "work": rep["work"]}
    return got, want


@pytest.mark.parametrize("source", ["remark3", "remark3_forced",
                                    "four-families", "with-z11-host",
                                    "with-x-betas"])
def test_inline_grid_checks_equal_record_oracle(source):
    # exactly equal, compared by repr so that -0.0 and nan would show: the
    # counts, worst excesses, first five examples in grid order, r_sup and
    # work, on clean and on faulty grids; a non-square grid and a seeded w
    # whose sectors have at least three Horner levels in t
    if source.startswith("remark3"):
        (cd, dec), (k_t, k_x) = _split(load_equation(source)), (10, 12)
    else:
        extra = {"four-families": [], "with-z11-host": _Z11_EXTRA,
                 "with-x-betas": _X_BETAS_EXTRA}[source]
        (cd, dec), (k_t, k_x) = _four_families(extra), (6, 8)
    rng = random.Random(1729)
    seeded = SeriesTX.monomial(1, k_t, k_x, 1, 3, (1,))
    for _ in range(3):
        seeded = seeded + SeriesTX.monomial(
            1, k_t, k_x, Frac(rng.randint(1, 9), rng.randint(1, 9)),
            rng.randint(1, 3), (rng.randint(0, 4),))
    failed = {}
    for w in (SeriesTX.monomial(1, k_t, k_x, 1, 1, (2,)), seeded):
        prof = profile_family(w, cd)
        system = BarrierSystem(dec, prof)
        params, _ = choose_params(cd, system)
        if w is seeded:
            levels = system.sectors[0].horner()
            assert len(levels) >= 3
        for nt, nrho in ((7, 5), (3, 11)):
            got, want = _inline_and_oracle(dec, prof, params, nt, nrho)
            assert repr(got) == repr(want)
            got, want = _inline_and_oracle(
                dec, prof, params, nt, nrho,
                lambda s: _faulty(s, f"{source}/{len(w.terms)}/{nt}x{nrho}"))
            assert repr(got) == repr(want)
            for name, c in got["checks"].items():
                failed[name] = failed.get(name, 0) + c["violations"]
    # every family fails, and more than five times on one grid, so that the
    # five examples are a choice
    assert all(failed.values()) and len(failed) == 5, failed
    assert max(c["violations"] for c in got["checks"].values()) > 5


def test_inline_grid_checks_fail_nan_as_record_does(remark3_setup):
    # not lhs <= rhs holds for a nan, so A = nan fails growth_bound_le_h and
    # barrier_dineq (its rhs is nan) at every point, and v[0] = nan fails
    # phi_vs_q at every point besides the clean grid's violations
    _, cd, dec, w, prof, params, _ = remark3_setup
    bad = params._replace(eps00=10 * params.h)
    clean = verify_barrier(BarrierSystem(dec, prof), bad, 7, 5)["checks"]
    assert clean["growth_bound_le_h"]["violations"] == 35
    got, want = _inline_and_oracle(dec, prof, bad, 7, 5, _nan_a_and_v0)
    assert repr(got) == repr(want)
    checks = got["checks"]
    for name, per_point in (("growth_bound_le_h", 1), ("barrier_dineq", 1),
                            ("phi_vs_q", 6)):
        assert checks[name]["checked"] == per_point * 35
        assert not checks[name]["ok"]
    assert checks["growth_bound_le_h"]["violations"] == 35
    assert checks["barrier_dineq"]["violations"] == 35
    assert checks["phi_vs_q"]["violations"] >= 35
    assert all(e["lhs"] == "nan" for e in checks["growth_bound_le_h"]
               ["examples"])
    assert all(e["rhs"] == "nan" for e in checks["barrier_dineq"]["examples"])


def _inf_a(system):
    # system.grid with A = inf at every point
    grid = system.grid

    def run(P, ts, rhos):
        for t, tk, q, dq, tdq, v, A, B in grid(P, ts, rhos):
            yield t, tk, q, dq, tdq, v, [math.inf] * len(rhos), B
    return run


@pytest.mark.parametrize("fault", [_nan_a_and_v0, _inf_a])
def test_nonfinite_grid_report_is_canonical_json(remark3_setup, fault):
    # a grid that yields nan or inf still gives a report that canonical
    # JSON writes: the failing sides are strings in examples and every
    # worst_excess is a finite number
    _, cd, dec, w, prof, params, _ = remark3_setup
    system = BarrierSystem(dec, prof)
    system.grid = fault(system)
    rep = verify_barrier(system, params, 7, 5)
    back = json.loads(cli.canonical_json(rep))
    assert back == rep and not rep["ok"]
    gb = back["checks"]["growth_bound_le_h"]
    assert gb["violations"] == 35
    assert [e["lhs"] for e in gb["examples"]] \
        == 5 * [repr(math.nan if fault is _nan_a_and_v0 else math.inf)]
    for name, c in back["checks"].items():
        if "worst_excess" in c:
            assert math.isfinite(c["worst_excess"]), name


def test_certify_with_an_infinite_barrier_writes_a_canonical_report(
        monkeypatch, tmp_path):
    # q = inf at verify_barrier's 50 x 50 points only: r_sup is written as
    # "inf", and certify writes a canonical report with exit 1 (remark3's
    # envelope has C2 = 0, and 0 * inf is nan) instead of a traceback
    grid = BarrierSystem.grid

    def inf_q(self, P, ts, rhos):
        for t, tk, q, *rest in grid(self, P, ts, rhos):
            yield t, tk, [math.inf] * len(q) if len(ts) == 50 else q, *rest

    monkeypatch.setattr(BarrierSystem, "grid", inf_q)
    out = tmp_path / "report.json"
    assert cli.main(["certify", "remark3", "--out", str(out)]) == 1
    text = out.read_text()
    report = json.loads(text)
    assert text == cli.canonical_json(report) + "\n"
    assert "error" not in report
    barrier = report["results"]["barrier"]
    assert barrier["r_sup"] == "inf"
    assert not barrier["checks"]["envelope"]["ok"]


def _slots_over_shares(system):
    # system.grid with three of the seven slot values v[0..6] raised far
    # over every share of q and dq at each point, the three turning with
    # the point's t and rho index, so that the points of a row fail
    # different phi_vs_q and dphi_vs_dq checks
    grid = system.grid

    def run(P, ts, rhos):
        for j, (t, tk, q, dq, tdq, v, A, B) in enumerate(grid(P, ts, rhos)):
            v = [list(col) for col in v]
            for i, (a, b) in enumerate(zip(q, dq)):
                for m in (0, 2, 3):
                    v[(i + j + m) % 7][i] = 1e3 * (1.0 + a + b / tk)
            yield t, tk, q, dq, tdq, v, A, B
    return run


@pytest.mark.parametrize("nt,nrho", [(1, 9), (9, 1), (7, 5)])
def test_row_checks_keep_the_oracles_examples(remark3_setup, nt, nrho):
    # the row checks pass record their candidates point by point and, at a
    # point, in check order: with more than five violations in each family
    # the five examples are the oracle's first five, whose points and
    # checks are interleaved
    _, cd, dec, w, prof, params, _ = remark3_setup
    got, want = _inline_and_oracle(dec, prof, params, nt, nrho,
                                   _slots_over_shares)
    assert repr(got) == repr(want)
    for name in ("phi_vs_q", "dphi_vs_dq"):
        chk = got["checks"][name]
        assert chk["violations"] > 5, (name, chk)
        rhos = [e["rho"] for e in chk["examples"]]
        ts = [e["t"] for e in chk["examples"]]
        # the first five are not one point's, nor one check's at each point
        assert len(set(zip(ts, rhos))) > 1
        assert len(set(zip(ts, rhos))) < 5


# -- the grid report -----------------------------------------------------


def test_barrier_grid_contains_corner():
    # t descends from the corner through four decades; rho is linear
    ts, rhos = barrier_grid(Frac(1, 64), Frac(1), 9, 5)
    assert ts[0] == pytest.approx(1 / 64)
    assert ts[-1] == pytest.approx(1 / 64 * 1e-4)
    assert rhos[0] == 0.0 and rhos[-1] == pytest.approx(1.0)
    assert all(ts[i] > ts[i + 1] for i in range(len(ts) - 1))


def test_verify_barrier_report(remark3_setup):
    _, cd, dec, w, prof, params, _ = remark3_setup
    rep = verify_barrier(BarrierSystem(dec, prof), params, nt=50, nrho=50)
    checks = rep["checks"]
    # structural identities hold exactly
    assert checks["reconstruction"]["ok"]
    assert checks["profile_domination"]["ok"]
    assert checks["profile_step"]["ok"]
    # trivially-true-by-construction families hold at every grid point
    assert checks["growth_bound_le_h"]["ok"]
    assert checks["growth_bound_le_h"]["violations"] == 0
    assert checks["phi_vs_q"]["ok"] and checks["phi_vs_q"]["checked"] == 15000
    assert checks["dphi_vs_dq"]["ok"] and checks["dphi_vs_dq"]["checked"] == 15000
    assert checks["envelope"]["ok"]
    # the one genuinely solution-dependent inequality fails for this w,
    # which is not a solution of the recentred equation; the counts and
    # the worst excess are pinned so regressions surface loudly
    assert not checks["barrier_dineq"]["ok"]
    assert checks["barrier_dineq"]["violations"] == 1668
    assert checks["barrier_dineq"]["worst_excess"] \
        == pytest.approx(0.02752532930283047, rel=1e-10)
    assert rep["r_sup"] == pytest.approx(0.18311633258938326, rel=1e-12)
    assert rep["ok"] is False


def test_verify_barrier_work_counters(remark3_setup):
    # remark3 has one coefficient pack, of kind c: 2 phi and 3 pack
    # evaluations per point, one of each in constants(); a second call on
    # the same system reports the same, whatever ran on it before
    _, cd, dec, w, prof, params, _ = remark3_setup
    system = BarrierSystem(dec, prof)
    for _ in range(2):
        rep = verify_barrier(system, params, nt=10, nrho=10)
        assert rep["work"] == {"grid_points": 100, "phi_evals": 201,
                               "coefficient_evals": 301}
        system.growth_bound(params, 0.01, 0.5)
        system.constants(params)


def test_verify_barrier_builds_no_majorant_per_grid_point(remark3_setup,
                                                         monkeypatch):
    _, cd, dec, w, prof, params, _ = remark3_setup
    built = [0]
    init = RhoPoly.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(RhoPoly, "__init__", counting)
    counts = []
    for side in (10, 20):
        built[0] = 0
        verify_barrier(BarrierSystem(dec, prof), params, nt=side, nrho=side)
        counts.append(built[0])
    assert counts[0] > 0
    assert counts[0] == counts[1]


def test_corrupted_eps00_breaks_growth_bound(remark3_setup):
    _, cd, dec, w, prof, params, _ = remark3_setup
    bad = params._replace(eps00=10 * params.h)
    rep = verify_barrier(BarrierSystem(dec, prof), bad, nt=20, nrho=20)
    chk = rep["checks"]["growth_bound_le_h"]
    assert not chk["ok"]
    assert chk["violations"] == 400       # 2 eps00 alone already exceeds h
