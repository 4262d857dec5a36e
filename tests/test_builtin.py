"""Bundled instances: schema validation, closed forms, residual grids."""

import itertools
import json

import pytest

from fuchsian.builtin import (BUILTIN_NAMES, MAX_COEFF_BITS, MAX_K_T,
                              MAX_K_X, MAX_K_Z, MAX_N, MAX_TERMS,
                              closed_form_eval, closed_form_series,
                              load_equation, parse_equation,
                              read_equation_source, remark2_jets)
from fuchsian.errors import IndexOutOfLambda, InputError
from fuchsian.series import SeriesTXZ, ZKey, lambda_keys
from fuchsian.solver import residual


def valid_doc():
    return {
        "name": "toy",
        "m": 2,
        "n": 1,
        "terms": [
            {"coeff": [-3, 1, 0, 1], "t_pow": 0, "x_pows": [0],
             "z_pows": [{"i": 1, "alpha": [0], "pow": 1}]},
        ],
        "truncation": {"K_t": 6, "K_x": 8, "K_z": 3},
    }


def test_all_builtins_load_and_validate():
    for name in BUILTIN_NAMES:
        eq = load_equation(name)
        assert eq.m == 2 and eq.n == 1
        assert eq.F.k_t >= 8


def test_load_equation_from_path(tmp_path):
    p = tmp_path / "toy.json"
    p.write_text(json.dumps(valid_doc()))
    eq = load_equation(p)
    assert eq.n == 1


def test_load_equation_unknown_name():
    with pytest.raises(InputError):
        load_equation("no_such_instance")


def test_load_equation_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(InputError):
        load_equation(p)


def test_load_equation_bad_utf8(tmp_path):
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"name": "caf\xe9"}')
    with pytest.raises(InputError):
        load_equation(p)


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.pop("terms"), "terms"),
    (lambda d: d.update(m="two"), "m"),
    (lambda d: d["terms"][0].update(coeff=[1, 0, 0, 1]), "coeff"),
    (lambda d: d["terms"][0].update(x_pows=[0, 0]), "x_pows"),
    (lambda d: d["terms"][0]["z_pows"][0].update(alpha=[0, 0]), "alpha"),
    (lambda d: d.update(truncation={"K_t": 6}), "truncation"),
    pytest.param(lambda d: d.update(truncation=[1, 2]), "truncation",
                 id="truncation-list"),
    # JSON true/false load as bool, a subclass of int: never an integer here
    pytest.param(lambda d: d.update(m=True), "m", id="m-bool"),
    # the equation is second order; no other order is accepted
    pytest.param(lambda d: d.update(m=1), "m must be 2", id="m-one"),
    pytest.param(lambda d: d.update(m=3), "m must be 2", id="m-three"),
    pytest.param(lambda d: d.update(n=True), "n", id="n-bool"),
    pytest.param(lambda d: d["truncation"].update(K_t=True), "K_t",
                 id="K_t-bool"),
    pytest.param(lambda d: d["truncation"].update(K_x=True), "K_x",
                 id="K_x-bool"),
    pytest.param(lambda d: d["truncation"].update(K_z=False), "K_z",
                 id="K_z-bool"),
    pytest.param(lambda d: d["terms"][0].update(t_pow=False), "t_pow",
                 id="t_pow-bool"),
    pytest.param(lambda d: d["terms"][0]["z_pows"][0].update(pow=True),
                 "pow", id="pow-bool"),
    pytest.param(lambda d: d["terms"][0]["z_pows"][0].update(i=True),
                 ".i ", id="i-bool"),
    pytest.param(lambda d: d["terms"][0].update(x_pows=[False]), "x_pows",
                 id="x_pows-bool"),
    pytest.param(lambda d: d["terms"][0]["z_pows"][0].update(alpha=[False]),
                 "alpha", id="alpha-bool"),
    pytest.param(lambda d: d["terms"][0].update(coeff=[-3, True, 0, 1]),
                 "coeff", id="coeff-bool"),
    pytest.param(lambda d: d["terms"][0].update(z_pows=5), "z_pows",
                 id="z_pows-int"),
    pytest.param(lambda d: d.update(name=5), "name must be a string",
                 id="name-int"),
    # limits, refused before any work
    pytest.param(lambda d: d.update(n=MAX_N + 1),
                 f"n must be at most {MAX_N}, got {MAX_N + 1}", id="n-limit"),
    pytest.param(lambda d: d["truncation"].update(K_t=MAX_K_T + 1),
                 f"truncation.K_t must be at most {MAX_K_T}", id="K_t-limit"),
    pytest.param(lambda d: d["truncation"].update(K_x=4000000),
                 f"truncation.K_x must be at most {MAX_K_X}, got 4000000",
                 id="K_x-limit"),
    pytest.param(lambda d: d["truncation"].update(K_z=MAX_K_Z + 1),
                 f"truncation.K_z must be at most {MAX_K_Z}", id="K_z-limit"),
    # a term's z-degree, the sum of its pows, may not pass K_z = 3
    pytest.param(lambda d: d["terms"][0]["z_pows"][0].update(pow=4),
                 "terms[0].z_pows must have z-degree at most truncation.K_z "
                 "= 3, got 4", id="z-degree-limit"),
    pytest.param(lambda d: d["terms"][0]["z_pows"].append(
        {"i": 0, "alpha": [0], "pow": 3}), "terms[0].z_pows must have "
        "z-degree at most truncation.K_z = 3, got 4", id="z-degree-sum-limit"),
    # a term past the t or x truncation, K_t = 6 and K_x = 8, is refused
    pytest.param(lambda d: d["terms"][0].update(t_pow=7),
                 "terms[0] is t^7 of x-degree 0, beyond the caps "
                 "truncation.K_t = 6, K_x = 8", id="t-pow-past-K_t"),
    pytest.param(lambda d: d["terms"][0].update(x_pows=[9]),
                 "terms[0] is t^0 of x-degree 9, beyond the caps "
                 "truncation.K_t = 6, K_x = 8", id="x-degree-past-K_x"),
    pytest.param(lambda d: d.update(terms=d["terms"] * (MAX_TERMS + 1)),
                 f"terms may hold at most {MAX_TERMS} entries", id="terms-limit"),
    pytest.param(lambda d: d["terms"][0].update(coeff=[-10 ** 400, 1, 0, 1]),
                 f"terms[0].coeff entries must have at most {MAX_COEFF_BITS}",
                 id="coeff-limit"),
    pytest.param(lambda d: d["terms"][0].update(
        coeff=[1, 2 ** MAX_COEFF_BITS, 0, 1]), "terms[0].coeff entries",
        id="coeff-denominator-limit"),
])
def test_parse_equation_rejects_malformed(mutate, fragment):
    doc = valid_doc()
    mutate(doc)
    with pytest.raises(InputError) as exc:
        parse_equation(doc)
    assert fragment in str(exc.value)


def test_remark3_is_refused_below_the_degree_of_its_square():
    # z02^2, terms[2], has z-degree 2: kept whole at K_z = 2, and refused,
    # not dropped, at K_z = 1
    doc = json.loads(read_equation_source("remark3")[0])
    doc["truncation"]["K_z"] = 2
    assert parse_equation(doc).F == load_equation("remark3").F
    doc["truncation"]["K_z"] = 1
    with pytest.raises(InputError) as exc:
        parse_equation(doc)
    assert str(exc.value) == ("terms[2].z_pows must have z-degree at most "
                              "truncation.K_z = 1, got 2")


def test_parse_equation_rejects_out_of_range_jet_index():
    doc = valid_doc()
    doc["terms"][0]["z_pows"][0]["i"] = 2          # i must stay below m
    with pytest.raises(IndexOutOfLambda):
        parse_equation(doc)


def test_parse_equation_admits_documents_at_the_limits():
    doc = valid_doc()
    doc["n"] = MAX_N
    doc["terms"] = [{"coeff": [2 ** MAX_COEFF_BITS - 1, 1, 0, 1], "t_pow": 0,
                     "z_pows": [{"i": 1, "alpha": [0] * MAX_N}]}] * MAX_TERMS
    # a term at both caps is kept
    doc["terms"][-1] = {"coeff": [1, 1, 0, 1], "t_pow": MAX_K_T,
                        "x_pows": [MAX_K_X] + [0] * (MAX_N - 1)}
    doc["truncation"] = {"K_t": MAX_K_T, "K_x": MAX_K_X, "K_z": MAX_K_Z}
    eq = parse_equation(doc)
    assert (eq.n, eq.F.k_t, eq.F.k_x) == (MAX_N, MAX_K_T, MAX_K_X)
    assert (MAX_K_T, (MAX_K_X, 0, 0), ()) in eq.F.terms


@pytest.mark.parametrize("n", [1, 2])
def test_parse_equation_refuses_exactly_the_inadmissible_keys(n):
    # the first offender of the term, in jet-key order, is named; a later
    # term's is not
    admissible = set(lambda_keys(n))
    for i in range(3):
        for alpha in itertools.product(range(4), repeat=n):
            doc = valid_doc()
            doc["n"] = n
            doc["terms"] = [{"coeff": [1, 1, 0, 1], "x_pows": [0] * n,
                             "z_pows": [{"i": i, "alpha": list(alpha)},
                                        {"i": 2, "alpha": [3] * n}]},
                            {"coeff": [1, 1, 0, 1],
                             "z_pows": [{"i": 2, "alpha": [0] * n}]}]
            with pytest.raises(IndexOutOfLambda) as exc:
                parse_equation(doc)
            bad = ZKey(i, alpha) if ZKey(i, alpha) not in admissible \
                else ZKey(2, (3,) * n)
            assert str(exc.value) == f"jet index {bad} not admissible for order 2"


def test_parse_equation_canonicalises_jet_monomials():
    # z[0,(1,)] z[1,(0,)]^2 in its canonical spelling, with its factors in
    # the other order, and with the square as a repeated factor: one term,
    # the coefficients merged
    z01, z10 = {"i": 0, "alpha": [1]}, {"i": 1, "alpha": [0]}
    spellings = [[z01, {**z10, "pow": 2}], [{**z10, "pow": 2}, z01],
                 [z10, z01, z10]]

    def doc_of(parts):
        doc = valid_doc()
        doc["terms"] += [{"coeff": [c, 1, 0, 1], "t_pow": 1, "x_pows": [0],
                          "z_pows": zp} for c, zp in parts]
        return doc

    canonical = parse_equation(doc_of([(6, spellings[0])])).F
    assert (1, (0,), ((ZKey(0, (1,)), 1), (ZKey(1, (0,)), 2))) in canonical.terms
    for zp in spellings[1:]:
        assert parse_equation(doc_of([(6, zp)])).F.terms == canonical.terms
    merged = parse_equation(doc_of(zip((1, 2, 3), spellings))).F
    assert merged.terms == canonical.terms and len(merged.terms) == 2
    # an inadmissible factor is named the same way in either order
    for zp in ([{"i": 2, "alpha": [0]}, z01], [z01, {"i": 2, "alpha": [0]}]):
        with pytest.raises(IndexOutOfLambda) as exc:
            parse_equation(doc_of([(1, zp)]))
        assert str(exc.value) == ("jet index ZKey(i=2, alpha=(0,)) not "
                                  "admissible for order 2")


def test_closed_form_series_is_exact_solution():
    for name in ("remark3", "remark3_forced"):
        eq = load_equation(name)
        u = closed_form_series(name, k_t=eq.F.k_t, k_x=eq.F.k_x)
        r = residual(eq, u, eq.F.k_t)
        assert r.truncate(k_x=eq.F.k_x - 2).is_zero()


def test_closed_form_eval_agrees_with_series():
    for name in ("remark3", "remark3_forced"):
        ev = closed_form_eval(name)
        u = closed_form_series(name)
        xs = [0.25, -0.4]
        for t in (0.5, 1e-3):
            for x, got in zip(xs, ev(xs)(t)):
                want = SeriesTXZ.from_tx(u).numeric_evaluator()(t, (x,), {})
                assert got == pytest.approx(want, rel=1e-14, abs=1e-300)


def test_remark2_jets_internal_consistency():
    # z01 must be the x-derivative of z00, z11 of z10, z02 of z01
    t, x = 1e-3, 0.3
    _, jets = remark2_jets(t, x)
    dx = 1e-7
    _, up = remark2_jets(t, x + dx)
    _, dn = remark2_jets(t, x - dx)
    pairs = [((0, (0,)), (0, (1,))),
             ((1, (0,)), (1, (1,))),
             ((0, (1,)), (0, (2,)))]
    for src_key, der_key in pairs:
        fd = (up[src_key] - dn[src_key]) / (2 * dx)
        assert fd == pytest.approx(jets[der_key], rel=1e-6)

    # the Euler pairs: z10 = t d/dt z00 and lhs = t d/dt z10
    dt = t * 1e-7
    _, up_t = remark2_jets(t + dt, x)
    _, dn_t = remark2_jets(t - dt, x)
    fd = t * (up_t[(0, (0,))] - dn_t[(0, (0,))]) / (2 * dt)
    assert fd == pytest.approx(jets[(1, (0,))], rel=1e-5)
