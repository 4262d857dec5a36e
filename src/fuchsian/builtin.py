"""Bundled equation instances, their JSON loader, and closed-form checks.

The JSON schema is flat: {"m" (always 2), "n", "terms": [...], "truncation":
{"K_t", "K_x", "K_z"}}, each term {"coeff": [num_re, den_re, num_im,
den_im], "t_pow": int, "x_pows": [n ints], "z_pows": [{"i", "alpha",
"pow"}, ...]}.  This is where outside input is checked, once: anything
malformed or past the limits below, or a term past the truncation (t_pow
above K_t, x-degree above K_x, or z-degree, the sum of its pows, above
K_z), raises InputError with the offending field named, before any work,
and a jet index outside the second-order set raises IndexOutOfLambda.
Jet monomials are put in canonical form here too; the layers below trust
what they are built from.
"""

from __future__ import annotations

import cmath
import json
import os

from .equation import FuchsianEquation
from .errors import IndexOutOfLambda, InputError
from .rational import CRat, Frac
from .series import (SeriesTX, SeriesTXZ, ZKey, _norm_nu, _nu_degree,
                     _zkey_sort, lambda_keys)

BUILTIN_NAMES = ("remark2", "remark3", "remark3_forced")

# Input limits, well above the bundled and generated instances (n <= 2,
# caps <= 26, 10 terms, 6-bit coefficients).  They bound the size of what a
# document asks for; 256 bits keep each coefficient, and the indicial
# discriminant, finite as floats.
MAX_N = 3
MAX_K_T = 32
MAX_K_X = 32
MAX_K_Z = 8
MAX_TERMS = 1000
MAX_COEFF_BITS = 256


def _require(cond: bool, msg: str):
    if not cond:
        raise InputError(msg)


def _is_int(v) -> bool:
    # JSON true/false load as bool, which Python counts as int
    return isinstance(v, int) and not isinstance(v, bool)


def parse_equation(doc: dict, name: str = "") -> FuchsianEquation:
    _require(isinstance(doc, dict), "document must be a JSON object")
    for field in ("m", "n", "terms", "truncation"):
        _require(field in doc, f"missing field {field!r}")
    _require(isinstance(doc.get("name", ""), str), "name must be a string")
    m, n = doc["m"], doc["n"]
    _require(_is_int(m) and m == 2, "m must be 2: the equation is second order")
    _require(_is_int(n) and n >= 1, "n must be a positive integer")
    _require(n <= MAX_N, f"n must be at most {MAX_N}, got {n}")
    tr = doc["truncation"]
    _require(isinstance(tr, dict), "truncation must be an object")
    for field, top in (("K_t", MAX_K_T), ("K_x", MAX_K_X), ("K_z", MAX_K_Z)):
        _require(_is_int(tr.get(field)) and tr[field] >= 0,
                 f"truncation.{field} must be a nonnegative integer")
        _require(tr[field] <= top,
                 f"truncation.{field} must be at most {top}, got {tr[field]}")
    terms = {}
    _require(isinstance(doc["terms"], list), "terms must be a list")
    _require(len(doc["terms"]) <= MAX_TERMS,
             f"terms may hold at most {MAX_TERMS} entries, "
             f"got {len(doc['terms'])}")
    for pos, term in enumerate(doc["terms"]):
        where = f"terms[{pos}]"
        _require(isinstance(term, dict), f"{where} must be an object")
        co = term.get("coeff")
        _require(isinstance(co, list) and len(co) == 4
                 and all(_is_int(v) for v in co),
                 f"{where}.coeff must be four integers")
        _require(all(abs(v).bit_length() <= MAX_COEFF_BITS for v in co),
                 f"{where}.coeff entries must have at most {MAX_COEFF_BITS} "
                 f"bits")
        _require(co[1] != 0 and co[3] != 0,
                 f"{where}.coeff has a zero denominator")
        coeff = CRat(Frac(co[0], co[1]), Frac(co[2], co[3]))
        tp = term.get("t_pow", 0)
        _require(_is_int(tp) and tp >= 0,
                 f"{where}.t_pow must be a nonnegative integer")
        xp = term.get("x_pows", [0] * n)
        _require(isinstance(xp, list) and len(xp) == n
                 and all(_is_int(v) and v >= 0 for v in xp),
                 f"{where}.x_pows must be {n} nonnegative integers")
        zps = term.get("z_pows", [])
        _require(isinstance(zps, list), f"{where}.z_pows must be a list")
        nu = []
        for jpos, zp in enumerate(zps):
            zwhere = f"{where}.z_pows[{jpos}]"
            _require(isinstance(zp, dict), f"{zwhere} must be an object")
            i = zp.get("i")
            al = zp.get("alpha")
            p = zp.get("pow", 1)
            _require(_is_int(i) and i >= 0,
                     f"{zwhere}.i must be a nonnegative integer")
            _require(isinstance(al, list) and len(al) == n
                     and all(_is_int(v) and v >= 0 for v in al),
                     f"{zwhere}.alpha must be {n} nonnegative integers")
            _require(_is_int(p) and p >= 1,
                     f"{zwhere}.pow must be a positive integer")
            nu.append((ZKey(i, tuple(al)), p))
        deg = _nu_degree(nu)
        _require(deg <= tr["K_z"], f"{where}.z_pows must have z-degree at "
                 f"most truncation.K_z = {tr['K_z']}, got {deg}")
        _require(tp <= tr["K_t"] and sum(xp) <= tr["K_x"],
                 f"{where} is t^{tp} of x-degree {sum(xp)}, beyond the caps "
                 f"truncation.K_t = {tr['K_t']}, K_x = {tr['K_x']}")
        key = (tp, tuple(xp), _norm_nu(nu))
        acc = terms.get(key)
        terms[key] = coeff if acc is None else acc + coeff
    admissible = set(lambda_keys(n))
    for _, _, nu in terms:
        bad = [zk for zk, _ in nu if zk not in admissible]
        if bad:
            raise IndexOutOfLambda(f"jet index {min(bad, key=_zkey_sort)} "
                                   f"not admissible for order 2")
    F = SeriesTXZ(n, tr["K_t"], tr["K_x"], terms)
    return FuchsianEquation(F, name=name or doc.get("name", ""))


def read_equation_source(source) -> tuple[bytes, str]:
    """Raw bytes of a builtin name or a JSON file path, and the name the
    equation parsed from them gets."""
    if isinstance(source, str) and source in BUILTIN_NAMES:
        path = os.path.join(os.path.dirname(__file__), "data",
                            f"{source}.json")
        label = source
    elif os.path.exists(source):
        path = source
        label = os.path.splitext(os.path.basename(source))[0]
    else:
        raise InputError(f"no such equation file or builtin: {source!r} "
                         f"(builtins: {', '.join(BUILTIN_NAMES)})")
    try:
        with open(path, "rb") as fh:
            return fh.read(), label
    except OSError as exc:
        raise InputError(f"cannot read {source!r}: {exc.strerror}") from None


def parse_equation_bytes(data: bytes, label: str) -> FuchsianEquation:
    """Equation from the bytes of a JSON document."""
    try:
        doc = json.loads(data.decode("utf-8"))
    # ValueError covers JSONDecodeError and an integer past Python's digit
    # limit; RecursionError a nesting deeper than the decoder's stack
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise InputError(f"invalid JSON in {label}: {exc}") from None
    return parse_equation(doc, name=label)


def load_equation(source) -> FuchsianEquation:
    """Load an equation from a builtin name or a JSON file path."""
    return parse_equation_bytes(*read_equation_source(source))


# -- closed forms ------------------------------------------------------

def closed_form_eval(name: str):
    """Float evaluator of the known nonzero solution on a list of points x:
    closed_form_eval(name)(xs) is a function of t listing u(t, x) for x in
    xs.  What depends on x alone is computed once per list, and what
    depends on t alone once per t."""
    if name == "remark2":
        def on(xs):
            num = [-(x ** 2) for x in xs]

            def at(t):
                # valid on 0 < t <= 1/e where log t < 0
                den = 4.0 * cmath.log(t)
                return [v / den for v in num]
            return at
        return on
    if name in ("remark3",):
        def on(xs):
            vals = [x ** 4 / 72.0 for x in xs]
            return lambda t: vals
        return on
    if name == "remark3_forced":
        return lambda xs: lambda t: [t / 6.0] * len(xs)
    raise InputError(f"no closed form for {name!r}")


def closed_form_series(name: str, k_t: int = 10, k_x: int = 12) -> SeriesTX:
    """Exact series of the known solution, where one exists as a series."""
    if name == "remark3":
        return SeriesTX.monomial(1, k_t, k_x, Frac(1, 72), 0, (4,))
    if name == "remark3_forced":
        return SeriesTX.monomial(1, k_t, k_x, Frac(1, 6), 1, (0,))
    raise InputError(f"no series closed form for {name!r}")


def remark2_jets(t: float, x: complex) -> tuple:
    """Exact jets of -x^2/(4 log t): ((Euler^2 u), {(i, alpha): value})."""
    L = cmath.log(t)
    lhs = -x ** 2 / (2.0 * L ** 3)
    z = {
        (0, (0,)): -x ** 2 / (4.0 * L),
        (1, (0,)): x ** 2 / (4.0 * L ** 2),
        (0, (1,)): -x / (2.0 * L),
        (1, (1,)): x / (2.0 * L ** 2),
        (0, (2,)): -1.0 / (2.0 * L),
    }
    return lhs, z


def remark2_residual_grid(eq: FuchsianEquation) -> dict:
    """|Euler^2 u - F(jets)| for the nonzero remark2 solution on a
    deterministic 40 x 25 grid with arg t = 0, |t| in [1e-6, 1/e],
    |x| <= 1/2."""
    import math as _m
    t_lo, t_hi = 1e-6, _m.exp(-1.0)
    worst = 0.0
    rhs_at = eq.F.numeric_evaluator()
    for it in range(40):
        t = t_lo * (t_hi / t_lo) ** (it / 39)
        for jx in range(25):
            x = -0.5 + jx / 24
            lhs, z = remark2_jets(t, x)
            rhs = rhs_at(t, (x,), {ZKey(i, al): v for (i, al), v in z.items()})
            worst = max(worst, abs(lhs - rhs))
    return {"points": 40 * 25, "max_abs_residual": worst}
