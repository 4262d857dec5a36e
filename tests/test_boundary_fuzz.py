"""Outside input is checked once, where it enters: a seeded, bounded
property over mutated equation documents (Hypothesis; MacIver, Hatfield-
Dodds et al., "Hypothesis: A new approach to property-based testing",
JOSS 4(43), 2019), and a second one over the flags of certify and
verify-example on the bundled instances.  Every run must write a JSON
report and exit 0, 1 or 2; exit 3 is an internal error, a bug at the
boundary."""

import copy
import json
import math
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuchsian.builtin import BUILTIN_NAMES
from fuchsian.cli import main

# the bundled instances and one n = 2 equation with a shared jet factor
BASES = [json.loads((resources.files("fuchsian.data") / f"{name}.json")
                    .read_bytes()) for name in BUILTIN_NAMES]
BASES.append({
    "name": "wide", "m": 2, "n": 2,
    "terms": [{"coeff": [1, 1, 0, 1], "t_pow": 1, "x_pows": [0, 0]},
              {"coeff": [-3, 1, 0, 1], "z_pows": [{"i": 1, "alpha": [0, 0]}]},
              {"coeff": [-2, 1, 0, 1], "x_pows": [0, 0],
               "z_pows": [{"i": 0, "alpha": [0, 0], "pow": 1}]},
              {"coeff": [1, 2, 1, 3], "x_pows": [1, 0],
               "z_pows": [{"i": 0, "alpha": [0, 1]},
                          {"i": 0, "alpha": [2, 0], "pow": 2}]}],
    "truncation": {"K_t": 4, "K_x": 8, "K_z": 3}})

FIELDS = ["m", "n", "terms", "truncation", "K_t", "K_x", "K_z", "coeff",
          "t_pow", "x_pows", "z_pows", "i", "alpha", "pow", "name"]

# small integers keep admitted documents cheap to solve; the extremes test
# the limits and the float range, the other values the schema
INTS = st.one_of(st.integers(-2, 5),
                 st.sampled_from([10 ** 400, -10 ** 400, 2 ** 256, 4000000]))
VALUES = st.recursive(
    st.one_of(INTS, st.booleans(), st.none(), st.floats(),
              st.text(max_size=3)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(FIELDS), inner, max_size=4)),
    max_leaves=6)


def _paths(node, path=()):
    """Every path into a JSON value, the root first."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutate(doc, path, op, value):
    if not path:
        return value if op == "replace" else doc
    parent, key = _get(doc, path[:-1]), path[-1]
    if op == "replace":
        parent[key] = value
    elif op == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.append(copy.deepcopy(parent[key]))
    else:
        parent[key + "_"] = parent[key]
    return doc


@st.composite
def documents(draw):
    """A base document with one to three mutations: an integer replaced by
    another, or any value replaced, deleted or duplicated."""
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        ints = [p for p in paths if type(_get(doc, p)) is int]
        if ints and draw(st.booleans()):
            doc = _mutate(doc, draw(st.sampled_from(ints)), "replace",
                          draw(INTS))
            continue
        path = draw(st.sampled_from(paths))
        op = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        doc = _mutate(doc, path, op, draw(VALUES) if op == "replace" else None)
    return doc


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(doc=documents())
def test_mutated_documents_give_a_report_and_a_documented_exit(
        doc, tmp_path_factory):
    d = tmp_path_factory.getbasetemp()
    path, out = d / "fuzz.json", d / "fuzz-report.json"
    path.write_text(json.dumps(doc))
    for argv in (["check", str(path)], ["solve", str(path), "--order", "2"]):
        out.unlink(missing_ok=True)
        code = main(argv + ["--out", str(out)])
        report = json.loads(out.read_text())
        assert report["command"] == argv[0]
        assert code in (0, 1, 2), report.get("error")
        assert ("error" in report) == (code == 2), report


# flag values, each flag with a pool of admitted values and one of
# malformed or out-of-range ones.  argparse refuses a non-number for an int
# or float option before a report exists, so those pools hold numbers only.
# An admitted grid stays at most 5x5.
SPEC_TEXT = st.text(alphabet="0123456789-/;, xX.e", max_size=10)
# decimal exponents of 10^5 to 10^7, both signs: Fraction expands them as
# 10 ** exp, which took up to 10 s a value before the CLI bounded them
HUGE_EXPONENTS = st.builds("{}e{}{}".format,
                           st.sampled_from(["1", "-3", "2.5", "0"]),
                           st.sampled_from(["", "+", "-"]),
                           st.sampled_from([10 ** 5, 10 ** 6, 10 ** 7]))
BAD_RATIONALS = st.one_of(SPEC_TEXT, HUGE_EXPONENTS, st.sampled_from(
    ["0", "1/2", "-1/5", "1/0", "abc", "", "1e-400", "1e400",
     "1/" + "9" * 400]))
BAD_FLOATS = st.sampled_from([0.0, -1.0, 1.0, 2.0, math.inf, -math.inf,
                              math.nan, -5e-324])
FLAGS = {
    "--order": (st.integers(1, 5), st.sampled_from([-2, 0, 10, 11, 10 ** 6])),
    "--w": (st.sampled_from(["1,1,2", "1/3,2,1;-1,1,0", "-2/3,1,0;1,2,2",
                             "1,1,12", "1,10,0", "1e5,1,1", "1.5,2,2",
                             "-" + "9" * 77 + ",1,1", "1/" + "9" * 77 + ",1,2"]),
            st.one_of(SPEC_TEXT, st.sampled_from(
                ["1,0,2", "1,1,2;-1,1,2", "1,1,2 2", "1,1,-1", "1,11,0",
                 "1,1,13", "1,1,2;", "1,1", ";", "nan,1,2", "1/0,1,2"]),
                # a coefficient past the 256 bits an equation file may use
                st.builds("{}{},1,2".format, st.sampled_from(["", "-", "1/"]),
                          st.sampled_from([10 ** 400, 2 ** 256])),
                st.builds("{},1,2".format, HUGE_EXPONENTS))),
    "--seed": (st.integers(-3, 40), st.sampled_from([-10 ** 30, 10 ** 30])),
    "--grid": (st.builds("{}x{}".format, st.integers(1, 5),
                         st.integers(1, 5)),
               st.one_of(SPEC_TEXT, st.sampled_from(
                   ["0x3", "-1x2", "3X2x", "2x", "", "ax2", "1.5x2",
                    "100001x1", "400x251"]))),
    "--tfloor": (st.floats(1e-30, 0.99), st.one_of(
        BAD_FLOATS, st.sampled_from([5e-324, 1e-300]))),
    "--kappa": (st.sampled_from(["1/3", "2/5", "1/7", "499/1000",
                                 "1/100000"]), BAD_RATIONALS),
    "--eps00": (st.sampled_from(["1/3", "1000000", "1/1000000000000"]),
                BAD_RATIONALS),
    "--tol": (st.floats(1e-300, 1e300), BAD_FLOATS),
    "--csv": (st.just("file"), st.just("dir")),
    "--exponent-p": (st.integers(0, 64), st.sampled_from([-1, 65, 10 ** 30])),
}
VERIFY_FLAGS = ("--exponent-p", "--tol")


@st.composite
def flag_sets(draw, command):
    """command on a bundled instance with a drawn subset of its flags, every
    value admitted except that of at most one flag, drawn first."""
    names = (VERIFY_FLAGS if command == "verify-example"
             else [f for f in FLAGS if f != "--exponent-p"])
    bad = draw(st.sampled_from([None, *names]))
    chosen = draw(st.lists(st.sampled_from(names), unique=True))
    # the default 50x50 grid is too big here
    for name in (bad, "--grid" if command == "certify" else None):
        if name is not None and name not in chosen:
            chosen.append(name)
    argv = [command, draw(st.sampled_from(
        ["remark3", "remark3_forced", "remark2"]))]
    for name in chosen:
        # "--name=value" keeps a value that starts with "-" a value
        argv.append(f"{name}={draw(FLAGS[name][name == bad])}")
    return argv


@pytest.mark.parametrize("command, examples", [("certify", 200),
                                               ("verify-example", 60)])
def test_drawn_flags_give_a_report_and_a_documented_exit(command, examples,
                                                         tmp_path_factory):
    d = tmp_path_factory.getbasetemp()
    out = d / "flags-report.json"

    @settings(max_examples=examples, deadline=None, database=None,
              derandomize=True)
    @given(argv=flag_sets(command))
    def run(argv):
        out.unlink(missing_ok=True)
        argv = [a.replace("--csv=file", f"--csv={d / 'path.csv'}")
                .replace("--csv=dir", f"--csv={d}") for a in argv]
        code = main(argv + ["--out", str(out)])
        report = json.loads(out.read_text())
        assert report["command"] == argv[0]
        assert code in (0, 1, 2), (argv, report.get("error"))
        assert ("error" in report) == (code == 2), report

    run()
