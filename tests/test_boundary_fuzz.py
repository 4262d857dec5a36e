"""Outside input is checked once, where it enters: a seeded, bounded
property over mutated equation documents (Hypothesis; MacIver, Hatfield-
Dodds et al., "Hypothesis: A new approach to property-based testing",
JOSS 4(43), 2019).  Every run of check and of solve must write a JSON
report and exit 0, 1 or 2; exit 3 is an internal error, a bug at the
boundary."""

import copy
import json
from importlib import resources

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
