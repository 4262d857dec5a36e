"""Source hygiene: every top-level import of a module under src/fuchsian or
tests/ is used in that module, so a deletion leaves no dead import for
every fresh process to load and compile; no module under src/fuchsian has
an assert statement, which python -O would strip; and src/ stays within
its line budget, whose count README states."""

import ast
import re
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "fuchsian"


def unused_imports(source: str) -> list:
    """Names bound by the module-level imports of source that no name or
    attribute base in the module reads; `from __future__` is exempt."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\n"
              "from .errors import A, B as C\n"
              "def f(x: A) -> None:\n"
              "    return osp.join(x)\n")
    assert unused_imports(source) == ["os", "C"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py"))
                         + sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_top_level_imports_are_used(path):
    assert unused_imports(path.read_text()) == [], path.name


def assert_lines(source: str) -> list:
    """Line numbers of the assert statements in source."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Assert))


def test_checker_finds_an_assert():
    source = ("def f(x):\n"
              "    if x:\n"
              "        assert x > 0, 'positive'\n"
              "    raise AssertionError('not an assert statement')\n"
              "assert f\n")
    assert assert_lines(source) == [3, 5]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_src_has_no_assert(path):
    assert assert_lines(path.read_text()) == [], path.name


# this round's cap on src/ ("Line budget" in ROADMAP.md)
LINE_BUDGET = 3410


def src_lines() -> int:
    # counted as `find src -name '*.py' | xargs cat | wc -l` counts them
    return sum(p.read_bytes().count(b"\n") for p in SRC.parent.rglob("*.py"))


def test_src_stays_within_line_budget():
    lines = src_lines()
    assert lines <= LINE_BUDGET, lines


def test_readme_states_the_src_line_count():
    readme = (SRC.parent.parent / "README.md").read_text()
    stated = re.search(r"The package is ([\d,]+) lines", readme)
    assert stated, "README no longer states the size of src/"
    assert int(stated[1].replace(",", "")) == src_lines(), stated[0]
