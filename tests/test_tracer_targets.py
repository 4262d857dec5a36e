"""The benchmark tracer patches package functions by name; every name it
lists must still exist where it looks, so a refactor that drops, renames or
inherits a traced method fails here and not only in the benchmark."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracer = _load_tracer()


@pytest.mark.parametrize("mod,path", sorted(
    {(mod, path) for mod, path, _ in tracer.SPANS + tracer.COUNTS}))
def test_traced_attribute_is_in_its_owners_own_dict(mod, path):
    module = importlib.import_module(f"fuchsian.{mod}")
    owner, attr = tracer._resolve(module, path)
    # Tracer._patch reads owner.__dict__[attr]: an inherited or missing
    # attribute would raise KeyError there
    assert attr in vars(owner), f"fuchsian.{mod}.{path}"
