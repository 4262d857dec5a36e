"""Import budget of a CLI process: each short command loads only what it
runs.  The processes run under python -S, so the budget does not depend on
what the host's site hooks preload."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# OpenSSL (through hashlib), pathlib, importlib.resources and random each
# cost a CLI process milliseconds, and no short command needs them; numpy
# is never a dependency of src/
NEVER_LOADED = ("_hashlib", "pathlib", "importlib.resources", "random",
                "numpy")
# the certificate layers belong to certify on an equation it certifies
CERTIFICATE_LAYERS = ("fuchsian.certificate", "fuchsian.majorant")


@pytest.mark.parametrize("argv", [
    ["check", "remark3"],
    ["solve", "remark3", "--order", "4"],
    ["verify-example", "remark3"],
    ["certify", "remark2"],
], ids=" ".join)
def test_command_loads_no_module_past_its_budget(argv):
    script = ("import sys, fuchsian.cli as c; "
              f"c.main({argv!r}); print(sorted(sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", script],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.returncode == 0, out.stderr
    report, modules = out.stdout.splitlines()
    assert json.loads(report)["command"] == argv[0]
    loaded = set(ast.literal_eval(modules))
    assert "fuchsian.cli" in loaded
    assert [m for m in NEVER_LOADED + CERTIFICATE_LAYERS if m in loaded] == []
