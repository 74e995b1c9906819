"""numpy is loaded only by the commands that compute on arrays.

Every check runs in a fresh interpreter: this test process may have loaded
numpy already.
"""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gjacobi
from conftest import catalan_pfraction

SRC = str(Path(gjacobi.__file__).parents[1])
MODULES = ["gjacobi"] + [f"gjacobi.{m.name}" for m in pkgutil.iter_modules(gjacobi.__path__)]
CATALAN = [1, 0, 1, 0, 2, 0, 5, 0, 14, 0, 42, 0, 132, 0]


def _fresh(code, cwd):
    """stdout of code run in a fresh interpreter that imports from SRC."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                          text=True, timeout=60, check=True,
                          env={**os.environ, "PYTHONPATH": path})
    return proc.stdout


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_without_numpy(module, tmp_path):
    out = _fresh(f"import sys, {module}; print('numpy' in sys.modules)", tmp_path)
    assert out.split() == ["False"]


@pytest.mark.parametrize("argv, loads_numpy", [
    (["selftest"], False),
    (["expand", "m.json"], False),
    (["moments", "pf.json"], False),
    (["pade", "m.json", "--lambda=3,0", "--orders", "1..4"], False),
    (["--float", "pade", "mf.json", "--lambda=3,0", "--orders", "1..4"], False),
    (["certify", "pf.json", "--lambda=3,0", "--depth", "4"], True),
    (["spectrum", "pf.json", "--period", "1", "--grid", "3"], True),
], ids=["selftest", "expand", "moments", "pade", "float-pade", "certify", "spectrum"])
def test_only_array_commands_load_numpy(argv, loads_numpy, tmp_path):
    (tmp_path / "m.json").write_text(json.dumps({"moments": [str(v) for v in CATALAN]}))
    (tmp_path / "mf.json").write_text(json.dumps({"moments": [f"{v}.0" for v in CATALAN]}))
    (tmp_path / "pf.json").write_text(catalan_pfraction(17).to_json())  # 4*4+1 terms
    code = ("import sys; from gjacobi.cli import main; "
            f"code = main({argv!r}); print(code, 'numpy' in sys.modules)")
    assert _fresh(code, tmp_path).split()[-2:] == ["0", str(loads_numpy)]
