"""Start-up loads only what runs: numpy only in the commands that compute on
arrays, and each library module only in the commands that call it.

Every check runs in a fresh interpreter: this test process may have loaded
numpy and every module already.
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
# the library modules that start-up leaves to the commands calling them
DEFERRED = ("gjmatrix", "polyrec", "pade", "spectral")
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


def test_start_up_loads_only_the_core_modules(tmp_path):
    loaded = "sorted(m for m in sys.modules if m.split('.')[0] == 'gjacobi')"
    code = (f"import sys, gjacobi; print(*{loaded}); "
            f"import gjacobi.cli; print(*{loaded})")
    package, cli = _fresh(code, tmp_path).splitlines()
    core = {"gjacobi"} | {f"gjacobi.{m}" for m in ("errors", "moments", "poly", "pfraction")}
    assert set(package.split()) == core
    assert set(cli.split()) - core == {"gjacobi.cli", "gjacobi.periodic"}


@pytest.mark.parametrize("argv, loads_numpy, unloaded", [
    (["selftest"], False, {"pade", "spectral"}),
    (["expand", "m.json"], False, {"gjmatrix", "polyrec", "pade", "spectral"}),
    (["moments", "pf.json"], False, {"polyrec", "pade", "spectral"}),
    (["pade", "m.json", "--lambda=3,0", "--orders", "1..4"], False, {"spectral"}),
    (["--float", "pade", "mf.json", "--lambda=3,0", "--orders", "1..4"], False, {"spectral"}),
    (["certify", "pf.json", "--lambda=3,0", "--depth", "4"], True, {"pade"}),
    (["spectrum", "pf.json", "--period", "1", "--grid", "3"], True,
     {"gjmatrix", "pade", "spectral"}),
], ids=["selftest", "expand", "moments", "pade", "float-pade", "certify", "spectrum"])
def test_only_array_commands_load_numpy(argv, loads_numpy, unloaded, tmp_path):
    (tmp_path / "m.json").write_text(json.dumps({"moments": [str(v) for v in CATALAN]}))
    (tmp_path / "mf.json").write_text(json.dumps({"moments": [f"{v}.0" for v in CATALAN]}))
    (tmp_path / "pf.json").write_text(catalan_pfraction(17).to_json())  # 4*4+1 terms
    code = ("import sys; from gjacobi.cli import main; "
            f"code = main({argv!r}); print(code, 'numpy' in sys.modules); "
            f"print(*(m for m in {DEFERRED!r} if 'gjacobi.' + m in sys.modules))")
    status, loaded = _fresh(code, tmp_path).splitlines()[-2:]
    assert status.split() == ["0", str(loads_numpy)]
    assert set(loaded.split()) == set(DEFERRED) - unloaded
