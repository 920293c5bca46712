"""Import footprint: `import varcap` loads no scipy, and each command loads
only the scipy subpackages it runs.  Every public name resolves, once.

Every case runs in a fresh interpreter, because an earlier test in this
process has long since imported everything; the child prints the scipy
modules in `sys.modules` after its import or call.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import varcap
from test_golden import _command_doc

_SRC = str(Path(varcap.__file__).resolve().parents[1])

_LOADED_AFTER = """
import json, sys
{body}
print(json.dumps(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))))
"""

_CALL = """
import contextlib, io
from varcap.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main({argv!r})
assert code == 0, code
"""


def _scipy_loaded(body: str) -> set[str]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _LOADED_AFTER.format(body=body)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _loaded_any(modules: set[str], packages) -> list[str]:
    return sorted(m for m in modules for p in packages if m == f"scipy.{p}" or m.startswith(f"scipy.{p}."))


@pytest.mark.parametrize("module", ["varcap", "varcap.cli"])
def test_import_loads_no_scipy(module):
    assert _scipy_loaded(f"import {module}") == set()


def test_public_names_are_unique_and_resolve():
    # a name left in __all__ after its definition is gone fails the star import
    assert sorted(set(varcap.__all__)) == sorted(varcap.__all__)
    assert [name for name in varcap.__all__ if not hasattr(varcap, name)] == []
    assert _scipy_loaded("from varcap import *\nassert 'capacity_estimate' in dir()") == set()


def test_import_builds_no_parser():
    # the argument parser is built by the first `main` call and kept for later ones
    _scipy_loaded("import varcap.cli\nassert varcap.cli._build_parser.cache_info().currsize == 0")


@pytest.mark.parametrize("command, absent", [
    ("capacity-radial", ("sparse", "integrate", "interpolate", "spatial")),
    ("capacity-graph", ("integrate", "interpolate", "spatial", "optimize", "special")),
], ids=["capacity-radial", "capacity-graph"])
def test_golden_command_loads_only_the_scipy_it_runs(tmp_path, command, absent):
    inp = tmp_path / "input.json"
    inp.write_text(json.dumps(_command_doc(command)))
    loaded = _scipy_loaded(_CALL.format(argv=[command, "--input", str(inp)]))
    assert _loaded_any(loaded, absent) == []


def test_default_ex4_loads_no_quadrature_spline_or_kd_tree(tmp_path):
    argv = ["experiment", "ex4", "--out", str(tmp_path / "ex4.csv")]
    loaded = _scipy_loaded(_CALL.format(argv=argv))
    assert _loaded_any(loaded, ("integrate", "interpolate", "spatial")) == []


@pytest.mark.parametrize("example", ["ex1", "ex2"])
def test_default_spline_experiment_loads_no_interpolate_special_optimize_or_spatial(tmp_path, example):
    argv = ["experiment", example, "--out", str(tmp_path / f"{example}.csv")]
    loaded = _scipy_loaded(_CALL.format(argv=argv))
    assert _loaded_any(loaded, ("interpolate", "special", "optimize", "spatial")) == []


def test_spline_profiles_load_no_scipy():
    body = """
import numpy as np
from varcap.profiles import capped_even_profile, cylinder_transition_profile
for profile in (cylinder_transition_profile(3), capped_even_profile(2)):
    s = np.linspace(profile.s_min, profile.s_min + 4.0, 41)
    profile.f(s), profile.element_weight(s), profile.arclength_derivative(s), profile.f(float(s[7]))
"""
    assert _scipy_loaded(body) == set()
