"""Import footprint: `import varcap` loads no scipy, the radial commands
(capacity-radial, ex1 and ex2) and a Schwarzschild `mass` call load none
either, and each other command loads only the scipy subpackages it runs.
Every public name resolves, once.

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
from varcap.profiles import cylinder_transition_profile, euclidean_profile, hyperboloid_profile, schwarzschild_profile

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


# the four profile kinds of the benchmark's capacity-radial calls
RADIAL_DOCS = {
    "power": {"profile": euclidean_profile(3).to_doc(), "s0": 1.0},
    "schwarzschild": {"profile": schwarzschild_profile(1.0).to_doc(), "s0": 4.0},
    "sqrt_quadratic": {"profile": hyperboloid_profile(3, 1.0, 1.0).to_doc(), "s0": 0.5, "ends": "two_symmetric"},
    "cylinder spline": {"profile": cylinder_transition_profile(3).to_doc(), "s0": 1.0},
}


@pytest.mark.parametrize("kind", sorted(RADIAL_DOCS))
def test_capacity_radial_loads_no_scipy(tmp_path, kind):
    inp = tmp_path / "input.json"
    inp.write_text(json.dumps(RADIAL_DOCS[kind]))
    assert _scipy_loaded(_CALL.format(argv=["capacity-radial", "--input", str(inp)])) == set()


def test_schwarzschild_mass_loads_no_scipy(tmp_path):
    # the volume at m = 3 is a closed form, like the resistance, so no quadrature runs
    inp = tmp_path / "input.json"
    inp.write_text(json.dumps(_command_doc("mass")))
    assert _scipy_loaded(_CALL.format(argv=["mass", "--input", str(inp)])) == set()


def test_golden_capacity_graph_loads_only_the_scipy_it_runs(tmp_path):
    inp = tmp_path / "input.json"
    inp.write_text(json.dumps(_command_doc("capacity-graph")))
    loaded = _scipy_loaded(_CALL.format(argv=["capacity-graph", "--input", str(inp)]))
    assert _loaded_any(loaded, ("integrate", "interpolate", "spatial", "optimize", "special")) == []


def test_default_ex4_loads_no_quadrature_spline_or_kd_tree(tmp_path):
    argv = ["experiment", "ex4", "--out", str(tmp_path / "ex4.csv")]
    loaded = _scipy_loaded(_CALL.format(argv=argv))
    assert _loaded_any(loaded, ("integrate", "interpolate", "spatial")) == []


@pytest.mark.parametrize("example", ["ex1", "ex2"])
def test_default_radial_experiment_loads_no_scipy(tmp_path, example):
    argv = ["experiment", example, "--out", str(tmp_path / f"{example}.csv")]
    assert _scipy_loaded(_CALL.format(argv=argv)) == set()


def test_spline_profiles_load_no_scipy():
    body = """
import numpy as np
from varcap.profiles import capped_even_profile, cylinder_transition_profile
for profile in (cylinder_transition_profile(3), capped_even_profile(2)):
    s = np.linspace(profile.s_min, profile.s_min + 4.0, 41)
    profile.f(s), profile.element_weight(s), profile.arclength_derivative(s), profile.f(float(s[7]))
"""
    assert _scipy_loaded(body) == set()
