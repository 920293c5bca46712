"""Smoke runs of the demos, with every warning an error: the public label API and the CSV renderers."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo",
    [
        "01_radial_capacity.py",
        "02_graph_condensers.py",
        "03_lipschitz_regions.py",
        "04_semicontinuity_experiments.py",
        "05_mass_curves.py",
    ],
)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        # -W error: a demo's subprocess does not inherit pytest's filterwarnings
        [sys.executable, "-W", "error", str(ROOT / "demos" / demo)], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()
