"""Byte-level goldens: reports and a serialized lattice pinned by sha256.

The experiment hashes for ex3/ex4 and the lattice document were recorded
from the loop-built lattice code, before lattice edges were built by index
arithmetic and node sets became index arrays.  The hashes of the small
capacity-graph and mass documents were recorded before each command's
input conversion and report rendering were declared in one table.  The
ex1/ex2 and capacity-radial hashes were re-recorded when the radial FEM
chain came to be solved in closed form, a declared change of algorithm: it
moved a few floats by at most 1.9e-12 relative and set ex2's pole-side
energies (1e-28 to 1e-26 before) to exactly 0 (see CHANGES.md).  The mass
hashes were re-recorded when the Schwarzschild resistance came to be taken
without cancellation, which moved their floats by at most 4.6e-12 relative,
and again when each end came to be integrated in one closed-form call
instead of a sum of doubling windows: capacities moved by at most 4.4e-16
relative, the m_cv column by at most 5.3e-14 (its own cancellation), and
m_iso not at all.
Every hash was re-recorded when the graph solve went from Jacobi-CG to one
SuperLU factorisation and the `solver` tolerance left the configuration:
each report's config_sha256 moved, and ex3's limit and ex4's capacities
moved by 1 ulp (0.6993664837923906 to 0.6993664837923907); the
limit-plane document did not move.
A refactor must keep every byte of these outputs;
the determinism tests elsewhere only compare a run with itself.
"""

import hashlib
import json

import numpy as np
import pytest

from varcap.cli import main
from varcap.mms import build_planar_sheet
from varcap.profiles import euclidean_profile, schwarzschild_profile
from varcap.sequences import limit_plane_condenser

REPORT_SHA256 = {
    ("ex1", "json"): "c8823bfe076523bf711452935e8120181bd2750bac82aa667dfa1821839fb827",
    ("ex1", "csv"): "52e610c8907f10f98dd5db407cec2ab6ac3ddef049e43a72264899024f64b5ab",
    ("ex2", "json"): "c13b579f15058db5be5925be5dd0c3c3db2fa1fd25b82bab1f70defbad95ed8a",
    ("ex2", "csv"): "67090d1af5c7416de39bc228a928b69474cf92c7939179c041db1a5309356a51",
    ("ex3", "json"): "5fb42a6e2fcde100a76d0419ce4f43da66394d2a09172848aa2c6c2196b71150",
    ("ex3", "csv"): "65f2eff701d82916d708ca08110ff77ec235e49d795b2cb7c7509b6fdc3d86ea",
    ("ex4", "json"): "be9cfa5dfb55574163f50a4879cec4d6e77892815d7870738f5ce0e2c2e95b54",
    ("ex4", "csv"): "b04695bb44c968120b73a36e5114df3c0499323f924688309b3fadc9e6f00c24",
}
COMMAND_SHA256 = {
    ("capacity-radial", "json"): "39f812c3833cf4d4e3354a337ca7f1ee777adebd34a10df2ef704d9475c61a97",
    ("capacity-radial", "csv"): "8cb9300322a4959e1779c288fdabb2d287b419a6a9702196cf520ee5a057eab9",
    ("capacity-graph", "json"): "7e5d0b8771b47306a29a697c29efe4bc50fead5bd5895b145de8188b4b7ae9bf",
    ("capacity-graph", "csv"): "7e07c04519d1987f472ff865f039f787f8d54412253c3825b26013c611e09cd5",
    ("mass", "json"): "78cfbe1825e8de4db4320697bd6bd2ed3d7f1c49e6546db78e1ceb253f0219b2",
    ("mass", "csv"): "3e237fb3cf64c1b723f0ab82991a6f7261a0730c22397ef3ed6e951fbe64c42f",
}
LIMIT_PLANE_DOC_SHA256 = "dcc100e8070e933c3f806a5b89165ca7206fc32a799e33906f38921ede257327"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _command_doc(command: str) -> dict:
    """The small input documents of the CLI round-trip test."""
    if command == "capacity-radial":
        return {"profile": euclidean_profile(3).to_doc(), "s0": 1.0}
    if command == "mass":
        return {"profile": schwarzschild_profile(1.0).to_doc(), "radii": list(np.geomspace(10.0, 200.0, 6))}
    sheet = build_planar_sheet((-2, 2, -2, 2), 0.5, label_prefix="p")  # 81 nodes
    r = np.sqrt(sheet.coords[:, 0] ** 2 + sheet.coords[:, 1] ** 2)
    return {
        "space": sheet.to_doc(),
        "inner": [lab for lab, ri in zip(sheet.labels, r) if ri <= 0.5 + 1e-9],
        "outer": [lab for lab, ri in zip(sheet.labels, r) if ri >= 2.0 - 1e-9],
        "m": 2,
        "rim_radius": 2.0,
    }


@pytest.mark.parametrize("example, fmt", sorted(REPORT_SHA256))
def test_default_experiment_report_bytes(tmp_path, example, fmt):
    out = tmp_path / f"{example}.{fmt}"
    assert main(["experiment", example, "--format", fmt, "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == REPORT_SHA256[(example, fmt)]


@pytest.mark.parametrize("command, fmt", sorted(COMMAND_SHA256))
def test_small_command_report_bytes(tmp_path, command, fmt):
    inp = tmp_path / "input.json"
    inp.write_text(json.dumps(_command_doc(command)))
    out = tmp_path / f"report.{fmt}"
    assert main([command, "--input", str(inp), "--format", fmt, "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == COMMAND_SHA256[(command, fmt)]


def test_shared_parser_carries_no_state(tmp_path):
    """One process runs the golden calls forward, then in reverse; before each,
    a call sets every flag the golden call leaves at its default."""
    inputs = {}
    for command in {command for command, _ in COMMAND_SHA256}:
        inputs[command] = tmp_path / f"{command}.json"
        inputs[command].write_text(json.dumps(_command_doc(command)))
    out, other = tmp_path / "report", tmp_path / "other"
    order = sorted(COMMAND_SHA256)
    for command, fmt in order + order[::-1]:
        flags = ["--tol", "1e-3", "--seed", "7", "--format", "json" if fmt == "csv" else "csv"]
        # capacity-radial and capacity-graph have no tolerance to set, so those calls exit 2
        assert main([command, "--input", str(inputs[command]), "--out", str(other), *flags]) == (
            2 if command in ("capacity-radial", "capacity-graph") else 0)
        fmt_flag = ["--format", fmt] if fmt == "json" else []  # csv is the default
        assert main([command, "--input", str(inputs[command]), "--out", str(out), *fmt_flag]) == 0
        assert _sha256(out.read_bytes()) == COMMAND_SHA256[(command, fmt)]
    with pytest.raises(SystemExit) as version:
        main(["--version"])
    assert version.value.code == 0
    assert main([]) == 2
    assert main(["mass", "--input", str(inputs["mass"]), "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == COMMAND_SHA256[("mass", "csv")]


def test_limit_plane_document_bytes():
    doc = json.dumps(limit_plane_condenser(0.1, 4.0).space.to_doc(), sort_keys=True)
    assert _sha256(doc.encode()) == LIMIT_PLANE_DOC_SHA256
