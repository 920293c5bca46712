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
without cancellation, which moved their floats by at most 4.6e-12 relative.
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
    ("ex1", "json"): "437dd1f76cbd03e5839609be8006b3d402eb7757d6d91019031ad36b8d6cf5dc",
    ("ex1", "csv"): "bdc8af1b6909129f1f7148092f9764e315ffba99b25dfb968304c718b60d5b6a",
    ("ex2", "json"): "4376e5cf709cd0af4209dc7e5df061cc6c18febc41923983478718ff51fd153d",
    ("ex2", "csv"): "1b76f698f70bb223d92dc0119a64a705a3e3ab88e4a630925c59f1f673b47bc9",
    ("ex3", "json"): "766ef258c50fcf2d375b31eb8d76d38f59b1817538279c7e1bd830827d1e7eb1",
    ("ex3", "csv"): "108951d519d95a75a7087df136e929d539f0fb5b887f189cb618e18bc47e4e03",
    ("ex4", "json"): "ecd1f6350c4678b4056cb73bd9a1beef0e68419fef1a7eb8e85e519b6505cefd",
    ("ex4", "csv"): "07f36b913a25bb26f14ddbb131bbbf5b66bc6150ee5cc032e14d8b9f2fe1fcd0",
}
COMMAND_SHA256 = {
    ("capacity-radial", "json"): "d5836e493996e6d0ba80831dfa94448c177a9a0f9533b035b32329c42b1a00d5",
    ("capacity-radial", "csv"): "939d2bdd8222485fa23832ad5e905f6a040afbb29d0d192368bd5018d60be134",
    ("capacity-graph", "json"): "1905bebc3a4d8dcc4a03642c6bde9358a408e4abaa0d8c12d4b9484e1ec40b19",
    ("capacity-graph", "csv"): "51b783ba6c19ade8115172372b3c34034f23f0585d2009fb923e0636dff7210d",
    ("mass", "json"): "a695f4843409a03dd66b31844e8b153f5ef7c3753ec4f8e97c001ed1843ea49a",
    ("mass", "csv"): "ba3b9759dc6f8aa046fb3bef1bcea145a9d22929b2f8cf7ae01033bec9c4c6eb",
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
        # capacity-radial has no tolerance to set, so that call exits 2
        assert main([command, "--input", str(inputs[command]), "--out", str(other), *flags]) == (
            2 if command == "capacity-radial" else 0)
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
