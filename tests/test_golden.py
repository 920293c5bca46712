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
The ex1 and ex2 hashes were re-recorded again when those runners stopped
running the FEM and reported their capacities from the end resistance:
ex1's capacities stayed 0.0 and only its metadata changed (no
`capacity_error_estimates`, provenance `closed-form`); ex2's capacities and
limsup moved from 0.6366197688909645 to 0.6366197723675814 = 2/pi (5.5e-9
relative), its `ratio_to_limit` became exactly 0.5 and its
`open_side_error_estimate` left; its limit and every verdict stayed.
The mass hashes were re-recorded once more when the Schwarzschild volume
at m = 3 came to be taken in closed form instead of by quadrature: V moved
by at most 5.5e-16 relative, m_iso by 2.9e-14, m_cv by 1.5e-14, m_cv_alt
by 4.7e-16 and the fit's error_estimate by 1.2e-11.
The ex3 and ex4 hashes were re-recorded when SuperLU came to factor with
panels of 6 columns instead of its default 20, a declared change of
algorithm: ex3's limit and ex4's capacities and limsup moved back by
1 ulp, from 0.6993664837923907 to 0.6993664837923906 (1.6e-16 relative).
ex3 json 5fb42a6e... -> cb652931..., csv 65f2eff7... -> b79340af...;
ex4 json be9cfa5d... -> 6381d171..., csv b04695bb... -> 388e9d29....
Every other hash, the limit-plane document's among them, did not move.
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
    ("ex1", "json"): "b873558bf70bb88f98a7df834643e9c63d76df816943704b2cde8a304c0ad246",
    ("ex1", "csv"): "b1b7705f25999272aab379353ec96fd9fda7ef8fb9a966dec37277f2cb197f36",
    ("ex2", "json"): "cfdac80b757bba1000dcfff17666fdb6e4d4ed666a2145b53964506ba906e8a5",
    ("ex2", "csv"): "8dcb5150d1f9e460f2408664a3878204bcdda87d8c5ee9d9e431e8eba96a8897",
    ("ex3", "json"): "cb652931da7cf569057ee02be887b78fa65150cf5114e3850da488d044f749c8",
    ("ex3", "csv"): "b79340af35c99a1e666df7f98da095231460eaf3b0f575775860d7a4d99c8498",
    ("ex4", "json"): "6381d171b8940bcf8a087cc5cd19245bc81d682d964dd9c81e2902cf17959298",
    ("ex4", "csv"): "388e9d2912463fd8771808bf961d4555d212ad8a66ed72b615f11d89fa975274",
}
COMMAND_SHA256 = {
    ("capacity-radial", "json"): "39f812c3833cf4d4e3354a337ca7f1ee777adebd34a10df2ef704d9475c61a97",
    ("capacity-radial", "csv"): "8cb9300322a4959e1779c288fdabb2d287b419a6a9702196cf520ee5a057eab9",
    ("capacity-graph", "json"): "7e5d0b8771b47306a29a697c29efe4bc50fead5bd5895b145de8188b4b7ae9bf",
    ("capacity-graph", "csv"): "7e07c04519d1987f472ff865f039f787f8d54412253c3825b26013c611e09cd5",
    ("mass", "json"): "57a4c3231db126429e8b0e91930579299df3941a7942964a1155e4336fa0d72b",
    ("mass", "csv"): "dd5953397dece51f7230d8ee79503e693e8c78cd7134ce43182a7dd0886d234e",
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
