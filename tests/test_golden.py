"""Byte-level goldens: reports and a serialized lattice pinned by sha256.

The hashes were recorded from the loop-built lattice code, before lattice
edges were built by index arithmetic and node sets became index arrays.  A
refactor of the sheet core must keep every byte of these outputs; the
determinism tests elsewhere only compare a run with itself.
"""

import hashlib
import json

import pytest

from varcap.cli import main
from varcap.sequences import limit_plane_condenser

REPORT_SHA256 = {
    ("ex3", "json"): "766ef258c50fcf2d375b31eb8d76d38f59b1817538279c7e1bd830827d1e7eb1",
    ("ex3", "csv"): "108951d519d95a75a7087df136e929d539f0fb5b887f189cb618e18bc47e4e03",
    ("ex4", "json"): "ecd1f6350c4678b4056cb73bd9a1beef0e68419fef1a7eb8e85e519b6505cefd",
    ("ex4", "csv"): "07f36b913a25bb26f14ddbb131bbbf5b66bc6150ee5cc032e14d8b9f2fe1fcd0",
}
LIMIT_PLANE_DOC_SHA256 = "dcc100e8070e933c3f806a5b89165ca7206fc32a799e33906f38921ede257327"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("example, fmt", sorted(REPORT_SHA256))
def test_default_experiment_report_bytes(tmp_path, example, fmt):
    out = tmp_path / f"{example}.{fmt}"
    assert main(["experiment", example, "--format", fmt, "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == REPORT_SHA256[(example, fmt)]


def test_limit_plane_document_bytes():
    doc = json.dumps(limit_plane_condenser(0.1, 4.0).space.to_doc(), sort_keys=True)
    assert _sha256(doc.encode()) == LIMIT_PLANE_DOC_SHA256
