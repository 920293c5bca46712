"""Smoke runs of the benchmark at tiny sizes.

They check outputs, result shape and metric names against BENCHMARK.json,
and never gate on timing.  Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_checks_outputs_and_names_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        for name, unit in ((m["name"], m["unit"]) for m in listed):
            assert f" {name} " in proc.stdout and unit in proc.stdout


def test_benchmark_json_names_only_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "cli-batch", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_excludes_children_and_wrappers_are_removed():
    from varcap import reports

    original = reports.comment_header
    rec = spans.Recorder(spans=True)
    rec.wrap("varcap.reports", "csv_table", "outer")
    rec.wrap("varcap.reports", "comment_header", "inner")
    try:
        reports.csv_table(["a"], [(1.0,)] * 1000, {"k": 1})
    finally:
        rec.close()
    assert reports.comment_header is original
    (outer, s0, e0, p0, _), (inner, s1, e1, p1, _) = rec.spans
    assert (outer, inner, p0, p1) == ("outer", "inner", None, 0)
    totals = rec.layer_totals()
    assert totals["outer.calls"] == totals["inner.calls"] == 1
    assert totals["outer.s"] == pytest.approx((e0 - s0) - (e1 - s1))


def test_import_split_charges_each_module_to_its_nearest_named_group():
    lines = [
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy.sparse.linalg._isolve",
        "import time:        10 |        110 |     scipy.sparse.linalg",
        "import time:        20 |         20 |       numpy.core",
        "import time:         5 |         25 |     numpy",
        "import time:         7 |        142 |   varcap.mms",
        "import time:         3 |        145 | varcap",
        "import time:         4 |          4 | json",
    ]
    got = spans.parse_importtime("\n".join(lines))
    assert got["scipy_sparse_linalg"] == pytest.approx(110e-6)
    assert got["numpy"] == pytest.approx(25e-6)
    assert got["varcap"] == pytest.approx(10e-6)
    assert got["other"] == pytest.approx(4e-6)
    assert got["total"] == pytest.approx(149e-6)


def test_cli_mix_has_equal_calls_per_command_and_the_cold_sample_ignores_the_seed(tmp_path):
    one = workloads.generate("cli-batch", 1, "tiny", tmp_path / "one")
    two = workloads.generate("cli-batch", 2, "tiny", tmp_path / "two")
    per_command = Counter(" ".join(c["command"]) for c in one["calls"])
    assert set(per_command) == set(workloads.CLI_COMMANDS)
    assert set(per_command.values()) == {workloads.SCALES["tiny"]["calls_per_command"]}
    graphs = [c["free"] for c in one["calls"] + two["calls"] if c["kind"] == "capacity-graph"]
    assert all(0 < f < workloads.DENSE_LIMIT for f in graphs)
    assert [Path(c["input"]).read_text() for c in one["cold"]] == [Path(c["input"]).read_text() for c in two["cold"]]
    assert {" ".join(c["command"]) for c in one["cold"]} == set(per_command)
