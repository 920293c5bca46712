#!/usr/bin/env python3
"""varcap benchmark: one workload per run, one JSON result as the last line.

    python3 perfbench/run.py --workload sheet-families --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a separate
traced run and prints per-layer self times, work counts, import times and
the tracing overhead.  Both check every output.  Run from the repository
root; varcap is imported from ``src/`` and every file the run writes goes
under ``.perfbench/``.  See perfbench/README.md for what each workload and
metric is and why.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One BLAS thread unless the caller says otherwise: the machine this was tuned
# on has 2 vCPUs, and idle OpenBLAS workers spin on the second one, which made
# run-to-run times depend on whatever else the host was doing.  Set before
# numpy loads; subprocesses inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
IMPORT_REPEATS = 3
SUBPROCESS_TIMEOUT = 170

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "cold_call_s": "s",
}

# (module, callable, layer): the public functions timed in the traced run
_SEGMENTS = ("Segment", "PowerSegment", "ConstantSegment", "SqrtQuadraticSegment",
             "SchwarzschildSegment")  # SplineSegment inherits the Segment quadrature
LAYER_TARGETS = [
    ("varcap.cli", "main", "cli.main"),
    ("varcap.cli", "parse_config", "cli.parse_config"),
    ("varcap.profiles", "WarpProfile.from_doc", "profiles.from_doc"),
    *[("varcap.profiles", f"WarpProfile.{fn}", "profiles.eval")
      for fn in ("f", "lapse", "element_weight", "arclength_derivative")],
    *[("varcap.profiles", f"{cls}.{fn}", "profiles.quad")
      for cls in _SEGMENTS for fn in ("resistance_integral", "volume_integral")],
    ("varcap.warped", "radial_capacity", "warped.radial_capacity"),
    ("varcap.warped", "volume_and_boundary", "warped.volume_and_boundary"),
    ("varcap.warped", "end_resistance_estimate", "warped.end_resistance_estimate"),
    ("varcap.radial_fem", "default_schedule", "radial_fem.default_schedule"),
    ("varcap.radial_fem", "solve_radial", "radial_fem.solve_radial"),
    ("varcap.radial_fem", "plateau_energy", "radial_fem.plateau_energy"),
    ("varcap.radial_fem", "capacity_estimate", "radial_fem.capacity_estimate"),
    ("varcap.mms", "build_planar_sheet", "mms.build_planar_sheet"),
    ("varcap.mms", "union_spaces", "mms.union_spaces"),
    ("varcap.mms", "FiniteMetricMeasureSpace.from_doc", "mms.from_doc"),
    ("varcap.mms", "FiniteMetricMeasureSpace.laplacian", "mms.laplacian"),
    ("varcap.mms", "graph_capacity", "mms.graph_capacity"),
    ("varcap.regions", "DefiningFunction.canonical_for", "regions.canonical_for"),
    ("varcap.regions", "corresponding_region", "regions.corresponding_region"),
    ("varcap.regions", "region_measure", "regions.region_measure"),
    *[("varcap.sequences", fn, f"sequences.{fn}")
      for fn in ("run_example1", "run_example2", "run_example3", "run_example4",
                 "planar_condenser_study", "limit_plane_condenser", "two_sheet_space")],
    ("varcap.mass", "evaluate_mass_curve", "mass.evaluate_mass_curve"),
    ("varcap.mass", "extrapolate_mass", "mass.extrapolate_mass"),
    ("varcap.reports", "json_report", "reports.render_json"),
    ("varcap.reports", "comment_header", "reports.render_csv"),
    ("varcap.reports", "csv_table", "reports.render_csv"),
    ("varcap.radial_fem", "fem_csv", "reports.render_csv"),
    ("varcap.mms", "capacity_csv", "reports.render_csv"),
    ("varcap.mass", "mass_csv", "reports.render_csv"),
    ("varcap.sequences", "experiment_csv", "reports.render_csv"),
    ("pathlib", "Path.write_text", "reports.write"),
]


def _add(key, amount):
    return lambda rec, result, *args, **kwargs: rec.counts.update({key: amount(result, *args)})


HOOKS = {
    "mms.graph_capacity": workloads.graph_solve_hook,
    "mms.build_planar_sheet": _add("mms.build_nodes", lambda space, *a: space.n),
    "radial_fem.solve_radial": _add("radial_fem.elements", lambda sol, cond, grid: grid.n_elements),
    "radial_fem.plateau_energy": _add("radial_fem.elements", lambda res, cond, grid, *a: grid.n_elements),
    "warped.end_resistance_estimate": _add("warped.tail_windows", lambda tail, *a: tail.windows_used),
    "regions.corresponding_region": _add("regions.points_queried", lambda region, spec, space, *a: space.n),
    "reports.write": _add("reports.bytes_written", lambda n, *a: n),
}
COUNTS = ("mms.nodes", "mms.edges", "mms.free_unknowns", "mms.solves_small", "mms.solves_large",
          "mms.build_nodes", "radial_fem.elements", "warped.tail_windows", "regions.points_queried",
          "reports.bytes_written")
IMPORTS = tuple(g for g, _ in spans.IMPORT_GROUPS) + ("other", "total")


def per_layer_metrics() -> dict[str, str]:
    """Name -> unit of every metric a traced run prints."""
    names = {}
    for _, _, layer in LAYER_TARGETS:
        names[layer + ".s"] = "s"
        names[layer + ".calls"] = "count"
    names.update({key: "count" for key in COUNTS})
    names.update({f"import.{g}.s": "s" for g in IMPORTS})
    names.update({"trace.untraced_wall_s": "s", "trace.traced_wall_s": "s",
                  "trace.overhead_frac": "ratio", "trace.spans": "count"})
    return names


# -- environment record ------------------------------------------------------------


def _blas_threads():
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "blas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(args, sizes: dict) -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "sizes": sizes,
    }


def workload_sizes(manifest: dict, solves: list) -> dict:
    if manifest["workload"] == "cli-batch":
        mix: dict[str, int] = {}
        for call in manifest["calls"]:
            key = f"{' '.join(call['command'])} ({call['format']})"
            mix[key] = mix.get(key, 0) + 1
        graphs = [c for c in manifest["calls"] if c["kind"] == "capacity-graph"]
        return {"calls_per_pass": len(manifest["calls"]), "mix": dict(sorted(mix.items())),
                "graph_free_nodes": [c["free"] for c in graphs]}
    sizes = {key: manifest[key] for key in ("h", "i_list", "rim") if key in manifest}
    sizes["solves"] = [{"nodes": s["nodes"], "free": s["free"]} for s in solves]
    return sizes


# -- running --------------------------------------------------------------------------


def _subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def time_setup(args, workdir: Path, repeats: int) -> list[float]:
    """Wall time of fresh interpreters that import varcap.cli and write the
    input documents.  Reference values are computed later, untimed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--workdir", str(workdir)]
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=_subprocess_env(), capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"input generation failed:\n{proc.stderr[-2000:]}")
    return times


def cold_call(call: dict) -> tuple[float, str | None]:
    """Wall time of one fresh-process CLI call, and the reason it failed if it did."""
    cmd = [sys.executable, "-m", "varcap.cli", *workloads.cli_argv(call)]
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_subprocess_env(), capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT)
    elapsed = perf_counter() - t0
    if proc.returncode:
        return elapsed, f"cold {call['name']}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    problem = workloads.check_call(call)
    return elapsed, problem and f"cold {call['name']}: {problem}"


def run_passes(run_pass, manifest, rec, seconds: float, after_pass) -> list:
    """Passes until about ``seconds`` of them have run (at least one).

    ``after_pass`` runs between passes, with the share of ``seconds`` used so
    far; its time is not counted.
    """
    passes, elapsed = [], 0.0
    while True:
        t0 = perf_counter()
        passes.append(run_pass(manifest, rec))
        elapsed += perf_counter() - t0
        after_pass(min(1.0, elapsed / seconds))
        if elapsed + 0.5 * elapsed / len(passes) >= seconds:
            return passes


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q))


def _wrap_gates(rec: spans.Recorder, workload: str) -> list[str]:
    """Wrap only what the correctness checks need: the lattice gates check each potential."""
    if workload != "cli-batch":
        rec.wrap("varcap.mms", "graph_capacity", "mms.graph_capacity", workloads.graph_solve_hook)
    return []


def _wrap_layers(rec: spans.Recorder, workload: str) -> list[str]:
    """Wrap every layer target; return the ones the program does not have."""
    return [f"{module}.{path}" for module, path, layer in LAYER_TARGETS
            if not rec.wrap(module, path, layer, HOOKS.get(layer))]


def _wrapped_pass(run_pass, manifest, rec, wrap, workload):
    """One pass with ``rec``'s wrappers in place, removed again afterwards."""
    missing = wrap(rec, workload)
    try:
        return run_pass(manifest, rec), missing
    finally:
        rec.close()


def untraced(args, manifest, workdir, setup_times):
    run_pass = workloads.RUNNERS[args.workload]
    cold_queue = workloads.cold_calls(manifest)
    cold, setups = [], list(setup_times)

    def fresh_processes(share: float):
        """Cold calls and set-ups in step with the passes: the machine's speed
        drifts over seconds, so each metric samples the whole run."""
        while len(cold) < round(share * len(cold_queue)):
            cold.append(cold_call(cold_queue[len(cold)]))
        while len(setups) < round(share * SETUP_REPEATS):
            setups.extend(time_setup(args, workdir, 1))

    rec = spans.Recorder(spans=False)
    _wrap_gates(rec, args.workload)
    try:
        warm = run_pass(workloads.warm_up_manifest(manifest), rec)
        passes = run_passes(run_pass, manifest, rec, args.seconds, after_pass=fresh_processes)
    finally:
        rec.close()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    fresh_processes(1.0)
    latencies = [lat for p in passes for lat in p.latencies]
    metrics = {
        "wall_s": statistics.median(p.wall for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
        "call_p50_ms": 1e3 * _percentile(latencies, 50),
        "call_p90_ms": 1e3 * _percentile(latencies, 90),
        "cold_call_s": statistics.median(t for t, _ in cold),
    }
    failures = [f for p in [warm, *passes] for f in p.failures] + [f for _, f in cold if f]
    detail = {
        "passes": len(passes),
        "operations": len(latencies),
        "above_p90": sum(lat > metrics["call_p90_ms"] / 1e3 for lat in latencies),
        "setup_runs_s": setups,
        "cold_runs_s": [t for t, _ in cold],
        "pass_walls_s": [p.wall for p in passes],
        "pass_latencies_s": [p.latencies for p in passes],
    }
    return metrics, len(warm.latencies) + len(latencies) + len(cold), failures, detail, rec.solves


def traced(args, manifest):
    """Untraced and traced passes in turn until ``--seconds`` is used up.

    Layer numbers are medians over the traced passes.  The tracing overhead
    compares the median traced pass with the median untraced pass of the same
    run, so a drift in machine speed during the run falls on both sides.
    """
    run_pass = workloads.RUNNERS[args.workload]
    base, rec = spans.Recorder(spans=False), spans.Recorder(spans=True)
    warm, _ = _wrapped_pass(run_pass, workloads.warm_up_manifest(manifest), base, _wrap_gates, args.workload)
    plain, passes, per_pass, kept_spans = [], [], [], []
    elapsed = 0.0
    while True:
        t0 = perf_counter()
        plain.append(_wrapped_pass(run_pass, manifest, base, _wrap_gates, args.workload)[0])
        done, missing = _wrapped_pass(run_pass, manifest, rec, _wrap_layers, args.workload)
        passes.append(done)
        elapsed += perf_counter() - t0
        totals = rec.layer_totals()
        totals.update(rec.counts)
        totals["trace.spans"] = len(rec.spans)
        per_pass.append(totals)
        kept_spans.append(list(rec.spans))
        rec.reset()
        if elapsed + 0.5 * elapsed / len(passes) >= args.seconds:
            break
    imports = spans.measure_imports(sys.executable, _subprocess_env(), str(ROOT), IMPORT_REPEATS)

    metrics = {}
    for name in per_layer_metrics():
        if not name.startswith(("import.", "trace.")):
            metrics[name] = statistics.median(p.get(name, 0) for p in per_pass)
    metrics.update({f"import.{g}.s": imports[g] for g in IMPORTS})
    untraced_wall = statistics.median(p.wall for p in plain)
    traced_wall = statistics.median(p.wall for p in passes)
    metrics.update({
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        "trace.spans": statistics.median(p["trace.spans"] for p in per_pass),
    })
    everything = [warm, *plain, *passes]
    failures = [f for p in everything for f in p.failures]
    attempted = sum(len(p.latencies) for p in everything)
    detail = {"passes": len(passes), "untraced_passes": len(plain), "missing_layers": missing,
              "spans": kept_spans}
    return metrics, attempted, failures, detail, base.solves


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                        help="problem sizes; 'tiny' is for the smoke test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "varcap" / "cli.py").is_file():
        print(f"benchmark error: no varcap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        import varcap.cli  # noqa: F401  (its import is part of the measured set-up)

        workloads.generate(args.workload, args.seed, args.scale, args.workdir)
        return 0

    workdir = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times = time_setup(args, workdir, 1)
        manifest = json.loads((workdir / "manifest.json").read_text())
        import varcap.cli  # noqa: F401

        workloads.add_references(manifest)

        if args.trace:
            metrics, attempted, failures, detail, solves = traced(args, manifest)
            units = per_layer_metrics()
        else:
            metrics, attempted, failures, detail, solves = untraced(args, manifest, workdir, setup_times)
            units = END_TO_END
        env = environment(args, workload_sizes(manifest, solves))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"varcap benchmark  workload={args.workload}  seed={args.seed}  trace={args.trace}  "
          f"passes={detail['passes']}")
    for name, unit in units.items():
        print(f"  {name:<40} {metrics[name]:>14.6g} {unit}")
    print(f"  {'failed_frac':<40} {len(failures) / attempted:>14.6g} ({len(failures)}/{attempted} operations)")
    for failure in failures:
        print(f"  FAILED {failure}")
    if detail.get("missing_layers"):
        print(f"  not traced (no such name in varcap): {', '.join(detail['missing_layers'])}")
    if args.trace == 0:
        print(f"  operations={detail['operations']} above_p90={detail['above_p90']} "
              f"passes_s={[round(w, 4) for w in detail['pass_walls_s']]}")
    print("env " + json.dumps(env))

    OUT.mkdir(exist_ok=True)
    record = {"env": env, "metrics": metrics, "attempted": attempted, "failures": failures, **detail}
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
