"""Seeded inputs, timed passes and correctness gates of the three workloads.

planar-ladder   ``sequences.planar_condenser_study`` at h = 0.1 -> 0.0125,
                rim 4: dominated by the large Jacobi-CG solve in
                ``mms.graph_capacity``; never touches ``radial_fem``.  Not
                in BENCHMARK.json: its long passes leave too few samples in
                a run (perfbench/README.md says more).
sheet-families  ``run_example3`` (alpha_rule_c = 0.5) and ``run_example4`` at
                h = 0.025: lattice builds, unions, label filtering and
                KD-tree region extraction, plus four large solves a pass.
cli-batch       in-process ``varcap.cli.main`` calls on a seeded document
                mix: argparse, validation, profiles, quadrature, the radial
                FEM, mass curves, small dense graph solves and reports; it
                bypasses every large-lattice mechanism.

Every workload is a closed loop with one client.  Inputs come from the seed
alone; the program only sees the generated documents.  Reference values are
computed by ``add_references`` after the timed set-up, outside every timed
section.
"""

from __future__ import annotations

import json
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

WORKLOADS = ("planar-ladder", "sheet-families", "cli-batch")

RIM = 4.0
# planar_condenser_study capacities at rim 4, frozen from the seed commit
LADDER_CAPS = {
    0.1: 0.6993664837923906,
    0.05: 0.7109868114124256,
    0.025: 0.715148787026472,
    0.0125: 0.7184070064845837,
}
LADDER_REL_TOL = 1e-9
MIN_ORDER = 0.9
MAX_RESIDUAL = 1e-9
DENSE_LIMIT = 2000  # free-node count at which graph_capacity leaves the dense path
GRAPH_REL_TOL = 1e-10
MASS_REL_TOL = 0.02

SCALES = {
    "full": {
        "ladder_h": (0.1, 0.05, 0.025, 0.0125),
        "family_h": 0.025,
        "family_i": (2, 4, 8),
        "calls_per_command": 24,
    },
    "tiny": {
        "ladder_h": (0.1, 0.05),
        "family_h": 0.1,
        "family_i": (2, 4, 8),
        "calls_per_command": 4,
    },
}
COLD_FAMILY_DOC = {"h": 0.1, "i_list": [2, 4, 8], "alpha_rule_c": 0.5}
COLD_CLI_CALLS = 15  # on cli-batch, three of each command

# cli-batch: each of these commands gets the same number of calls per pass, and
# capacity-radial splits its calls evenly over the profile kinds.
CLI_COMMANDS = ("capacity-radial", "mass", "experiment ex1", "experiment ex2", "capacity-graph")
RADIAL_KINDS = ("power", "schwarzschild", "sqrt_quadratic", "cylinder")
RATIO = (1.005, 1.05)  # drawn log-uniformly
LEVELS = (2, 3)
MASS_RADII = (12, 48)
GRAPH_FREE = (500, 1900)  # free nodes, below the dense cutoff
EXPERIMENT_POOL = {"ex1": (2, 3, 4, 5, 6, 8), "ex2": (1, 2, 3, 4, 6, 8)}


@dataclass
class Pass:
    wall: float = 0.0  # seconds, after-call hook time excluded
    latencies: list = field(default_factory=list)  # seconds per operation
    failures: list = field(default_factory=list)  # one line per failed operation


# -- input generation ---------------------------------------------------------
#
# Each document builder takes ``draw(lo, hi, size=None)``, a uniform draw
# from [lo, hi).  The seeded mix passes ``rng.uniform``; the fixed cold-call
# sample passes ``middle``, so its documents sit in the middle of every
# range and are the same for every seed.  Sizes that set a call's cost are
# explicit arguments.


def middle(lo, hi, size=None):
    mid = 0.5 * (lo + hi)
    return mid if size is None else np.full(size, mid)


def _strata(rng, count: int, lo: float, hi: float) -> np.ndarray:
    """One uniform draw from each of ``count`` equal slices of [lo, hi), shuffled.

    Sizes that set a call's cost are drawn this way, so every seed gets the
    same spread of costs and only the details differ.
    """
    return rng.permutation(lo + (np.arange(count) + rng.uniform(size=count)) * (hi - lo) / count)


def _pick(draw, options):
    return options[min(int(draw(0, len(options))), len(options) - 1)]


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _call(name: str, kind: str, command: list, doc, workdir: Path, fmt: str, **extra) -> dict:
    return {"kind": kind, "name": name, "command": command, "input": _write(workdir / f"{name}.json", doc),
            "format": fmt, "out": str(workdir / f"{name}.out"), **extra}


def radial_call(name, kind, draw, ratio, levels, workdir, fmt) -> dict:
    """capacity-radial on a power, schwarzschild, two-ended sqrt_quadratic or
    cylinder-transition spline profile."""
    from varcap.profiles import cylinder_transition_profile, hyperboloid_profile, schwarzschild_profile

    ends = "one"
    if kind == "power":
        profile = {
            "dimension": _pick(draw, (3, 4)),
            "pole_at_origin": True,
            "pieces": [{"kind": "power", "range": [0.0, None],
                        "params": {"a": float(draw(0.5, 2.0)), "p": float(draw(1.0, 1.3))}}],
        }
        s0 = float(draw(0.5, 2.0))
    elif kind == "schwarzschild":
        mass = float(draw(0.5, 2.0))
        profile = schwarzschild_profile(mass).to_doc()
        s0 = float(draw(2.2, 6.0)) * mass
    elif kind == "sqrt_quadratic":
        profile = hyperboloid_profile(3, float(draw(0.5, 2.0)), float(draw(0.5, 2.0))).to_doc()
        s0 = float(draw(0.0, 1.5))
        ends = "two_symmetric"
    else:
        i = float(draw(2.0, 5.0))
        profile = cylinder_transition_profile(i).to_doc()
        s0 = float(draw(0.5, i - 0.5))
    doc = {"profile": profile, "s0": s0, "ends": ends, "levels": int(levels), "ratio": float(ratio)}
    return _call(name, "capacity-radial", ["capacity-radial"], doc, workdir, fmt)


def mass_call(name, draw, n_radii, workdir, fmt) -> dict:
    from varcap.profiles import schwarzschild_profile

    mass = float(draw(0.5, 3.0))
    radii = np.geomspace(10.0 * mass, 500.0 * mass, int(n_radii))
    doc = {"profile": schwarzschild_profile(mass).to_doc(), "radii": radii.tolist()}
    return _call(name, "mass", ["mass"], doc, workdir, fmt, mass=mass)


def experiment_call(name, example, draw, workdir, fmt) -> dict:
    pool = list(EXPERIMENT_POOL[example])
    i_list = sorted(pool.pop(_pick(draw, range(len(pool)))) for _ in range(3))
    return _call(name, "experiment", ["experiment", example], {"i_list": i_list}, workdir, fmt,
                 verdict="consistent-strict-jump")


def disk_lattice(h: float, radius: float):
    """Half-offset square lattice clipped to a disk: (points, edges) with 4-neighbour edges."""
    n = int(math.ceil(radius / h)) + 1
    ks = np.arange(-n, n)
    ix, iy = np.meshgrid(ks, ks, indexing="ij")
    x, y = (ix.ravel() + 0.5) * h, (iy.ravel() + 0.5) * h
    keep = x * x + y * y <= radius * radius
    ix, iy, x, y = ix.ravel()[keep], iy.ravel()[keep], x[keep], y[keep]
    index = {(a, b): k for k, (a, b) in enumerate(zip(ix.tolist(), iy.tolist()))}
    edges = [(k, index[(a + da, b + db)])
             for k, (a, b) in enumerate(zip(ix.tolist(), iy.tolist()))
             for da, db in ((1, 0), (0, 1)) if (a + da, b + db) in index]
    return np.column_stack([x, y]), np.asarray(edges, dtype=int)


def graph_call(name, draw, free_target, workdir, fmt) -> dict:
    """capacity-graph on a disk-lattice condenser below the dense cutoff.

    K is the disk of a quarter of the radius, B the outer 1.5h rim, so every
    free node keeps all four neighbours and the free block is connected.
    """
    h = float(draw(0.08, 0.12))
    # In units of h, the disk inside the rim holds about pi (rho - 1.5)^2 nodes
    # and K about pi rho^2 / 16: choose rho so that the difference is the target.
    c = 2.25 - free_target / math.pi
    radius = h * (3.0 + math.sqrt(9.0 - 3.75 * c)) / 1.875
    xy, edges = disk_lattice(h, radius)
    r = np.hypot(xy[:, 0], xy[:, 1])
    inner = np.flatnonzero(r <= 0.25 * radius)
    outer = np.flatnonzero(r >= radius - 1.5 * h)
    free = xy.shape[0] - inner.size - outer.size
    if not free < DENSE_LIMIT:
        raise ValueError(f"{name}: {free} free nodes, not below the dense cutoff {DENSE_LIMIT}")
    cond = draw(0.5, 2.0, size=edges.shape[0])
    labels = [f"g{a}" for a in range(xy.shape[0])]
    doc = {
        "space": {
            "points": [{"label": lab, "xyz": [float(px), float(py), 0.0], "weight": h * h}
                       for lab, (px, py) in zip(labels, xy)],
            "edges": [[labels[a], labels[b], float(c)] for (a, b), c in zip(edges.tolist(), cond)],
        },
        "inner": [labels[a] for a in inner],
        "outer": [labels[a] for a in outer],
        "m": 2,
        "rim_radius": radius,
    }
    return _call(name, "capacity-graph", ["capacity-graph"], doc, workdir, fmt,
                 nodes=int(xy.shape[0]), free=int(free))


def _seeded_mix(rng, per_command: int, workdir: Path) -> list[dict]:
    """``per_command`` calls of each command in ``CLI_COMMANDS``, in a seeded order."""
    draw = rng.uniform
    calls = []
    per_kind = per_command // len(RADIAL_KINDS)
    for kind in RADIAL_KINDS:
        ratios = np.exp(_strata(rng, per_kind, *np.log(RATIO)))
        levels = rng.permutation(np.arange(per_kind) % 2 + LEVELS[0])
        calls += [radial_call(f"radial-{kind}-{k}", kind, draw, ratios[k], levels[k], workdir, "csv")
                  for k in range(per_kind)]
    n_radii = _strata(rng, per_command, MASS_RADII[0], MASS_RADII[1] + 1).astype(int)
    calls += [mass_call(f"mass-{k}", draw, n_radii[k], workdir, "csv") for k in range(per_command)]
    for example in ("ex1", "ex2"):
        calls += [experiment_call(f"{example}-{k}", example, draw, workdir, "csv") for k in range(per_command)]
    free = _strata(rng, per_command, *GRAPH_FREE)
    calls += [graph_call(f"graph-{k}", draw, free[k], workdir, "csv") for k in range(per_command)]
    calls = [calls[p] for p in rng.permutation(len(calls))]
    for call in calls:
        call["format"] = str(rng.choice(["csv", "json"]))
    return calls


def cold_sample(workdir: Path) -> list[dict]:
    """One document per command from the middle of every range, the same for every seed."""
    ratio = math.sqrt(RATIO[0] * RATIO[1])
    return [
        radial_call("cold-radial", "power", middle, ratio, LEVELS[0], workdir, "json"),
        mass_call("cold-mass", middle, sum(MASS_RADII) // 2, workdir, "csv"),
        experiment_call("cold-ex1", "ex1", middle, workdir, "json"),
        experiment_call("cold-ex2", "ex2", middle, workdir, "csv"),
        graph_call("cold-graph", middle, sum(GRAPH_FREE) / 2, workdir, "json"),
    ]


def generate(workload: str, seed: int, scale: str, workdir: Path) -> dict:
    """Write the workload's input documents into ``workdir``; return the manifest.

    This is the timed part of set-up.  The reference values the checks need
    are added afterwards, untimed, by ``add_references``.
    """
    from varcap.sequences import limit_plane_condenser

    cfg = SCALES[scale]
    workdir.mkdir(parents=True, exist_ok=True)
    manifest = {"workload": workload, "seed": seed, "scale": scale}
    if workload == "planar-ladder":
        # the cold call runs the ladder's coarse rung as a CLI user would
        cond = limit_plane_condenser(0.1, RIM)
        doc = {"space": cond.space.to_doc(), "inner": list(cond.inner), "outer": list(cond.outer),
               "m": 2, "rim_radius": RIM}
        manifest.update(h=list(cfg["ladder_h"]), rim=RIM, warmup={"h": [0.1, 0.05]},
                        cold=[_call("cold-rung", "capacity-graph", ["capacity-graph"], doc, workdir, "json",
                                    capacity=LADDER_CAPS[0.1])])
    elif workload == "sheet-families":
        manifest.update(h=cfg["family_h"], i_list=list(cfg["family_i"]), rim=RIM,
                        warmup={"h": 0.1, "i_list": [2, 4, 8]},
                        cold=[_call("cold-ex3", "experiment", ["experiment", "ex3"], COLD_FAMILY_DOC, workdir,
                                    "json", verdict="consistent-strict-jump")])
    elif workload == "cli-batch":
        manifest["calls"] = _seeded_mix(np.random.default_rng(seed), cfg["calls_per_command"], workdir)
        manifest["cold"] = cold_sample(workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (workdir / "manifest.json").write_text(json.dumps(manifest))
    return manifest


# -- reference values, computed after the timed set-up --------------------------


def dense_condenser_energy(doc: dict) -> float:
    """Dirichlet energy of the harmonic condenser potential of a capacity-graph
    document, by a dense numpy solve that shares no code with varcap."""
    index = {p["label"]: k for k, p in enumerate(doc["space"]["points"])}
    n = len(index)
    i = np.array([index[a] for a, _, _ in doc["space"]["edges"]])
    j = np.array([index[b] for _, b, _ in doc["space"]["edges"]])
    cond = np.array([c for _, _, c in doc["space"]["edges"]], dtype=float)
    inner = np.array([index[a] for a in doc["inner"]])
    outer = np.array([index[a] for a in doc["outer"]])
    L = np.zeros((n, n))
    np.add.at(L, (i, j), -cond)
    np.add.at(L, (j, i), -cond)
    np.add.at(L, (i, i), cond)
    np.add.at(L, (j, j), cond)
    u = np.zeros(n)
    u[inner] = 1.0
    free = np.setdiff1d(np.arange(n), np.concatenate([inner, outer]))
    u[free] = np.linalg.solve(L[np.ix_(free, free)], -L[np.ix_(free, inner)].sum(axis=1))
    du = u[i] - u[j]
    return float(np.sum(cond * du * du))


def add_references(manifest: dict) -> None:
    """Add to every cli-batch call the values its check compares against: the
    closed-form capacity of a radial document and the dense-solve energy of a
    graph document."""
    from varcap.profiles import WarpProfile
    from varcap.warped import RadialCondenser, radial_capacity

    for call in manifest.get("calls", []) + manifest["cold"]:
        if call["kind"] == "capacity-radial" and "closed_form" not in call:
            doc = json.loads(Path(call["input"]).read_text())
            call["closed_form"] = radial_capacity(
                RadialCondenser(WarpProfile.from_doc(doc["profile"]), doc["s0"], doc["ends"]))
        elif call["kind"] == "capacity-graph" and "capacity" not in call:
            energy = dense_condenser_energy(json.loads(Path(call["input"]).read_text()))
            call.update(raw_energy=energy, capacity=energy / (2.0 * math.pi))


# -- hooks: work counts and solve records from public data ---------------------


def graph_solve_hook(rec, pot, condenser, *args, **kwargs):
    """Record size, free unknowns and harmonicity residual of one graph solve."""
    from scipy.sparse.csgraph import connected_components
    from varcap.mms import harmonicity_residual

    space = condenser.space
    k_idx, b_idx = space.indices(condenser.inner), space.indices(condenser.outer)
    _, comp = connected_components(space.adjacency(), directed=False)
    fixed = np.zeros(space.n, dtype=bool)
    fixed[k_idx] = True
    fixed[b_idx] = True
    free = int(np.count_nonzero(~fixed & np.isin(comp, np.intersect1d(comp[k_idx], comp[b_idx]))))
    rec.counts["mms.nodes"] += space.n
    rec.counts["mms.edges"] += space.edges.shape[0]
    rec.counts["mms.free_unknowns"] += free
    if free:
        rec.counts["mms.solves_small" if free < DENSE_LIMIT else "mms.solves_large"] += 1
    rec.solves.append({"nodes": space.n, "free": free,
                       "residual": harmonicity_residual(space, condenser, pot.u)})


# -- output checks --------------------------------------------------------------


def _read_report(call: dict) -> dict:
    """The values a report states, from its JSON payload or its CSV comment header."""
    text = Path(call["out"]).read_text()
    if call["format"] == "json":
        payload = json.loads(text)
        if call["kind"] == "capacity-graph":
            _, raw, cap = payload["rows"][0]
            payload.update(raw_energy=raw, capacity=cap)
        return payload
    values = {}
    lines = text.splitlines()
    for line in lines:
        if line.startswith("# ") and "=" in line:
            key, _, val = line[2:].partition("=")
            values[key] = val
        elif line.startswith("condenser,"):
            _, raw, cap, _ = line.split(",")
            values.update(raw_energy=float(raw), capacity=float(cap))
    if call["kind"] == "experiment":
        values["verdict"] = lines[-1].split(",")[-1]
    for key in ("cap", "error_estimate", "m_iso", "m_cv"):
        if key in values:
            values[key] = float(values[key])
    return values


def check_call(call: dict) -> str | None:
    """None when the call's report holds, else a one-line reason."""
    try:
        got = _read_report(call)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable report {call['out']}: {exc!r}"
    kind = call["kind"]
    if kind == "capacity-radial":
        gap = abs(got["cap"] - call["closed_form"])
        if not gap <= got["error_estimate"]:
            return f"|fem - closed form| = {gap:.3e} > error_estimate {got['error_estimate']:.3e}"
    elif kind == "mass":
        for key in ("m_iso", "m_cv"):
            if not abs(got[key] - call["mass"]) <= MASS_REL_TOL * call["mass"]:
                return f"{key} = {got[key]!r} is not within 2% of M = {call['mass']!r}"
    elif kind == "experiment":
        if got["verdict"] != call["verdict"]:
            return f"verdict {got['verdict']!r}, expected {call['verdict']!r}"
    elif kind == "capacity-graph":
        for key in ("raw_energy", "capacity"):
            if key in call and not abs(got[key] - call[key]) <= GRAPH_REL_TOL * abs(call[key]):
                return f"{key} {got[key]!r} differs from the reference {call[key]!r}"
    return None


def cli_argv(call: dict) -> list[str]:
    argv = [*call["command"], "--input", call["input"], "--out", call["out"]]
    return argv + ["--format", call["format"]]


def warm_up_manifest(manifest: dict) -> dict:
    """The workload at its coarse sizes, run untimed before the passes:
    first solves and first calls of a kind are several times slower.  On
    cli-batch that is one call of each command, from the cold sample."""
    if manifest["workload"] == "cli-batch":
        return {**manifest, "calls": manifest["cold"]}
    return {**manifest, **manifest["warmup"]}


def cold_calls(manifest: dict) -> list[dict]:
    """The fresh-process CLI calls that ``cold_call_s`` is taken from: the
    workload's fixed cold documents, taken in turn."""
    sample = manifest["cold"]
    return [sample[k % len(sample)] for k in range(COLD_CLI_CALLS)]


# -- timed passes ------------------------------------------------------------------


def _check_ladder(manifest: dict, caps, order, solves) -> list[str]:
    problems = []
    for h, cap in zip(manifest["h"], caps):
        want = LADDER_CAPS[h]
        if not abs(cap - want) <= LADDER_REL_TOL * want:
            problems.append(f"h={h}: capacity {cap!r} differs from the seed value {want!r}")
    for solve in solves:
        if not solve["residual"] <= MAX_RESIDUAL:
            problems.append(f"harmonicity residual {solve['residual']:.3e} on {solve['nodes']} nodes")
    if not order >= MIN_ORDER:
        problems.append(f"observed order {order:.3f} < {MIN_ORDER}")
    return problems


def _timed(rec, fn, *args, **kwargs):
    """(result, seconds, traceback): hook time is left out, and an exception
    is a failed operation reported with its traceback, not the end of the run."""
    excluded, t0 = rec.excluded, perf_counter()
    try:
        result, error = fn(*args, **kwargs), None
    except Exception:
        result, error = None, traceback.format_exc(limit=3)
    return result, perf_counter() - t0 - (rec.excluded - excluded), error


def ladder_pass(manifest: dict, rec) -> Pass:
    from varcap import sequences

    rec.op = "planar_condenser_study"
    rec.solves.clear()
    result, wall, error = _timed(rec, sequences.planar_condenser_study, tuple(manifest["h"]), manifest["rim"])
    problems = [error] if error else _check_ladder(manifest, result[0], result[2], rec.solves)
    return Pass(wall, [wall], ["planar_condenser_study: " + "; ".join(problems)] if problems else [])


def _family_runs(h: float, i_list, rim: float):
    return (
        ("run_example3", {"h": h, "i_list": tuple(i_list), "rim_radius": rim, "alpha_rule_c": 0.5}),
        ("run_example4", {"h": h, "i_list": tuple(i_list), "rim_radius": rim}),
    )


def _check_family(name: str, exp, h: float) -> list[str]:
    problems = []
    want_limit = LADDER_CAPS.get(h)
    if name == "run_example3":
        if exp.verdict.classification != "consistent-strict-jump":
            problems.append(f"ex3 verdict {exp.verdict.classification!r}")
        if any(c != 0.0 for c in exp.capacities):
            problems.append(f"ex3 family capacities {exp.capacities} are not exactly 0")
        if want_limit is not None and not abs(exp.limit_capacity - want_limit) <= LADDER_REL_TOL * want_limit:
            problems.append(f"ex3 limit capacity {exp.limit_capacity!r}, seed value {want_limit!r}")
    else:
        if exp.verdict.classification != "violated":
            problems.append(f"ex4 verdict {exp.verdict.classification!r}")
        caps = exp.capacities
        if max(caps) - min(caps) > 1e-12 * abs(caps[0]):
            problems.append(f"ex4 capacities {caps} are not constant in i")
        if want_limit is not None and not abs(caps[0] - want_limit) <= LADDER_REL_TOL * want_limit:
            problems.append(f"ex4 capacity {caps[0]!r}, seed value {want_limit!r}")
    return problems


def families_pass(manifest: dict, rec) -> Pass:
    from varcap import sequences

    out = Pass()
    t_pass, excluded_pass = perf_counter(), rec.excluded
    for runner, kwargs in _family_runs(manifest["h"], manifest["i_list"], manifest["rim"]):
        rec.op = runner
        rec.solves.clear()
        exp, latency, error = _timed(rec, getattr(sequences, runner), **kwargs)
        out.latencies.append(latency)
        if error:
            problems = [error]
        else:
            problems = _check_family(runner, exp, manifest["h"])
            problems += [f"harmonicity residual {s['residual']:.3e}" for s in rec.solves
                         if not s["residual"] <= MAX_RESIDUAL]
        if problems:
            out.failures.append(f"{runner}: " + "; ".join(problems))
    out.wall = perf_counter() - t_pass - (rec.excluded - excluded_pass)
    return out


def cli_pass(manifest: dict, rec) -> Pass:
    from varcap import cli

    out = Pass()
    codes = []
    t_pass, excluded_pass = perf_counter(), rec.excluded
    for k, call in enumerate(manifest["calls"]):
        rec.op = k
        code, latency, error = _timed(rec, cli.main, cli_argv(call))
        out.latencies.append(latency)
        codes.append(error or code)
    out.wall = perf_counter() - t_pass - (rec.excluded - excluded_pass)
    for call, code in zip(manifest["calls"], codes):
        problem = f"exit {code}" if code != 0 else check_call(call)
        if problem:
            out.failures.append(f"{call['name']}: {problem}")
    return out


RUNNERS = {
    "planar-ladder": ladder_pass,
    "sheet-families": families_pass,
    "cli-batch": cli_pass,
}
