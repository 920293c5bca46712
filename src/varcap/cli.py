"""Command-line front end: validated JSON configs in, CSV/JSON reports out.

Subcommands: capacity-radial, capacity-graph, experiment {ex1|ex2|ex3|ex4},
mass.  Exit codes: 0 success (report written), 1 computation error, 2
configuration error.  Reports carry the tool version, a sha256 hash of the
effective configuration, and the provenance of each value (closed-form, fem,
or graph).
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__, reports
from .errors import ConfigError, VarcapError
from .geometry import Dimension
from .mass import AFProfile, evaluate_mass_curve, extrapolate_mass, mass_csv
from .mms import FiniteMetricMeasureSpace, GraphCondenser, capacity_csv, graph_capacity
from .profiles import WarpProfile
from .radial_fem import capacity_estimate, default_schedule, fem_csv
from .sequences import RUNNERS, experiment_csv
from .warped import RadialCondenser, radial_capacity

COMMANDS = ("capacity-radial", "capacity-graph", "experiment", "mass")
EXPERIMENTS = ("ex1", "ex2", "ex3", "ex4")

_TOP_KEYS = {"command", "input", "input_doc", "output", "format", "tolerances", "seed"}
_TOL_KEYS = {"quadrature", "solver", "verdict"}
_EXPERIMENT_KEYS = {
    "ex1": {"example", "i_list", "r", "L_values", "m"},
    "ex2": {"example", "i_list", "a", "b", "m", "L"},
    "ex3": {"example", "i_list", "h", "rim_radius", "strip_conductance", "alphas", "alpha_rule_c"},
    "ex4": {"example", "i_list", "h", "rim_radius"},
}
_INPUT_KEYS = {
    "capacity-radial": {"profile", "s0", "ends", "L_values", "levels", "h0", "ratio"},
    "capacity-graph": {"space", "inner", "outer", "m", "rim_radius"},
    "experiment": set().union(*_EXPERIMENT_KEYS.values()),
    "mass": {"profile", "radii", "tail_points"},
}


def _closest(key: str, valid) -> str:
    match = difflib.get_close_matches(key, sorted(valid), n=1, cutoff=0.0)
    return match[0] if match else "none"


def _check_keys(doc: dict, valid: set, where: str, problems: list):
    for key in doc:
        if key not in valid:
            problems.append(
                f"unknown key {key!r} in {where} (closest valid key: {_closest(key, valid)!r})"
            )


def _number(doc: dict, key: str, problems: list, where: str, positive: bool = False):
    if key not in doc:
        return None
    val = doc[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        problems.append(f"{where}.{key} must be a number, got {val!r}")
        return None
    if positive and val <= 0:
        problems.append(f"{where}.{key} must be positive, got {val!r}")
        return None
    return float(val)


@dataclass
class RunConfig:
    command: str
    input_doc: dict
    output: str | None = None
    format: str = "csv"
    tolerances: dict = field(default_factory=dict)
    seed: int = 0

    def effective_doc(self) -> dict:
        # identifies the computation; the output format is deliberately excluded
        # so CSV and JSON renderings of one run share a hash
        return {
            "command": self.command,
            "input": self.input_doc,
            "tolerances": self.tolerances,
            "seed": self.seed,
        }


def parse_config(document: dict | str, example_override: str | None = None) -> RunConfig:
    """Validate a configuration document; every offending key is reported."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"configuration is not valid JSON: {exc}"])
    if not isinstance(document, dict):
        raise ConfigError(["configuration must be a JSON object"])

    problems: list[str] = []
    _check_keys(document, _TOP_KEYS, "config", problems)

    command = document.get("command")
    if command not in COMMANDS:
        problems.append(
            f"unknown command {command!r} (closest valid: {_closest(str(command), COMMANDS)!r})"
        )

    fmt = document.get("format", "csv")
    if fmt not in ("csv", "json"):
        problems.append(f"format must be 'csv' or 'json', got {fmt!r}")

    tolerances = {"quadrature": 1e-10, "solver": 1e-12, "verdict": 1e-6}
    tol_doc = document.get("tolerances", {})
    if not isinstance(tol_doc, dict):
        problems.append("tolerances must be an object")
    else:
        _check_keys(tol_doc, _TOL_KEYS, "tolerances", problems)
        for key in _TOL_KEYS & set(tol_doc):
            val = _number(tol_doc, key, problems, "tolerances", positive=True)
            if val is not None:
                tolerances[key] = val

    seed = document.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        problems.append(f"seed must be an integer, got {seed!r}")
        seed = 0

    input_doc = document.get("input_doc")
    if "input" in document and input_doc is not None:
        problems.append("give either 'input' (a path) or 'input_doc' (inline), not both")
    if "input" in document:
        path = Path(str(document["input"]))
        if not path.exists():
            problems.append(f"input path does not exist: {path}")
        else:
            try:
                input_doc = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                problems.append(f"cannot read input document {path}: {exc}")
    if input_doc is None:
        input_doc = {}
    if not isinstance(input_doc, dict):
        problems.append("input document must be a JSON object")
        input_doc = {}
    if example_override is not None:
        input_doc = {**input_doc, "example": example_override}

    if command in _INPUT_KEYS:
        valid = _INPUT_KEYS[command]
        if command == "experiment":
            example = input_doc.get("example")
            if example is not None and example not in EXPERIMENTS:
                problems.append(
                    f"unknown experiment {example!r} (closest valid: {_closest(str(example), EXPERIMENTS)!r})"
                )
            elif example is not None:
                valid = _EXPERIMENT_KEYS[example]
        _check_keys(input_doc, valid, f"{command} input", problems)
        for key in ("s0", "h0", "ratio", "h", "rim_radius", "r", "L", "a", "b",
                    "strip_conductance", "alpha_rule_c"):
            if key in input_doc:
                _number(input_doc, key, problems, f"{command} input")
        if "i_list" in input_doc:
            i_list = input_doc["i_list"]
            if not isinstance(i_list, list) or not all(
                isinstance(i, int) and not isinstance(i, bool) and i >= 1 for i in i_list
            ):
                problems.append(f"{command} input.i_list must be a list of integers >= 1, got {i_list!r}")

    output = document.get("output")
    if output is not None and not isinstance(output, str):
        problems.append(f"output must be a path string, got {output!r}")

    if problems:
        raise ConfigError(problems)
    return RunConfig(command, input_doc, output, fmt, tolerances, seed)


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _run_capacity_radial(cfg: RunConfig) -> tuple[dict, str]:
    doc = cfg.input_doc
    if "profile" not in doc or "s0" not in doc:
        raise ConfigError(["capacity-radial input needs 'profile' and 's0'"])
    profile = WarpProfile.from_doc(doc["profile"])
    cond = RadialCondenser(profile, float(doc["s0"]), doc.get("ends", "one"))
    schedule = default_schedule(
        cond,
        L_values=doc.get("L_values"),
        levels=int(doc.get("levels", 2)),
        h0=doc.get("h0"),
        ratio=float(doc.get("ratio", 1.05)),
    )
    est = capacity_estimate(cond, schedule)
    payload = {
        "command": "capacity-radial",
        "cap": est.cap,
        "error_estimate": est.error_estimate,
        "rows": [list(row) for row in est.rows],
        "provenance": "fem",
    }
    meta = _meta(cfg, provenance="fem", cap=est.cap, error_estimate=est.error_estimate)
    return payload, _csv_with_meta(fem_csv(est.rows), meta)


def _csv_with_meta(table: str, meta: dict) -> str:
    return "\n".join(reports.comment_header(meta)) + "\n" + table


def _meta(cfg: RunConfig, **extra) -> dict:
    meta = {"tool": f"varcap {__version__}", "config_sha256": reports.config_hash(cfg.effective_doc())}
    meta.update(extra)
    return meta


def _run_capacity_graph(cfg: RunConfig) -> tuple[dict, str]:
    doc = cfg.input_doc
    if "space" not in doc or "inner" not in doc or "outer" not in doc:
        raise ConfigError(["capacity-graph input needs 'space', 'inner', and 'outer'"])
    space = FiniteMetricMeasureSpace.from_doc(doc["space"])
    cond = GraphCondenser(
        space, tuple(doc["inner"]), tuple(doc["outer"]), Dimension(int(doc.get("m", 2)))
    )
    pot = graph_capacity(cond, rtol=cfg.tolerances["solver"])
    rim = doc.get("rim_radius")
    payload = {
        "command": "capacity-graph",
        "rows": [["condenser", pot.raw_energy, pot.capacity]],
        "rim_radius": rim,
        "provenance": "graph",
    }
    meta = _meta(cfg, provenance="graph")
    return payload, _csv_with_meta(capacity_csv([("condenser", pot.raw_energy, pot.capacity)], rim), meta)


def _run_experiment(cfg: RunConfig) -> tuple[dict, str]:
    doc = dict(cfg.input_doc)
    example = doc.pop("example", None)
    if example not in EXPERIMENTS:
        raise ConfigError([f"experiment input needs 'example' in {EXPERIMENTS}"])
    kwargs = dict(doc)
    kwargs.setdefault("tol", cfg.tolerances["verdict"])
    if "i_list" in kwargs:
        kwargs["i_list"] = tuple(int(i) for i in kwargs["i_list"])
    runner = RUNNERS[example]
    exp = runner(**kwargs)
    payload = exp.to_payload()
    meta = _meta(cfg)
    return payload, experiment_csv(exp, meta)


def _run_mass(cfg: RunConfig) -> tuple[dict, str]:
    doc = cfg.input_doc
    if "profile" not in doc or "radii" not in doc:
        raise ConfigError(["mass input needs 'profile' and 'radii'"])
    profile = WarpProfile.from_doc(doc["profile"])
    af = AFProfile.check(profile)
    radii = [float(R) for R in doc["radii"]]
    quad_tol = cfg.tolerances["quadrature"]

    def capacity_fn(R):
        return radial_capacity(RadialCondenser(profile, R), rel_tol=quad_tol)

    curve = evaluate_mass_curve(af, radii, capacity_fn=capacity_fn)
    extrap = extrapolate_mass(curve, tail_points=doc.get("tail_points"))
    payload = {
        "command": "mass",
        "rows": [list(row) for row in curve.rows()],
        "m_iso": extrap.m_iso,
        "m_cv": extrap.m_cv,
        "error_estimate": extrap.error_estimate,
        "af_witness": {"s_af": af.s_af, "ratio_eps": af.ratio_eps, "deriv_eps": af.deriv_eps},
        "provenance": "closed-form",
    }
    meta = _meta(
        cfg,
        provenance="closed-form",
        m_iso=extrap.m_iso,
        m_cv=extrap.m_cv,
        error_estimate=extrap.error_estimate,
    )
    return payload, mass_csv(curve, meta)


_IMPL = {
    "capacity-radial": _run_capacity_radial,
    "capacity-graph": _run_capacity_graph,
    "experiment": _run_experiment,
    "mass": _run_mass,
}


def csv_from_payload(payload: dict) -> str:
    """Regenerate the CSV report from a parsed JSON report (round-trip support)."""
    from .sequences import experiment_csv_from_payload

    meta = {"tool": payload["tool"], "config_sha256": payload["config_sha256"]}
    command = payload["command"]
    if command == "capacity-radial":
        meta.update(
            provenance=payload["provenance"],
            cap=payload["cap"],
            error_estimate=payload["error_estimate"],
        )
        return _csv_with_meta(fem_csv([tuple(r) for r in payload["rows"]]), meta)
    if command == "capacity-graph":
        meta.update(provenance=payload["provenance"])
        rows = [tuple(r) for r in payload["rows"]]
        return _csv_with_meta(capacity_csv(rows, payload.get("rim_radius")), meta)
    if command == "experiment":
        return experiment_csv_from_payload(payload, meta)
    if command == "mass":
        meta.update(
            provenance=payload["provenance"],
            m_iso=payload["m_iso"],
            m_cv=payload["m_cv"],
            error_estimate=payload["error_estimate"],
        )
        return reports.csv_table(
            ["R", "A", "V", "cap", "m_iso", "m_cv", "m_cv_alt"],
            [tuple(r) for r in payload["rows"]],
            meta,
        )
    raise ConfigError([f"unknown command in payload: {command!r}"])


def run(config: RunConfig) -> int:
    """Execute a validated configuration; returns the process exit code."""
    try:
        payload, csv_text = _IMPL[config.command](config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (VarcapError, ValueError, KeyError, TypeError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 1

    payload = {
        "tool": f"varcap {__version__}",
        "config_sha256": reports.config_hash(config.effective_doc()),
        "seed": config.seed,
        "command": config.command,
        **{k: v for k, v in payload.items() if k != "command"},
    }
    text = reports.json_report(payload) if config.format == "json" else csv_text
    try:
        if config.output:
            Path(config.output).write_text(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="varcap", description=__doc__)
    parser.add_argument("--version", action="version", version=f"varcap {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None, help="JSON configuration file")
    common.add_argument("--input", type=str, default=None, help="JSON input document")
    common.add_argument("--out", type=str, default=None, help="report path (default stdout)")
    common.add_argument("--format", type=str, default=None, choices=["csv", "json"])
    common.add_argument("--tol", type=float, default=None, help="primary tolerance override")
    common.add_argument("--seed", type=int, default=None, help="seed recorded in the report")

    sub = parser.add_subparsers(dest="command")
    sub.add_parser("capacity-radial", parents=[common])
    sub.add_parser("capacity-graph", parents=[common])
    exp = sub.add_parser("experiment", parents=[common])
    exp.add_argument("example", nargs="?", choices=list(EXPERIMENTS))
    sub.add_parser("mass", parents=[common])
    return parser


_TOL_TARGET = {
    "capacity-radial": "quadrature",
    "capacity-graph": "solver",
    "experiment": "verdict",
    "mass": "quadrature",
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command is None:
        print("a subcommand is required (capacity-radial, capacity-graph, experiment, mass)", file=sys.stderr)
        return 2

    doc: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            print(f"configuration error: config path does not exist: {path}", file=sys.stderr)
            return 2
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"configuration error: cannot read config: {exc}", file=sys.stderr)
            return 2
        if not isinstance(doc, dict):
            print("configuration error: config must be a JSON object", file=sys.stderr)
            return 2

    doc["command"] = args.command
    if args.input is not None:
        doc["input"] = args.input
        doc.pop("input_doc", None)
    if args.out is not None:
        doc["output"] = args.out
    if args.format is not None:
        doc["format"] = args.format
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.tol is not None:
        doc.setdefault("tolerances", {})[_TOL_TARGET[args.command]] = args.tol

    try:
        config = parse_config(doc, example_override=getattr(args, "example", None))
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"configuration error: {problem}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
