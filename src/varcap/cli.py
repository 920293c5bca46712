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
import functools
import inspect
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import __version__, reports, sequences
from .errors import ConfigError, VarcapError, is_real
from .geometry import Dimension
from .mass import MASS_COLUMNS, AFProfile, _check_exhaustion, evaluate_mass_curve, extrapolate_mass
from .mms import FiniteMetricMeasureSpace, GraphCondenser, _check_document_condenser, capacity_csv, graph_capacity
from .profiles import WarpProfile
from .radial_fem import _check_schedule, capacity_estimate, fem_csv
from .warped import RadialCondenser

_TOP_KEYS = {"command", "input", "input_doc", "output", "format", "tolerances", "seed"}
# every entry is hashed into config_sha256, whichever of them a command reads
_TOLERANCES = {"quadrature": 1e-10, "verdict": 1e-6}


def _closest(key: str, valid) -> str:
    match = difflib.get_close_matches(key, sorted(valid), n=1, cutoff=0.0)
    return match[0] if match else "none"


def _check_keys(doc: dict, valid, where: str, problems: list):
    for key in doc:
        if key not in valid:
            problems.append(
                f"unknown key {key!r} in {where} (closest valid key: {_closest(key, valid)!r})"
            )


def _read_json(path: str, what: str):
    """The JSON document at `path`, or a ConfigError saying why it cannot be read."""
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError([f"{what} path does not exist: {path}"]) from None
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError([f"cannot read {what} {path}: {exc}"]) from None


class _Invalid(Exception):
    """A value fails its converter; `path` extends the key path it sits at."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(message)
        self.message, self.path = message, path


def _rule(test, expected: str):
    """Converter passing a value on unchanged when `test(value)` holds."""

    def convert(value):
        if not test(value):
            raise _Invalid(f"must be {expected}, got {value!r}")
        return value

    return convert


def _integer(least: int):
    return _rule(lambda v: isinstance(v, int) and is_real(v) and v >= least,
                 f"an integer >= {least} in the float range")


def _one_of(*choices: str):
    return _rule(lambda v: isinstance(v, str) and v in choices, f"one of {list(choices)}")


_real = _rule(is_real, "a number (finite)")
_positive = _rule(lambda v: is_real(v) and v > 0, "a number (finite, > 0)")
_nonnegative = _rule(lambda v: is_real(v) and v >= 0, "a number (finite, >= 0)")
_label = _rule(lambda v: isinstance(v, str), "a point label string")


def _list_of(convert, least: int = 0):
    def convert_list(value):
        if not isinstance(value, list):
            raise _Invalid(f"must be a list, got {value!r}")
        items = []
        for k, item in enumerate(value):
            try:
                items.append(convert(item))
            except _Invalid as exc:
                raise _Invalid(exc.message, f"[{k}]{exc.path}") from None
        if len(items) < least:
            raise _Invalid(f"must list at least {least} entries, got {value!r}")
        return items

    return convert_list


def _document(cls):
    """A nested profile or space document, converted whole by `cls.from_doc`."""

    def convert(value):
        try:
            return cls.from_doc(value)
        except VarcapError as exc:
            raise _Invalid(f"is not a valid document: {exc}") from None

    return convert


def _convert(convert, value, path: str, problems: list):
    """`convert(value)`, or None with the problem recorded under `path`."""
    try:
        return convert(value)
    except _Invalid as exc:
        problems.append(f"{path}{exc.path} {exc.message}")
        return None


# ---------------------------------------------------------------------------
# implementations (converted keys -> payload) and CSV renderers (payload -> CSV)
# ---------------------------------------------------------------------------


def _capacity_radial(profile, s0, **options) -> dict:
    condenser = {"ends": options.pop("ends")} if "ends" in options else {}
    cond = RadialCondenser(profile, s0, **condenser)
    est = capacity_estimate(cond, **options)
    return {
        "cap": est.cap,
        "error_estimate": est.error_estimate,
        "rows": [list(row) for row in est.rows],
        "provenance": "fem",
    }


def _capacity_graph(space, inner, outer, m=None, rim_radius=None) -> dict:
    dim = () if m is None else (Dimension(m),)
    pot = graph_capacity(GraphCondenser(space, inner, outer, *dim))
    return {
        "rows": [["condenser", pot.raw_energy, pot.capacity]],
        "rim_radius": rim_radius,
        "provenance": "graph",
    }


def _mass(profile: AFProfile, radii, tol, **extrapolation) -> dict:
    """The mass report; `profile` comes checked, as an `AFProfile`, from the command's rule."""
    curve = evaluate_mass_curve(profile, radii, rel_tol=tol)
    extrap = extrapolate_mass(curve, **extrapolation)
    return {
        "rows": [list(row) for row in curve.rows()],
        "m_iso": extrap.m_iso,
        "m_cv": extrap.m_cv,
        "error_estimate": extrap.error_estimate,
        "af_witness": {"s_af": profile.s_af, "ratio_eps": profile.ratio_eps, "deriv_eps": profile.deriv_eps},
        "provenance": "closed-form",
    }


def _table(render, *fields):
    """CSV renderer: a header of tool, hash and the payload's `fields`, then `render(payload)`."""

    def csv(payload: dict, header: dict) -> str:
        header = {**header, **{key: payload[key] for key in fields}}
        return "\n".join(reports.comment_header(header)) + "\n" + render(payload)

    return csv


@dataclass(frozen=True)
class Command:
    """One subcommand, declared once."""

    keys: dict  # input key -> converter
    tolerance: str | None  # the `tolerances` entry that `--tol` sets and `run` receives as `tol`
    run: Callable[..., dict]  # converted keys -> payload
    csv: Callable[[dict, dict], str]  # (payload, header) -> CSV report
    required: tuple = ()  # keys the input document must give
    # the library's own checks of keys tied together, each raising a VarcapError,
    # with the keys it takes -> the library's default for each; a check that
    # returns a dict hands `run` those keys in the form it checked them
    rules: tuple[tuple[Callable, dict], ...] = ()
    labels: bool = False  # whether `run` takes `labels`, true for a JSON report: the CSV has no region labels


def _tied(rule: Callable, source: Callable) -> tuple:
    """A `Command.rules` entry: `rule` with the default `source` gives each of its keys."""
    defaults = inspect.signature(source).parameters
    return rule, {key: defaults[key].default for key in inspect.signature(rule).parameters}


def _experiment(runner: str, *rules, **keys) -> Command:
    """An experiment entry; its runner in `sequences` is looked up at call
    time, so a wrapper put around it (a profiler, a test double) sees the call.
    `rules` are checks the runner itself makes, run here on the converted keys."""
    return Command(
        keys={"i_list": _list_of(_integer(1), least=3), **keys},
        tolerance="verdict",
        run=lambda labels, **args: getattr(sequences, runner)(**args).to_payload(labels),
        csv=sequences.experiment_csv_from_payload,
        rules=tuple(_tied(rule, getattr(sequences, runner)) for rule in rules),
        labels=True,
    )


_PROFILE = _document(WarpProfile)

# Converters check one key each.  A rule ties keys together by calling the
# library's own check: a condenser's sets against its space or its s0 against
# its profile, an experiment runner's (r < min i, a bridge [i, i+1] with room
# in floats, one threshold per index, h <= 0.1, a rim clear of the disk or
# annulus and a lattice within its node budget), the radial route's whole
# schedule (at least 3 distinct radii past s0 and the element budget), or the
# mass curve's profile and radii.  What only a computation can show, such as
# a value past the float range, surfaces as a computation error.
COMMANDS = {
    "capacity-radial": Command(
        keys={
            "profile": _PROFILE,
            "s0": _real,
            "ends": _one_of("one", "two_symmetric"),
            "L_values": _list_of(_real, least=3),
            "levels": _integer(2),
            "h0": _positive,
            "ratio": _rule(lambda v: is_real(v) and 1.0 < v <= 1.5, "a number in (1, 1.5]"),
        },
        required=("profile", "s0"),
        tolerance=None,
        run=_capacity_radial,
        rules=((RadialCondenser, dict.fromkeys(("profile", "s0"))), _tied(_check_schedule, _check_schedule)),
        csv=_table(lambda p: fem_csv(p["rows"]), "provenance", "cap", "error_estimate"),
    ),
    "capacity-graph": Command(
        keys={
            "space": _document(FiniteMetricMeasureSpace),
            "inner": _list_of(_label),
            "outer": _list_of(_label),
            "m": _integer(2),
            "rim_radius": _positive,
        },
        required=("space", "inner", "outer"),
        tolerance=None,
        run=_capacity_graph,
        rules=((_check_document_condenser, dict.fromkeys(("space", "inner", "outer"))),),
        csv=_table(lambda p: capacity_csv(p["rows"], p["rim_radius"]), "provenance"),
    ),
    "experiment ex1": _experiment(
        "run_example1", sequences._check_ball, sequences._check_bridges,
        i_list=_list_of(_integer(2), least=3), r=_positive, m=_integer(2),
    ),
    "experiment ex2": _experiment("run_example2", a=_positive, b=_positive, m=_integer(3)),
    "experiment ex3": _experiment(
        "run_example3", sequences._check_disk_plane, sequences._check_family, h=_positive, rim_radius=_positive,
        strip_conductance=_positive, alphas=_list_of(_nonnegative), alpha_rule_c=_nonnegative,
    ),
    "experiment ex4": _experiment("run_example4", sequences._check_annulus_plane, h=_positive, rim_radius=_positive),
    "mass": Command(
        keys={"profile": _PROFILE, "radii": _list_of(_real), "tail_points": _integer(1)},
        required=("profile", "radii"),
        tolerance="quadrature",
        run=_mass,
        rules=((lambda **keys: {"profile": _check_exhaustion(**keys)},
                dict.fromkeys(("profile", "radii", "tail_points"))),),
        csv=_table(
            lambda p: reports.csv_table(MASS_COLUMNS, p["rows"]), "provenance", "m_iso", "m_cv", "error_estimate"
        ),
    ),
}
SUBCOMMANDS = tuple(dict.fromkeys(name.split()[0] for name in COMMANDS))
EXPERIMENTS = tuple(name.split()[1] for name in COMMANDS if name.startswith("experiment "))


@dataclass
class RunConfig:
    name: str  # key of COMMANDS
    input_doc: dict  # as given; hashed into config_sha256
    args: dict  # the converted input keys
    output: str | None = None
    format: str = "csv"
    tolerances: dict = field(default_factory=dict)
    seed: int = 0

    @property
    def command(self) -> str:
        return self.name.split()[0]

    def effective_doc(self) -> dict:
        # identifies the computation; the output format is deliberately excluded
        # so CSV and JSON renderings of one run share a hash
        return {
            "command": self.command,
            "input": self.input_doc,
            "tolerances": self.tolerances,
            "seed": self.seed,
        }


def parse_config(
    document: dict | str, example_override: str | None = None, tol_override: float | None = None
) -> RunConfig:
    """Validate a configuration document and convert its input before any
    computation; every problem is reported together."""
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
    if command not in SUBCOMMANDS:
        problems.append(
            f"unknown command {command!r} (closest valid: {_closest(str(command), SUBCOMMANDS)!r})"
        )
        command = None

    fmt = _convert(_one_of("csv", "json"), document.get("format", "csv"), "format", problems)

    tolerances = dict(_TOLERANCES)
    tol_doc = document.get("tolerances", {})
    if not isinstance(tol_doc, dict):
        problems.append("tolerances must be an object")
    else:
        _check_keys(tol_doc, _TOLERANCES, "tolerances", problems)
        for key in _TOLERANCES.keys() & tol_doc.keys():
            val = _convert(_positive, tol_doc[key], f"tolerances.{key}", problems)
            if val is not None:
                tolerances[key] = float(val)

    seed = document.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        problems.append(f"seed must be an integer, got {seed!r}")
        seed = 0

    input_doc = document.get("input_doc")
    if "input" in document and input_doc is not None:
        problems.append("give either 'input' (a path) or 'input_doc' (inline), not both")
    if "input" in document:
        try:
            input_doc = _read_json(str(document["input"]), "input document")
        except ConfigError as exc:
            problems += exc.problems
    if input_doc is None:
        input_doc = {}
    if not isinstance(input_doc, dict):
        problems.append("input document must be a JSON object")
        input_doc = {}
    if example_override is not None:
        input_doc = {**input_doc, "example": example_override}

    name, keys = command, input_doc
    if command == "experiment":
        example = _convert(_one_of(*EXPERIMENTS), input_doc.get("example"), "experiment input.example", problems)
        name = f"experiment {example}"
        keys = {key: val for key, val in input_doc.items() if key != "example"}
    spec, args = COMMANDS.get(name), {}
    if spec is not None:
        where = f"{name} input"
        _check_keys(keys, spec.keys, where, problems)
        problems += [f"{where} needs {key!r}" for key in spec.required if key not in keys]
        for key, convert in spec.keys.items():
            if key in keys:
                args[key] = _convert(convert, keys[key], f"{where}.{key}", problems)
        # the rules run once every given key converted and every required key is given
        if None not in args.values() and set(spec.required) <= args.keys():
            for rule, defaults in spec.rules:
                tied = {key: args.get(key, default) for key, default in defaults.items()}
                try:
                    checked = rule(**tied)
                except VarcapError as exc:
                    # a key left unset (None) takes no part in the rule, so it is not named
                    named = [key for key, value in tied.items() if value is not None]
                    problems.append(f"{where} keys {' and '.join(map(repr, named))}: {exc}")
                else:
                    if isinstance(checked, dict):
                        args.update(checked)
        if tol_override is not None and spec.tolerance is None:
            problems.append(f"--tol: {name} has no tolerance to set")
        elif tol_override is not None:
            val = _convert(_positive, tol_override, f"--tol (tolerances.{spec.tolerance})", problems)
            if val is not None:
                tolerances[spec.tolerance] = float(val)

    output = document.get("output")
    if output is not None and not isinstance(output, str):
        problems.append(f"output must be a path string, got {output!r}")

    if problems:
        raise ConfigError(problems)
    return RunConfig(name, input_doc, args, output, fmt, tolerances, seed)


def csv_from_payload(payload: dict) -> str:
    """The CSV report of a payload built by `run` or parsed back from a JSON report."""
    name = payload["command"]
    if name == "experiment":
        name += " " + payload["experiment"]
    header = {"tool": payload["tool"], "config_sha256": payload["config_sha256"]}
    return COMMANDS[name].csv(payload, header)


def run(config: RunConfig) -> int:
    """Execute a validated configuration; returns the process exit code."""
    spec = COMMANDS[config.name]
    args = dict(config.args)
    if spec.tolerance is not None:
        args["tol"] = config.tolerances[spec.tolerance]
    if spec.labels:
        args["labels"] = config.format == "json"
    try:
        payload = spec.run(**args)
    except VarcapError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 1

    payload = {
        "tool": f"varcap {__version__}",
        "config_sha256": reports.config_hash(config.effective_doc()),
        "seed": config.seed,
        "command": config.command,
        **payload,
    }
    text = reports.json_report(payload) if config.format == "json" else csv_from_payload(payload)
    try:
        if config.output:
            Path(config.output).write_text(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return 1
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first `main` call and shared by later ones."""
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
    for command in SUBCOMMANDS:
        cmd = sub.add_parser(command, parents=[common])
        if command == "experiment":
            cmd.add_argument("example", nargs="?", choices=list(EXPERIMENTS))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command is None:
        print(f"a subcommand is required ({', '.join(SUBCOMMANDS)})", file=sys.stderr)
        return 2

    try:
        doc = _read_json(args.config, "config") if args.config else {}
        if not isinstance(doc, dict):
            raise ConfigError(["config must be a JSON object"])
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
        config = parse_config(doc, example_override=getattr(args, "example", None), tol_override=args.tol)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"configuration error: {problem}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
