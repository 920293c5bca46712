"""Converging-family experiments and semicontinuity verdicts.

Four shipped families probe how condenser capacity behaves along a
converging sequence of spaces:

  ex1  cylinder transition: smooth metrics that are Euclidean out to radius i
       and a unit cylinder past i+1; capacity of a fixed ball dies, the flat
       limit keeps it positive.
  ex2  capped neck: an even neck profile capped by a pole on one side; every
       capped space carries half the capacity of the two-ended limit.
  ex3  two planar sheets: a unit disk plus a plane-with-hole hovering 1/i
       above it; the sheet Dirichlet forms are disconnected so the capacity
       is exactly zero, while the flat limit plane gives a positive condenser
       value.  An optional thin strip of conductance O(1/i) connects the
       sheets, making the capacity O(1/i) instead of 0.
  ex4  plane plus counter-oriented annulus: the limit space loses the annulus
       1 < r < 2, stranding the disk as its own component; capacity upstairs
       stays positive while the limit capacity is zero, so upper
       semicontinuity fails for this family.

The finite stand-in for limsup is the max over the final half of the
sequence; a verdict is `violated` exactly when that estimate exceeds the
limit capacity by more than the tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import reports
from .errors import DomainError, PreconditionError
from .geometry import Dimension
from .mms import Disk, FiniteMetricMeasureSpace, GraphCondenser, build_planar_sheet, graph_capacity, union_spaces
from .profiles import capped_even_profile, cylinder_transition_profile, euclidean_profile, hyperboloid_profile
from .radial_fem import capacity_estimate
from .regions import DefiningFunction, region_measure
from .warped import RadialCondenser, end_resistance, radial_capacity, truncated_ramp_energy

DEFAULT_VERDICT_TOL = 1e-6

CONSISTENT_EQUAL = "consistent-equal"
CONSISTENT_STRICT_JUMP = "consistent-strict-jump"
VIOLATED = "violated"


@dataclass(frozen=True)
class Verdict:
    limsup_estimate: float
    limit_capacity: float
    tolerance: float
    classification: str


def check_semicontinuity(
    capacities: Sequence[float], limit_cap: float, tol: float = DEFAULT_VERDICT_TOL
) -> Verdict:
    """Classify a capacity sequence against its limit value.

    The limsup estimate is the max over the final ceil(I/2) entries, a stable
    finite surrogate for eventually monotone sequences.  `violated` means the
    estimate exceeds the limit by more than the tolerance.
    """
    caps = [float(c) for c in capacities]
    if len(caps) < 3:
        raise PreconditionError("need at least 3 sequence values")
    tail = caps[-math.ceil(len(caps) / 2) :]
    limsup = max(tail)
    if limsup > limit_cap + tol:
        cls = VIOLATED
    elif limsup >= limit_cap - tol:
        cls = CONSISTENT_EQUAL
    else:
        cls = CONSISTENT_STRICT_JUMP
    return Verdict(limsup, float(limit_cap), float(tol), cls)


@dataclass(frozen=True)
class SequenceExperiment:
    """Capacities along a converging family, the limit value, and the verdict."""

    name: str
    i_list: tuple
    capacities: tuple
    limit_capacity: float
    verdict: Verdict
    measures: tuple | None = None
    limit_measure: float | None = None
    regions: tuple | None = None  # per-index label lists, JSON report only
    metadata: dict = field(default_factory=dict)

    def to_payload(self) -> dict:
        return {
            "experiment": self.name,
            "i": list(self.i_list),
            "capacity": list(self.capacities),
            "region_measure": None if self.measures is None else list(self.measures),
            "regions": None if self.regions is None else [list(r) for r in self.regions],
            "limit_capacity": self.limit_capacity,
            "limit_measure": self.limit_measure,
            "limsup_estimate": self.verdict.limsup_estimate,
            "tolerance": self.verdict.tolerance,
            "verdict": self.verdict.classification,
            "metadata": self.metadata,
        }


def experiment_csv(exp: SequenceExperiment, meta: dict | None = None) -> str:
    """Per-index rows plus the limit/limsup/verdict footer block."""
    return experiment_csv_from_payload(exp.to_payload(), meta)


def experiment_csv_from_payload(payload: dict, meta: dict | None = None) -> str:
    """The CSV of an experiment payload, as built by `to_payload` or parsed
    back from a JSON report."""
    header = dict(meta or {})
    header.setdefault("experiment", payload["experiment"])
    for key, val in sorted(payload["metadata"].items()):
        header.setdefault(key, val)
    measures = payload["region_measure"] or [None] * len(payload["i"])
    rows = list(zip(payload["i"], payload["capacity"], measures))
    footer = [(payload["limit_capacity"], payload["limsup_estimate"], payload["verdict"])]
    table = reports.csv_table(["i", "capacity", "region_measure"], rows, header)
    return table + reports.csv_table(["limit_capacity", "limsup_estimate", "verdict"], footer)


# ---------------------------------------------------------------------------
# ex1: cylinder transition
# ---------------------------------------------------------------------------


def _check_ball(i_list: Sequence[int], r: float) -> None:
    """Reject a ball radius outside the Euclidean region of some space (r < min i)."""
    if r >= min(i_list, default=math.inf):  # no index, no region to leave
        raise DomainError(f"ball radius r={r} must lie inside the Euclidean region (r < min i)")


def run_example1(
    i_list: Sequence[int] = (2, 4, 8),
    r: float = 1.0,
    L_values: Sequence[float] | None = None,
    m: int = 3,
    tol: float = DEFAULT_VERDICT_TOL,
) -> SequenceExperiment:
    """Capacity of the ball {s <= r} along the cylinder-transition family."""
    i_list = tuple(i_list)
    _check_ball(i_list, r)
    caps, estimates = [], []
    for i in i_list:
        profile = cylinder_transition_profile(i, m=m)
        cond = RadialCondenser(profile, r)
        est = capacity_estimate(cond, L_values)
        caps.append(est.cap)
        estimates.append(est.error_estimate)
    limit_profile = euclidean_profile(m)
    limit_cap = radial_capacity(RadialCondenser(limit_profile, r))
    ramp_L = 1000.0
    ramp = truncated_ramp_energy(cylinder_transition_profile(min(i_list), m=m), ramp_L)
    verdict = check_semicontinuity(caps, limit_cap, tol)
    meta = {
        "family": "cylinder-transition",
        "r": r,
        "m": m,
        "ramp_L": ramp_L,
        "ramp_energy": ramp.energy,
        "ramp_on_cylinder": ramp.outside_cylinder,
        "capacity_error_estimates": tuple(estimates),
        "provenance": "fem",
        "limit_provenance": "closed-form",
    }
    return SequenceExperiment("ex1", i_list, tuple(caps), limit_cap, verdict, metadata=meta)


# ---------------------------------------------------------------------------
# ex2: capped even neck
# ---------------------------------------------------------------------------


def run_example2(
    i_list: Sequence[int] = (1, 2, 4),
    a: float = 1.0,
    b: float = 1.0,
    m: int = 3,
    tol: float = DEFAULT_VERDICT_TOL,
) -> SequenceExperiment:
    """Capacity of the waist slice {s = 0} for capped even necks f = sqrt(a + b s^2).

    The open side of each capped space carries the full resistance C, so its
    capacity is omega/(gamma C); the two-ended limit has both ends and twice
    the capacity.  The capped side lies inside K = {s <= 0} and nothing there
    is grounded, so the potential is exactly 1 on it and its energy exactly 0:
    every capped capacity is the open side's, whatever i.  The runner builds
    each capped profile only to check that the family member exists.
    """
    i_list = tuple(i_list)
    neck = hyperboloid_profile(m=m, a=a, b=b)
    C = end_resistance(RadialCondenser(neck, 0.0))
    if C == math.inf:
        raise DomainError("degenerate experiment: the neck profile has a divergent end")
    limit_cap = radial_capacity(RadialCondenser(neck, 0.0, ends="two_symmetric"))
    open_est = capacity_estimate(RadialCondenser(neck, 0.0))
    for i in i_list:
        capped_even_profile(i, m=m, a=a, b=b)
    caps = (open_est.cap,) * len(i_list)

    verdict = check_semicontinuity(caps, limit_cap, tol)
    meta = {
        "family": "capped-even-neck",
        "m": m,
        "end_resistance": C,
        "open_side_error_estimate": open_est.error_estimate,
        "pole_side_energies": (0.0,) * len(i_list),
        "ratio_to_limit": tuple(c / limit_cap for c in caps),
        "provenance": "fem",
        "limit_provenance": "closed-form",
    }
    return SequenceExperiment("ex2", i_list, caps, limit_cap, verdict, metadata=meta)


# ---------------------------------------------------------------------------
# ex3 and ex4: planar sheet spaces
# ---------------------------------------------------------------------------


LATTICE_OFFSET = 0.5  # planar experiments use the half-offset lattice (k + 1/2) * h
_PAD = 1e-9  # radial selections include nodes this close to their circle


def _plane_bounds(rim_radius: float, h: float) -> tuple[float, float, float, float]:
    half = rim_radius + 2.0 * h
    return (-half, half, -half, half)


def _unit_disk(h: float) -> FiniteMetricMeasureSpace:
    return build_planar_sheet(
        (-1.0, 1.0, -1.0, 1.0), h, clip=Disk(0.0, 0.0, 1.0), label_prefix="K", offset=LATTICE_OFFSET
    )


def _radius(space: FiniteMetricMeasureSpace) -> np.ndarray:
    return np.sqrt(space.coords[:, 0] ** 2 + space.coords[:, 1] ** 2)


def _check_plane(h: float, rim_radius: float, clear_of: float, inside: str) -> None:
    """Reject a lattice too coarse to resolve the unit disk and a rim within
    4h of the radius `clear_of` of the `inside` set."""
    if h > 0.1 + 1e-12:
        raise DomainError(f"lattice spacing h={h} too coarse to resolve the unit disk (need h <= 0.1)")
    if rim_radius <= clear_of + 4.0 * h:
        raise DomainError(
            f"rim radius sits too close to the {inside}; condenser would be distorted "
            f"(need rim_radius > {clear_of:g} + 4h = {clear_of + 4.0 * h:g}, got {rim_radius})"
        )


def _check_disk_plane(h: float, rim_radius: float) -> None:
    """ex3's plane: a lattice fine enough for the unit disk, a rim clear of it."""
    _check_plane(h, rim_radius, 1.0, "disk")


def _check_annulus_plane(h: float, rim_radius: float) -> None:
    """ex4's plane: a lattice fine enough for the unit disk, a rim clear of
    the annulus 1 < r < 2."""
    _check_plane(h, rim_radius, 2.0, "annulus")


def _check_family(
    i_list: Sequence[int], alphas: Sequence[float] | None = None, alpha_rule_c: float | None = None
) -> None:
    """Reject family indices below 1, a threshold list given with a c/i rule,
    a short threshold list and negative thresholds before any work."""
    if any(i < 1 for i in i_list):
        raise DomainError(f"family indices must be >= 1, got {list(i_list)}")
    if alphas is not None and alpha_rule_c is not None:
        raise DomainError("provide at most one of an alpha list or a c/i rule")
    if alphas is not None and len(alphas) < len(i_list):
        raise DomainError(f"need one threshold per family index, got {len(alphas)} for {len(i_list)}")
    if alphas is not None and any(a < 0 for a in alphas):
        raise DomainError("thresholds must be nonnegative")
    if alpha_rule_c is not None and alpha_rule_c < 0:
        raise DomainError("alpha rule coefficient must be nonnegative")


def limit_plane_condenser(h: float, rim_radius: float) -> GraphCondenser:
    """Unit disk grounded at the rim circle of a full plane sheet."""
    plane = build_planar_sheet(_plane_bounds(rim_radius, h), h, label_prefix="L", offset=LATTICE_OFFSET)
    r = _radius(plane)
    return GraphCondenser(plane, r <= 1.0 + _PAD, r >= rim_radius - _PAD, Dimension(2))


def planar_condenser_study(
    h_list: Sequence[float] = (0.1, 0.05, 0.025), rim_radius: float = 4.0
) -> tuple[list[float], list[float], float]:
    """Lattice condenser values against 1/log(rim) on a refinement ladder.

    Returns (capacities, errors, observed order); the target is the
    continuum disk-in-plane condenser value at the stated rim, and the order
    is the least-squares slope of log error against log h.
    """
    target = 1.0 / math.log(rim_radius)
    caps = [graph_capacity(limit_plane_condenser(h, rim_radius)).capacity for h in h_list]
    errors = [abs(c - target) for c in caps]
    return caps, errors, -fit_power_law(h_list, errors)


def two_sheet_space(
    h: float, i: int, rim_radius: float, strip_conductance: float | None = None
) -> tuple[FiniteMetricMeasureSpace, np.ndarray, np.ndarray]:
    """Disk sheet at z=0 plus plane-with-hole sheet at z=1/i.

    Returns (space, inner indices, outer indices).  With `strip_conductance`
    a single inter-sheet edge of that total conductance ties the disk rim to
    the hole rim, standing in for a thin connecting strip.
    """
    _check_family((i,))
    disk = _unit_disk(h)
    sheet = build_planar_sheet(
        _plane_bounds(rim_radius, h), h, hole=Disk(0.0, 0.0, 1.0), z_offset=1.0 / i, label_prefix="S",
        offset=LATTICE_OFFSET,
    )
    r_sheet = _radius(sheet)
    inter = None
    if strip_conductance is not None:
        inter = [(np.argmax(_radius(disk)), np.argmin(r_sheet), strip_conductance)]
    space = union_spaces(disk, sheet, inter)
    return space, np.arange(disk.n), disk.n + np.flatnonzero(r_sheet >= rim_radius - _PAD)


def run_example3(
    h: float = 0.1, i_list: Sequence[int] = (2, 4, 8), rim_radius: float = 4.0,
    strip_conductance: float | None = None, alphas: Sequence[float] | None = None,
    alpha_rule_c: float | None = None, tol: float = DEFAULT_VERDICT_TOL,
) -> SequenceExperiment:
    """Two-sheet planar family against the flat-plane condenser limit.

    Capacities are condenser values at the stated rim radius (the plane has
    no capacity at infinity; the rim is disclosed in the metadata).  Region
    measures come from thresholding the 1-Lipschitz extension of the limit
    disk's defining function at alpha_i: the entries of `alphas` in order,
    the rule alpha_i = alpha_rule_c / i, or by default alpha_i = 0, where the
    region is exactly the disk sheet.
    """
    i_list = tuple(i_list)
    _check_disk_plane(h, rim_radius)
    _check_family(i_list, alphas, alpha_rule_c)

    limit_cond = limit_plane_condenser(h, rim_radius)
    limit_cap = graph_capacity(limit_cond).capacity

    defining = DefiningFunction.canonical_for(limit_cond.space, limit_cond.k_idx)
    if alphas is None:
        alphas = [0.0 if alpha_rule_c is None else alpha_rule_c / i for i in i_list]
    alphas = [float(a) for a in alphas]
    limit_measure = region_measure(limit_cond.space, limit_cond.k_idx)

    caps, measures, regions = [], [], []
    for i, alpha in zip(i_list, alphas):
        strip = None if strip_conductance is None else strip_conductance / i
        space, inner, outer = two_sheet_space(h, i, rim_radius, strip)
        caps.append(graph_capacity(GraphCondenser(space, inner, outer, Dimension(2))).capacity)
        region = defining.extension_on(space, upto=alpha) <= alpha
        regions.append(tuple(space.labels_at(region)))
        measures.append(region_measure(space, region))

    verdict = check_semicontinuity(caps, limit_cap, tol)
    meta = {
        "family": "two-sheet-plane",
        "h": h,
        "rim_radius": rim_radius,
        "strip_conductance": strip_conductance,
        "limit_reference": 1.0 / math.log(rim_radius),
        "region_check": "empirical (thresholds fixed up front, not chosen a posteriori)",
        "provenance": "graph",
        "limit_provenance": "graph",
    }
    return SequenceExperiment(
        "ex3", i_list, tuple(caps), limit_cap, verdict, measures=tuple(measures), limit_measure=limit_measure,
        regions=tuple(regions), metadata=meta,
    )


def run_example4(
    h: float = 0.1, i_list: Sequence[int] = (2, 4, 8), rim_radius: float = 4.0,
    tol: float = DEFAULT_VERDICT_TOL,
) -> SequenceExperiment:
    """Plane plus counter-oriented annulus: the semicontinuity failure case.

    Orientation cancellation is encoded by its geometric consequence: the
    limit space is the plane with the open annulus 1 < r < 2 deleted, which
    strands the unit disk as its own component (zero capacity).  Upstairs the
    disk lives inside a full plane sheet whose geometry does not depend on i,
    so the capacities form a positive constant sequence and the verdict is
    `violated`.

    Each family space is the plane condenser of `limit_plane_condenser` in
    disjoint union with the annulus 1 < r < 2 at height 1/i.  The annulus has
    no edge to the plane and holds no node of K or B, so `graph_capacity`
    leaves it out of the solve and sets it to 0, where it adds no energy:
    every family capacity is exactly the plane condenser's, which is solved
    once and reported for each i.
    """
    i_list = tuple(i_list)
    _check_annulus_plane(h, rim_radius)
    _check_family(i_list)
    caps = (graph_capacity(limit_plane_condenser(h, rim_radius)).capacity,) * len(i_list)

    limit_disk = _unit_disk(h)
    limit_far = build_planar_sheet(
        _plane_bounds(rim_radius, h), h, hole=Disk(0.0, 0.0, 2.0), label_prefix="F", offset=LATTICE_OFFSET
    )
    limit_space = union_spaces(limit_disk, limit_far)
    inner = np.arange(limit_disk.n)
    outer = limit_disk.n + np.flatnonzero(_radius(limit_far) >= rim_radius - _PAD)
    limit_cap = graph_capacity(GraphCondenser(limit_space, inner, outer, Dimension(2))).capacity

    verdict = check_semicontinuity(caps, limit_cap, tol)
    meta = {
        "family": "plane-plus-counter-annulus",
        "h": h,
        "rim_radius": rim_radius,
        "modeling_note": (
            "orientation cancellation modeled geometrically: the limit space deletes "
            "the annulus 1 < r < 2 instead of carrying current multiplicities"
        ),
        "provenance": "graph",
        "limit_provenance": "graph",
    }
    return SequenceExperiment("ex4", i_list, caps, limit_cap, verdict, metadata=meta)


def fit_power_law(i_list: Sequence[float], values: Sequence[float]) -> float:
    """Exponent p of a least-squares fit values ~ c / i^p (positive for decay)."""
    i_arr = np.asarray(i_list, dtype=float)
    v = np.asarray(values, dtype=float)
    if i_arr.size < 2 or np.any(v <= 0) or np.any(i_arr <= 0):
        raise DomainError("power-law fit needs >= 2 points with positive indices and values")
    slope = np.polyfit(np.log(i_arr), np.log(v), 1)[0]
    return float(-slope)
