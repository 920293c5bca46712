"""Converging-family experiments and semicontinuity verdicts.

Four shipped families probe how condenser capacity behaves along a
converging sequence of spaces:

  ex1  cylinder transition: smooth metrics that are Euclidean out to radius i
       and a unit cylinder past i+1, whose end resistance diverges: a fixed
       ball has capacity exactly 0, the flat limit keeps it positive.
  ex2  capped neck: an even neck profile capped by a pole on one side; every
       capped space carries exactly half the capacity of the two-ended limit.
  ex3  two planar sheets: a unit disk plus a plane-with-hole hovering 1/i
       above it; the sheet Dirichlet forms are disconnected so the capacity
       is exactly zero, while the flat limit plane gives a positive condenser
       value.  A strip, one edge s/i in series with the sheet's conductance
       G, gives capacity 1/(i/s + 1/G)/gamma_2 = O(1/i) from one solve for G.
  ex4  plane plus counter-oriented annulus: the limit space loses the annulus
       1 < r < 2, stranding the disk as its own component; capacity upstairs
       stays positive while the limit capacity is zero, so upper
       semicontinuity fails for this family.

The finite stand-in for limsup is the max over the final half of the
sequence; a verdict is `violated` exactly when that estimate exceeds the
limit capacity by more than the tolerance.  ex1 and ex2 take closed forms
from the end resistance; ex3's limit, ex4 and the ladder solve the
disk-in-plane condenser on its 8-fold symmetry quotient, and ex4's limit
is 0 by structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import reports
from .errors import DomainError, PreconditionError
from .geometry import Dimension
from .mms import (
    Disk, FiniteMetricMeasureSpace, GraphCondenser, _LatticeLabels, build_planar_sheet, graph_capacity,
)
from .profiles import (
    bridge_knots, capped_even_profile, cylinder_transition_profile, euclidean_profile, hyperboloid_profile,
)
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
    estimate exceeds the limit by more than the tolerance.  Non-finite
    values and a negative tolerance raise `DomainError`.
    """
    caps = [float(c) for c in capacities]
    if len(caps) < 3:
        raise PreconditionError("need at least 3 sequence values")
    if not all(map(math.isfinite, [*caps, limit_cap, tol])):
        raise DomainError(f"capacities, limit and tolerance must be finite, got {caps}, {limit_cap}, {tol}")
    if tol < 0:
        raise DomainError(f"tolerance must be nonnegative, got {tol}")
    tail = caps[-math.ceil(len(caps) / 2) :]
    limsup = max(tail)
    if limsup > limit_cap + tol:
        cls = VIOLATED
    elif limsup >= limit_cap - tol:
        cls = CONSISTENT_EQUAL
    else:
        cls = CONSISTENT_STRICT_JUMP
    return Verdict(limsup, float(limit_cap), float(tol), cls)


class SheetRegions(NamedTuple):
    """ex3's regions as index arrays.  Every region holds K, the points `k_idx`
    of `disk`, then the points `on_sheet[n]` of the holed `sheet` at family
    index n; labels are formatted only for the JSON report."""

    disk: FiniteMetricMeasureSpace
    k_idx: np.ndarray
    sheet: FiniteMetricMeasureSpace
    on_sheet: tuple  # per family index, an index array into `sheet`

    def labels(self) -> list[list[str]]:
        k_labels = self.disk.labels_at(self.k_idx)
        return [k_labels + self.sheet.labels_at(idx) for idx in self.on_sheet]


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
    regions: SheetRegions | None = None
    metadata: dict = field(default_factory=dict)

    def to_payload(self, labels: bool = True) -> dict:
        """The report fields; `labels=False` leaves out the region labels, which only JSON reports carry."""
        return {
            "experiment": self.name,
            "i": list(self.i_list),
            "capacity": list(self.capacities),
            "region_measure": None if self.measures is None else list(self.measures),
            "regions": None if self.regions is None or not labels else self.regions.labels(),
            "limit_capacity": self.limit_capacity,
            "limit_measure": self.limit_measure,
            "limsup_estimate": self.verdict.limsup_estimate,
            "tolerance": self.verdict.tolerance,
            "verdict": self.verdict.classification,
            "metadata": self.metadata,
        }


def experiment_csv(exp: SequenceExperiment) -> str:
    """Per-index rows plus the limit/limsup/verdict footer block (the CSV has no region labels)."""
    return experiment_csv_from_payload(exp.to_payload(labels=False))


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


def _check_bridges(i_list: Sequence[int]) -> None:
    """Reject an index that `cylinder_transition_profile` rejects, from its bridge knots alone."""
    for i in i_list:
        bridge_knots(i)


def run_example1(
    i_list: Sequence[int] = (2, 4, 8),
    r: float = 1.0,
    m: int = 3,
    tol: float = DEFAULT_VERDICT_TOL,
) -> SequenceExperiment:
    """Capacity of the ball {s <= r} along the cylinder-transition family: exactly 0
    by structure, as each member's unit cylinder on [i+1, inf) has the resistance
    density 1, which is not integrable.  No member is solved; min(i)'s gives the ramp."""
    i_list = tuple(i_list)
    _check_ball(i_list, r)
    _check_bridges(i_list)
    caps = (0.0,) * len(i_list)
    limit_cap = radial_capacity(RadialCondenser(euclidean_profile(m), r))
    verdict = check_semicontinuity(caps, limit_cap, tol)
    ramp_L = 1000.0
    ramp = truncated_ramp_energy(cylinder_transition_profile(min(i_list), m=m), ramp_L)
    meta = {
        "family": "cylinder-transition",
        "r": r,
        "m": m,
        "ramp_L": ramp_L,
        "ramp_energy": ramp.energy,
        "ramp_on_cylinder": ramp.outside_cylinder,
        "provenance": "closed-form",
        "limit_provenance": "closed-form",
    }
    return SequenceExperiment("ex1", i_list, caps, limit_cap, verdict, metadata=meta)


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
    capacity is omega/(gamma C), from the C computed here; the two-ended limit
    has both ends and exactly twice the capacity.  The capped side lies inside
    K = {s <= 0} and nothing there is grounded, so the potential is exactly 1
    on it and its energy exactly 0: every capped capacity is the open side's,
    whatever i.  Each capped profile is built only to check that it exists.
    At m = 2 every neck's end diverges, a `DomainError`.
    """
    i_list = tuple(i_list)
    neck = hyperboloid_profile(m=m, a=a, b=b)
    C = end_resistance(RadialCondenser(neck, 0.0))
    if C == math.inf:
        raise DomainError("degenerate experiment: the neck profile has a divergent end")
    limit_cap = radial_capacity(RadialCondenser(neck, 0.0, ends="two_symmetric"))
    for i in i_list:
        capped_even_profile(i, m=m, a=a, b=b)
    caps = (neck.dim.omega / (neck.dim.gamma * C),) * len(i_list)  # finite, as its double `limit_cap` is

    verdict = check_semicontinuity(caps, limit_cap, tol)
    meta = {
        "family": "capped-even-neck",
        "m": m,
        "end_resistance": C,
        "pole_side_energies": (0.0,) * len(i_list),
        "ratio_to_limit": tuple(c / limit_cap for c in caps),
        "provenance": "closed-form",
        "limit_provenance": "closed-form",
    }
    return SequenceExperiment("ex2", i_list, caps, limit_cap, verdict, metadata=meta)


# ---------------------------------------------------------------------------
# ex3 and ex4: planar sheet spaces
# ---------------------------------------------------------------------------


LATTICE_OFFSET = 0.5  # planar experiments use the half-offset lattice (k + 1/2) * h
_PAD = 1e-9  # radial selections include nodes this close to their circle
# Largest full plane sheet, in nodes, that ex3 and ex4 build or fold.  At the largest admitted
# (h = 0.1 out to rim 72.2, 1,448^2 nodes) the costliest solve, ex3's strip sheet factored whole,
# peaked at 2,660 MB resident in 37 s on a 2-vCPU, 8 GB machine; h = 0.00625 at rim 4 fits.
_PLANE_NODE_BUDGET = 2**21


def _plane_sheet(h: float, rim_radius: float, prefix: str, hole: Disk | None = None) -> FiniteMetricMeasureSpace:
    """The plane out to just past the rim, less the open `hole`."""
    half = rim_radius + 2.0 * h
    return build_planar_sheet((-half, half, -half, half), h, hole=hole, label_prefix=prefix, offset=LATTICE_OFFSET)


def _radius(space: FiniteMetricMeasureSpace) -> np.ndarray:
    return np.sqrt(space.coords[:, 0] ** 2 + space.coords[:, 1] ** 2)


def _plane_cells(h: float, rim_radius: float) -> float:
    """n, where `_plane_sheet(h, rim_radius)` spans the cells -n..n-1 on each axis (inf past the float range)."""
    return float(np.floor((rim_radius + 2.0 * h) / h - LATTICE_OFFSET + 1e-9)) + 1.0


def _check_plane(h: float, rim_radius: float, clear_of: float, inside: str) -> None:
    """Reject a spacing that is not positive or too coarse to resolve the unit
    disk, a rim within 4h of the radius `clear_of` of the `inside` set, and a
    sheet of more than `_PLANE_NODE_BUDGET` nodes."""
    if not (math.isfinite(h) and math.isfinite(rim_radius)):
        raise DomainError(f"lattice spacing and rim radius must be finite, got h={h}, rim_radius={rim_radius}")
    if h <= 0:
        raise DomainError(f"lattice spacing must be positive, got h={h}")
    if h > 0.1 + 1e-12:
        raise DomainError(f"lattice spacing h={h} too coarse to resolve the unit disk (need h <= 0.1)")
    if rim_radius <= clear_of + 4.0 * h:
        raise DomainError(
            f"rim radius sits too close to the {inside}; condenser would be distorted "
            f"(need rim_radius > {clear_of:g} + 4h = {clear_of + 4.0 * h:g}, got {rim_radius})"
        )
    side = 2.0 * _plane_cells(h, rim_radius)
    nodes = side * side  # inf, not OverflowError, past the float range
    if nodes > _PLANE_NODE_BUDGET:
        raise DomainError(f"a plane sheet with h={h:g} out to rim_radius={rim_radius:g} has {nodes:.4g} nodes, "
                          f"more than the {_PLANE_NODE_BUDGET:,} this library builds")


def _check_disk_plane(h: float, rim_radius: float) -> None:
    """ex3's plane: a lattice fine enough for the unit disk, a rim clear of it."""
    _check_plane(h, rim_radius, 1.0, "disk")


def _check_annulus_plane(h: float, rim_radius: float) -> None:
    """ex4's plane: a lattice fine enough for the unit disk, a rim clear of
    the annulus 1 < r < 2."""
    _check_plane(h, rim_radius, 2.0, "annulus")


def _check_family(
    i_list: Sequence[int], alphas: Sequence[float] | None = None, alpha_rule_c: float | None = None,
    strip_conductance: float | None = None,
) -> None:
    """Reject family indices below 1, a threshold list given with a c/i rule,
    a threshold list whose length is not the number of indices, thresholds
    and strip conductances out of range."""
    if any(i < 1 for i in i_list):
        raise DomainError(f"family indices must be >= 1, got {list(i_list)}")
    if alphas is not None and alpha_rule_c is not None:
        raise DomainError("provide at most one of an alpha list or a c/i rule")
    if alphas is not None and len(alphas) != len(i_list):
        raise DomainError(f"need one threshold per family index, got {len(alphas)} for {len(i_list)}")
    if alphas is not None and not all(0 <= a < math.inf for a in alphas):
        raise DomainError("thresholds must be nonnegative and finite")
    if alpha_rule_c is not None and not 0 <= alpha_rule_c < math.inf:
        raise DomainError("alpha rule coefficient must be nonnegative and finite")
    if strip_conductance is not None and not 0 < strip_conductance < math.inf:
        raise DomainError(f"strip conductance must be finite and positive, got {strip_conductance}")


def limit_plane_condenser(h: float, rim_radius: float) -> GraphCondenser:
    """Unit disk grounded at the rim circle of a full plane sheet (solved as `_plane_quotient`)."""
    plane = _plane_sheet(h, rim_radius, "L")
    r = _radius(plane)
    return GraphCondenser(plane, r <= 1.0 + _PAD, r >= rim_radius - _PAD, Dimension(2))


def _plane_quotient(h: float, rim_radius: float) -> GraphCondenser:
    """`limit_plane_condenser` on its quotient by the lattice's 8 symmetries
    (k -> -1-k on either axis, the axis swap), built from one wedge of cells.

    Orbit (hi, lo), 0 <= lo <= hi < n for cells -n..n-1, is node
    hi (hi+1)/2 + lo at its first member (-1-hi, -1-lo); |O| = 8, or 4 on the
    diagonal.  Symmetries map one member's neighbourhood onto another's, so
    O and a later orbit O' share |O| times as many plane edges as O's folded
    cell has neighbours in O'.  Every member has the folded cell's radius in
    floats, so K and B are unions of orbits; the unique harmonic potential is
    constant on orbits and has the same energy here.
    """
    n = int(_plane_cells(h, rim_radius))
    hi = np.repeat(np.arange(n), np.arange(1, n + 1))
    lo = np.arange(hi.size) - hi * (hi + 1) // 2
    nc = hi.size
    node, size = np.arange(nc), np.where(hi == lo, 4, 8)
    pairs, weights = [], []
    for a, b in ((hi + 1, lo), (hi - 1, lo), (hi, lo + 1), (hi, lo - 1)):
        a, b = np.abs(2 * a + 1) // 2, np.abs(2 * b + 1) // 2  # fold k -> -1-k
        there = (a < n) & (b < n)
        a, b = np.maximum(a, b), np.minimum(a, b)
        other = a * (a + 1) // 2 + b
        onward = there & (other > node)  # each pair of orbits once, none inside an orbit
        pairs.append(node[onward] * nc + other[onward])
        weights.append(size[onward])
    pair, merged = np.unique(np.concatenate(pairs), return_inverse=True)
    first_x, first_y = -1 - hi, -1 - lo
    coords = np.column_stack([(first_x + LATTICE_OFFSET) * h, (first_y + LATTICE_OFFSET) * h, np.zeros(nc)])
    quotient = FiniteMetricMeasureSpace(
        _LatticeLabels(np.full(nc, "L", dtype=object), first_x, first_y), size * (h * h), coords=coords,
        edges=np.column_stack(np.divmod(pair, nc)),
        conductance=np.bincount(merged, weights=np.concatenate(weights), minlength=pair.size),
    )
    r = _radius(quotient)
    return GraphCondenser(quotient, r <= 1.0 + _PAD, r >= rim_radius - _PAD, Dimension(2))


def _plane_capacity(h: float, rim_radius: float) -> float:
    """Capacity of `limit_plane_condenser(h, rim_radius)`, solved on its quotient."""
    return graph_capacity(_plane_quotient(h, rim_radius)).capacity


def planar_condenser_study(
    h_list: Sequence[float] = (0.1, 0.05, 0.025), rim_radius: float = 4.0
) -> tuple[list[float], list[float], float]:
    """Lattice condenser values against 1/log(rim) on a refinement ladder.

    Returns (capacities, errors, observed order); the target is the
    continuum disk-in-plane condenser value at the stated rim, and the order
    is the least-squares slope of log error against log h.
    """
    for h in h_list:
        _check_disk_plane(h, rim_radius)
    target = 1.0 / math.log(rim_radius)
    caps = [_plane_capacity(h, rim_radius) for h in h_list]
    errors = [abs(c - target) for c in caps]
    return caps, errors, -fit_power_law(h_list, errors)


def _disk(h: float) -> tuple[FiniteMetricMeasureSpace, np.ndarray]:
    """The cells within 1+h of the axes, labelled "K", and the index array of
    their K = {r <= 1+pad}: `limit_plane_condenser`'s K, in its order."""
    near = build_planar_sheet((-1.0 - h, 1.0 + h, -1.0 - h, 1.0 + h), h, label_prefix="K", offset=LATTICE_OFFSET)
    return near, np.flatnonzero(_radius(near) <= 1.0 + _PAD)


def _sheet_conductance(h: float, rim_radius: float) -> float:
    """Conductance G of ex3's holed sheet from the strip's foot, its node nearest the hole, to the rim."""
    sheet = _plane_sheet(h, rim_radius, "S", Disk(0.0, 0.0, 1.0))
    r = _radius(sheet)
    return graph_capacity(GraphCondenser(sheet, np.argmin(r, keepdims=True), r >= rim_radius - _PAD)).raw_energy


def run_example3(
    h: float = 0.1, i_list: Sequence[int] = (2, 4, 8), rim_radius: float = 4.0,
    strip_conductance: float | None = None, alphas: Sequence[float] | None = None,
    alpha_rule_c: float | None = None, tol: float = DEFAULT_VERDICT_TOL,
) -> SequenceExperiment:
    """Two-sheet planar family against the flat-plane condenser limit.

    Capacities are condenser values of the disk sheet against the other
    sheet's rim (the plane has no capacity at infinity; the rim is disclosed
    in the metadata): exactly 0 with no edge between the sheets.  A strip s
    is one edge s/i from the disk, at potential 1, to the sheet node p
    nearest the hole, in series with the sheet's conductance G from p to the
    rim: capacity_i = 1/(i/s + 1/G)/gamma_2, one point-source solve for all i.
    Region measures come from thresholding the 1-Lipschitz extension of the
    limit disk's defining function at alpha_i: the entries of `alphas` in
    order, the rule alpha_i = alpha_rule_c / i, or by default alpha_i = 0,
    where the region is exactly the disk sheet.  One build of the cells
    about the unit disk gives K, the limit measure and the disk sheet: K
    itself, in every region since d(., K) = 0 there.  The holed sheet is
    built once, out to the largest threshold's reach, and lifted to each
    height 1/i; a region is K's nodes, then the sheet's, as in their union,
    kept as index arrays (`SheetRegions`) and labelled only by `to_payload`.
    """
    i_list = tuple(i_list)
    _check_disk_plane(h, rim_radius)
    _check_family(i_list, alphas, alpha_rule_c, strip_conductance)

    limit_cap = _plane_capacity(h, rim_radius)
    disk, k_idx = _disk(h)
    defining = DefiningFunction.canonical_for(disk, k_idx)
    limit_measure = region_measure(disk, k_idx)
    if alphas is None:
        alphas = [0.0 if alpha_rule_c is None else alpha_rule_c / i for i in i_list]
    alphas = [float(a) for a in alphas]

    caps = (0.0,) * len(i_list)
    if strip_conductance is not None:
        G = _sheet_conductance(h, rim_radius)
        caps = tuple(1.0 / (i / strip_conductance + 1.0 / G) / Dimension(2).gamma for i in i_list)

    # K lies in the closed unit disk, so no sheet node past 1 + alpha on either axis is within alpha of it
    reach = min(1.0 + max(alphas, default=0.0), rim_radius)
    sheet = _plane_sheet(h, reach, "S", Disk(0.0, 0.0, 1.0))
    measures, on_sheets = [], []
    k_weight, lifted = disk.weight[k_idx], sheet.coords.copy()
    for i, alpha in zip(i_list, alphas):
        lifted[:, 2] = 1.0 / i  # the sheet at its height in family space i
        on_sheet = np.flatnonzero(defining.extension_at(lifted, upto=alpha) <= alpha)
        on_sheets.append(on_sheet)
        measures.append(float(np.sum(np.concatenate([k_weight, sheet.weight[on_sheet]]))))

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
        "ex3", i_list, caps, limit_cap, verdict, measures=tuple(measures), limit_measure=limit_measure,
        regions=SheetRegions(disk, k_idx, sheet, tuple(on_sheets)), metadata=meta,
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
    caps = (_plane_capacity(h, rim_radius),) * len(i_list)
    limit_cap = 0.0  # the limit's disk K has no edge to the far sheet r >= 2 holding B: no path from K to B

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
    if np.unique(i_arr).size < 2 or not (np.all(v > 0) and np.all(i_arr > 0) and np.all(np.isfinite([*i_arr, *v]))):
        raise DomainError(
            "power-law fit needs >= 2 points at distinct finite positive indices, with finite positive values"
        )
    slope = np.polyfit(np.log(i_arr), np.log(v), 1)[0]
    return float(-slope)
