"""Piecewise-linear minimization of the reduced radial Dirichlet energy.

Independent numerical route to radial capacity: minimize

    E(u) = omega * sum_k w_k (u_{k+1} - u_k)^2 / h_k,
    w_k = element weight f^(m-1)/q at the element midpoint,

over grid functions with u = 1 at s0 and u = 0 at the truncation radius L,
then extrapolate L -> inf (and mesh -> 0) to estimate the capacity.  The
elements form a series chain of resistances h_k / w_k, so the
piecewise-linear minimizer is the closed-form voltage divider along it,
falling from 1 at s0 to 0 at L.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import reports
from .errors import DomainError, InconsistencyError, PreconditionError, SingularWeightError
from .warped import RadialCondenser


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing nodes t_0 < ... < t_N; uniform or geometrically graded."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 3:
            raise DomainError("grid needs at least 3 nodes (N >= 2 elements)")
        if np.any(np.diff(nodes) <= 0):
            raise DomainError("grid nodes must be strictly increasing")

    @staticmethod
    def uniform(s0: float, L: float, n_elements: int) -> "RadialGrid":
        if n_elements < 2:
            raise DomainError("need at least 2 elements")
        return RadialGrid(np.linspace(s0, L, n_elements + 1))

    @staticmethod
    def geometric(s0: float, L: float, h0: float, ratio: float = 1.05) -> "RadialGrid":
        """Element sizes h0 * ratio^k, rescaled so the last node lands on L."""
        if not (1.0 < ratio <= 1.5):
            raise DomainError(f"geometric ratio must be in (1, 1.5], got {ratio}")
        if h0 <= 0 or L <= s0:
            raise DomainError("need h0 > 0 and L > s0")
        span = L - s0
        sizes, total = [h0], h0  # total adds left to right, as sum(sizes) does
        while total < span:
            sizes.append(sizes[-1] * ratio)
            total += sizes[-1]
        if len(sizes) < 2:
            sizes, total = [span / 2.0, span / 2.0], span
        h = np.array(sizes) * (span / total)
        nodes = s0 + np.concatenate(([0.0], np.cumsum(h)))
        nodes[-1] = L
        return RadialGrid(nodes)

    def refined(self) -> "RadialGrid":
        """Insert every element midpoint (nested refinement)."""
        mids = 0.5 * (self.nodes[:-1] + self.nodes[1:])
        out = np.empty(self.nodes.size + mids.size)
        out[0::2] = self.nodes
        out[1::2] = mids
        return RadialGrid(out)

    @property
    def s0(self) -> float:
        return float(self.nodes[0])

    @property
    def L(self) -> float:
        return float(self.nodes[-1])

    @property
    def h_max(self) -> float:
        return float(np.max(np.diff(self.nodes)))

    @property
    def n_elements(self) -> int:
        return self.nodes.size - 1


@dataclass(frozen=True)
class FemSolution:
    """Discrete minimizer with its energy; cap_L = energy / gamma_m."""

    grid: RadialGrid
    u: np.ndarray
    energy: float
    cap_L: float


def _element_conductances(condenser: RadialCondenser, grid: RadialGrid) -> np.ndarray:
    """Per-element conductance w_k / h_k with midpoint-rule weights."""
    profile = condenser.profile
    nodes = grid.nodes
    if nodes[0] < profile.s_min - 1e-12 or nodes[-1] > profile.s_max:
        raise DomainError("grid exceeds the profile domain")
    interior = nodes[1:-1]
    f_int = np.atleast_1d(profile.f(interior))
    if np.any(f_int <= 0.0):
        bad = float(interior[np.argmin(f_int)])
        raise SingularWeightError(f"warp factor vanishes at interior node s={bad}")
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    with np.errstate(over="ignore"):  # an overflow shows as an infinite weight or conductance, refused below
        w = np.atleast_1d(profile.element_weight(mids))
        cond = w / np.diff(nodes)
    if np.any(w == np.inf):
        bad = float(mids[np.argmax(w)])
        raise DomainError(f"element weight exceeds the float range at the element midpoint s={bad!r}")
    if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
        raise SingularWeightError("nonpositive element weight at an element midpoint")
    return cond


def _minimize_chain(cond: np.ndarray) -> np.ndarray:
    """Minimize sum_j cond_j (u_{j+1}-u_j)^2 with u_0 = 1 and u_N = 0.

    The chain is a series network of resistances 1/cond_j, so the potential
    drops from 1 in proportion to the resistance crossed.
    """
    crossed = np.cumsum(1.0 / cond)
    return np.concatenate([[1.0], 1.0 - crossed / crossed[-1]])


def solve_radial(condenser: RadialCondenser, grid: RadialGrid) -> FemSolution:
    """Exact minimizer of the discrete energy with u(s0)=1, u(L)=0.

    For a two-sided symmetric condenser the energy is doubled (the even
    reflection solves the second end).  A chain resistance, potential or
    capacity past the float range raises `DomainError`.
    """
    if abs(grid.s0 - condenser.s0) > 1e-12 * max(1.0, abs(condenser.s0)):
        raise DomainError(f"grid must start at s0={condenser.s0}, starts at {grid.s0}")
    cond = _element_conductances(condenser, grid)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # refused below when not finite
        u = _minimize_chain(cond)
        energy = condenser.profile.dim.omega * float(np.sum(cond * np.diff(u) ** 2))
    if condenser.ends == "two_symmetric":
        energy *= 2.0
    cap_L = energy / condenser.profile.dim.gamma
    if not (np.all(np.isfinite(u)) and np.isfinite(cap_L)):
        raise DomainError(f"chain resistance or energy over [{grid.s0}, {grid.L}] exceeds the float range")
    return FemSolution(grid, u, energy, cap_L)


@dataclass(frozen=True)
class CapacityEstimate:
    """Extrapolated capacity with a conservative error bound and the raw table."""

    cap: float
    error_estimate: float
    rows: tuple  # (L, h, cap, energy) per solve, finest level per L last


def capacity_estimate(
    condenser: RadialCondenser,
    L_values: Sequence[float] | None = None,
    levels: int = 2,
    h0: float | None = None,
    ratio: float = 1.05,
) -> CapacityEstimate:
    """Richardson-extrapolated capacity on a ladder of truncation radii
    (default {1e2, 1e3, 1e4} * max(s0, 1)), checked before any solve.

    Per L: a geometric grid (first element h0, default max(s0, 1) / 64) and
    `levels` nested refinements, extrapolated to second order.  Across L: the
    cap_L values must be monotone nonincreasing (domain monotonicity); a
    cap + c/L fit on consecutive pairs supplies the L -> inf limit.  The error
    bound combines mesh extrapolation gaps and the spread of the last two
    extrapolants.
    """
    s0 = condenser.s0
    scale = max(abs(s0), 1.0)
    if L_values is None:
        L_values = [100.0 * scale, 1000.0 * scale, 10000.0 * scale]
    L_sorted = sorted(L_values)
    if len(L_sorted) < 3 or len(set(L_sorted)) < len(L_sorted):
        raise PreconditionError(f"need at least 3 truncation radii, all distinct, got {L_sorted}")
    if L_sorted[0] <= s0:
        raise DomainError(f"truncation radius {L_sorted[0]} must exceed s0={s0}")
    if levels < 2:
        raise PreconditionError("need at least 2 refinement levels")
    if h0 is None:
        h0 = scale / 64.0

    rows, cap_L, mesh_err = [], [], []
    for L in L_sorted:
        grid = RadialGrid.geometric(s0, L, h0, ratio)
        caps = []
        for _ in range(levels):
            sol = solve_radial(condenser, grid)
            rows.append((L, grid.h_max, sol.cap_L, sol.energy))
            caps.append(sol.cap_L)
            grid = grid.refined()
        # nested bisection: O(h^2) leading error, factor-4 reduction
        extr = caps[-1] + (caps[-1] - caps[-2]) / 3.0
        cap_L.append(extr)
        mesh_err.append(abs(caps[-1] - caps[-2]) / 3.0 + 1e-15 * abs(extr))

    cap_scale = max(abs(cap_L[0]), 1e-30)
    for k, (La, Lb) in enumerate(zip(L_sorted, L_sorted[1:])):
        slack = mesh_err[k] + mesh_err[k + 1] + 1e-10 * cap_scale
        if cap_L[k + 1] > cap_L[k] + slack:
            raise InconsistencyError(
                f"cap_L increased from L={La} ({cap_L[k]!r}) to L={Lb} ({cap_L[k + 1]!r}); "
                "refine the grids"
            )

    extrapolants = [
        (Lb * cb - La * ca) / (Lb - La)
        for La, Lb, ca, cb in zip(L_sorted[-3:], L_sorted[-2:], cap_L[-3:], cap_L[-2:])
    ]
    cap = max(extrapolants[-1], 0.0)
    err = abs(extrapolants[-1] - extrapolants[0])
    err += sum(mesh_err[-2:]) + 1e-14 * cap_scale
    return CapacityEstimate(cap, err, tuple(rows))


def fem_csv(rows: Sequence[tuple[float, float, float, float]]) -> str:
    """Convergence table as CSV with columns L,h,cap,energy."""
    return reports.csv_table(["L", "h", "cap", "energy"], rows)
