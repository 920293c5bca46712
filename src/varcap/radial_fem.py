"""Piecewise-linear minimization of the reduced radial Dirichlet energy.

Independent numerical route to radial capacity: minimize

    E(u) = omega * sum_k w_k (u_{k+1} - u_k)^2 / h_k,
    w_k = element weight f^(m-1)/q at the element midpoint,

over grid functions with u = 1 at s0 and u = 0 at the truncation radius L,
then extrapolate L -> inf (and mesh -> 0) to estimate the capacity.  The
elements form a series chain of resistances h_k / w_k, so the
piecewise-linear minimizer is the closed-form voltage divider along it,
falling from 1 at s0 to 0 at L.  A radius's levels share one bisected grid.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from . import reports
from .errors import DomainError, InconsistencyError, PreconditionError, SingularWeightError
from .warped import RadialCondenser

# The most elements one schedule's finest grids may hold together, counted
# before any grid is built: 14 levels on the default radii of a unit ball
# (4.1 million elements; one `capacity-radial` call of 0.32 s and 144 MB peak
# RSS on a 2-vCPU host) fit, while 30 levels would need 2.7e11 elements.
_ELEMENT_BUDGET = 2**22


def _check_grading(h0: float, ratio: float) -> None:
    if not (1.0 < ratio <= 1.5):
        raise DomainError(f"geometric ratio must be in (1, 1.5], got {ratio}")
    if not 0.0 < h0 < math.inf:  # NaN too
        raise DomainError(f"need a finite h0 > 0, got h0={h0}")


def _geometric_elements(span: float, h0: float, ratio: float) -> float:
    """Elements of `RadialGrid.geometric` over `span`, to within one (inf past
    the float range): sizes h0 ratio^k sum past the span after
    log(1 + span (ratio - 1) / h0) / log(ratio) of them."""
    return max(2.0, math.log1p(span * (ratio - 1.0) / h0) / math.log1p(ratio - 1.0))


def _bisected(nodes: np.ndarray, times: int) -> np.ndarray:
    """`nodes` with each element halved `times` times, every new node 0.5 (t_k + t_k+1)."""
    for _ in range(times):
        out = np.empty(2 * nodes.size - 1)
        out[0::2] = nodes
        np.multiply(np.add(nodes[:-1], nodes[1:], out=out[1::2]), 0.5, out=out[1::2])
        nodes = out
    return nodes


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing nodes t_0 < ... < t_N and the element sizes t_k+1 - t_k."""

    nodes: np.ndarray
    sizes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 3:
            raise DomainError("grid needs at least 3 nodes (N >= 2 elements)")
        object.__setattr__(self, "sizes", np.diff(nodes))
        if np.any(self.sizes <= 0):
            raise DomainError("grid nodes must be strictly increasing")

    @staticmethod
    def geometric(s0: float, L: float, h0: float, ratio: float = 1.05) -> "RadialGrid":
        """Element sizes h0 * ratio^k, up to the first whose running sum reaches
        L - s0, rescaled so the last node lands on L (two halves when h0 alone
        reaches it)."""
        _check_grading(h0, ratio)
        if L <= s0:
            raise DomainError(f"need L > s0, got L={L}, s0={s0}")
        span = L - s0
        count = _geometric_elements(span, h0, ratio)
        if count > _ELEMENT_BUDGET:
            raise DomainError(f"a geometric grid with h0={h0:g} and ratio={ratio!r} over [{s0:g}, {L:g}] "
                              f"has more than {_ELEMENT_BUDGET:,} elements")
        # count is within one of the sizes needed, so int(count) + 2 of them reach the span;
        # accumulate and cumsum multiply and add left to right, one rounding a step
        steps = np.full(int(count) + 2, ratio)
        steps[0] = h0
        sizes = np.multiply.accumulate(steps)
        totals = np.cumsum(sizes)
        n = int(np.searchsorted(totals, span)) + 1
        h = np.full(2, span / 2.0) if n < 2 else sizes[:n] * (span / totals[n - 1])
        nodes = s0 + np.concatenate(([0.0], np.cumsum(h)))
        nodes[-1] = L
        return RadialGrid(nodes)

    def refined(self) -> "RadialGrid":
        """Insert every element midpoint (nested refinement)."""
        return RadialGrid(_bisected(self.nodes, 1))

    @property
    def s0(self) -> float:
        return float(self.nodes[0])

    @property
    def L(self) -> float:
        return float(self.nodes[-1])

    @property
    def h_max(self) -> float:
        return float(np.max(self.sizes))

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


def _minimize_chain(cond: np.ndarray) -> np.ndarray:
    """Minimize sum_j cond_j (u_{j+1}-u_j)^2 with u_0 = 1 and u_N = 0: on the series network of
    resistances 1/cond_j, the potential drops from 1 in proportion to the resistance crossed."""
    u = np.empty(cond.size + 1)
    u[0] = 1.0
    crossed = np.cumsum(np.divide(1.0, cond, out=u[1:]), out=u[1:])  # in place: one array, not five
    crossed /= crossed[-1]
    np.subtract(1.0, crossed, out=crossed)
    return u


def _check_level(grid: RadialGrid, f_int: np.ndarray, w: np.ndarray) -> None:
    """Refuse a vanishing warp factor `f_int` or an infinite, nonpositive or NaN element weight `w`."""
    if (f_int <= 0.0).any():
        bad = float(grid.nodes[1:-1][np.argmin(f_int)])
        raise SingularWeightError(f"warp factor vanishes at interior node s={bad}")
    if (w == np.inf).any():
        bad = float(0.5 * (grid.nodes[:-1] + grid.nodes[1:])[np.argmax(w)])
        raise DomainError(f"element weight exceeds the float range at the element midpoint s={bad!r}")
    if not (w > 0.0).all():  # nonpositive or NaN
        raise SingularWeightError("nonpositive element weight at an element midpoint")


def _nested_solutions(condenser: RadialCondenser, grid: RadialGrid, levels: int) -> Iterator[FemSolution]:
    """Exact minimizers of the discrete energy with u(s0)=1, u(L)=0 on `grid`
    and its `levels - 1` nested refinements, each checked and solved in its
    turn; a two-sided symmetric condenser's energy is doubled (the even
    reflection solves the second end).  Every level's nodes and midpoints are
    nodes of `grid` bisected `levels` times, where f (at the finest interior
    nodes) and the element weight (at every interior node) are evaluated once:
    with t = 2^(levels - 1 - l), level l takes every t-th finest node, every
    t-th f value and every 2t-th weight, both from the (t-1)-th."""
    profile, dim = condenser.profile, condenser.profile.dim
    if abs(grid.s0 - condenser.s0) > 1e-12 * max(1.0, abs(condenser.s0)):
        raise DomainError(f"grid must start at s0={condenser.s0}, starts at {grid.s0}")
    if not (profile.s_min - 1e-12 <= grid.s0 and grid.L <= profile.s_max):
        raise DomainError("grid exceeds the profile domain")
    nodes = _bisected(grid.nodes, levels - 1)  # the finest level's
    with np.errstate(over="ignore"):  # an overflow shows as an infinite f or weight, refused below
        w = profile.element_weight(_bisected(nodes, 1)[1:-1])
        f = profile.f(nodes[1:-1])
    if (f > 0.0).all() and (w > 0.0).all() and (w < np.inf).all():
        f = None  # no level can fail its checks: skip them, and free f
    for level in range(levels):
        t = 1 << (levels - 1 - level)
        w_k = w[t - 1::2 * t]
        if level:
            grid = RadialGrid(nodes[::t])
        if f is not None:
            _check_level(grid, f[t - 1::t], w_k)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # refused below when not finite
            cond = w_k / grid.sizes
            u = _minimize_chain(cond)
            energy = dim.omega * float(np.sum(cond * (u[1:] - u[:-1]) ** 2))
        energy *= 2.0 if condenser.ends == "two_symmetric" else 1.0
        cap_L = energy / dim.gamma
        if not (np.isfinite(u).all() and np.isfinite(cap_L)):
            raise DomainError(f"chain resistance or energy over [{grid.s0}, {grid.L}] exceeds the float range")
        yield FemSolution(grid, u, energy, cap_L)


def solve_radial(condenser: RadialCondenser, grid: RadialGrid) -> FemSolution:
    """Exact minimizer of the discrete energy with u(s0)=1, u(L)=0 on `grid`: the one-level `_nested_solutions`."""
    return next(_nested_solutions(condenser, grid, 1))


def _check_schedule(
    s0: float, L_values: Sequence[float] | None = None, levels: int = 2, h0: float | None = None,
    ratio: float = 1.05,
) -> tuple[list, float]:
    """The sorted truncation radii and first element size of a `capacity_estimate`
    schedule, defaults filled in ({1e2, 1e3, 1e4} * max(|s0|, 1) and
    max(|s0|, 1) / 64), once every rule holds: at least 3 radii, all distinct
    and past s0, a whole number of at least 2 levels, a grading `RadialGrid.geometric` takes,
    finest grids (each radius graded from h0 and bisected `levels - 1` times)
    holding at most `_ELEMENT_BUDGET` elements together, and no finest element
    under 4 float spacings wide, so rounding keeps their nodes increasing."""
    scale = max(abs(s0), 1.0)
    L_sorted = sorted([100.0 * scale, 1000.0 * scale, 10000.0 * scale] if L_values is None else L_values)
    h0 = scale / 64.0 if h0 is None else h0
    if len(L_sorted) < 3 or len(set(L_sorted)) < len(L_sorted):
        raise PreconditionError(f"need at least 3 truncation radii, all distinct, got {L_sorted}")
    for L in L_sorted:
        if not L > s0:  # NaN too
            raise DomainError(f"truncation radius {L} must exceed the inner radius {s0}")
    if not (isinstance(levels, numbers.Integral) and levels >= 2):
        raise PreconditionError(f"need a whole number of at least 2 refinement levels, got {levels!r}")
    _check_grading(h0, ratio)
    base = sum(_geometric_elements(L - s0, h0, ratio) for L in L_sorted)
    finest = base * 2.0 ** min(levels - 1, 1023)  # 2^1023 is the largest power of two a float holds
    if finest > _ELEMENT_BUDGET:
        raise DomainError(f"the schedule's finest grids hold {finest:.3g} elements together, "
                          f"more than {_ELEMENT_BUDGET:,}")
    for L in L_sorted:
        # The first graded element a is the least (h0, or half a span h0 overreaches, shrunk onto L by
        # under 1 + ratio).  Element a ratio^k ends within |s0| + a ratio^(k+1) / (ratio - 1) of 0, so
        # none is narrower than the first against eps |end| (>= the float spacing there, <= ulp(2 |end|)).
        first = min(h0, (L - s0) / 2.0) / (1.0 + ratio)
        far = min(max(abs(s0), abs(L)), abs(s0) + first * ratio / (ratio - 1.0))
        if math.ldexp(first, 1 - levels) < 4.0 * math.ulp(2.0 * far):
            raise DomainError(f"the finest grid from the inner radius {s0!r} to the truncation radius {L!r} "
                              f"(h0={h0:g}, {levels} levels) would have elements under 4 float spacings")
    return L_sorted, h0


def _check_monotone(L_sorted: list, cap_L: list, mesh_err: list, cap_scale: float) -> None:
    """Refuse extrapolated cap_L values that increase along the ladder by more
    than their mesh errors: domain monotonicity fails only on a bad grid."""
    for k, (La, Lb) in enumerate(zip(L_sorted, L_sorted[1:])):
        slack = mesh_err[k] + mesh_err[k + 1] + 1e-10 * cap_scale
        if cap_L[k + 1] > cap_L[k] + slack:
            raise InconsistencyError(f"cap_L increased from L={La} ({cap_L[k]!r}) to L={Lb} "
                                     f"({cap_L[k + 1]!r}); refine the grids")


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
    (default {1e2, 1e3, 1e4} * max(|s0|, 1)), whose schedule `_check_schedule`
    fills in and checks whole before any grid is built.

    Per L: a geometric grid (first element h0, default max(|s0|, 1) / 64)
    solved at `levels` nested refinements, extrapolated to second order, the
    profile evaluated once per L (`_nested_solutions`).
    Across L: the cap_L values must be monotone nonincreasing (domain
    monotonicity, `_check_monotone`); a cap + c/L fit on consecutive pairs
    supplies the L -> inf limit.  The error bound combines mesh extrapolation
    gaps and the spread of the last two extrapolants.
    """
    s0 = condenser.s0
    L_sorted, h0 = _check_schedule(s0, L_values, levels, h0, ratio)

    rows, cap_L, mesh_err = [], [], []
    for L in L_sorted:
        solutions = _nested_solutions(condenser, RadialGrid.geometric(s0, L, h0, ratio), levels)
        # map lets each solution go before the next level is solved
        rows += map(lambda sol: (L, sol.grid.h_max, sol.cap_L, sol.energy), solutions)
        coarse, fine = rows[-2][2], rows[-1][2]
        # nested bisection: O(h^2) leading error, factor-4 reduction
        extr = fine + (fine - coarse) / 3.0
        cap_L.append(extr)
        mesh_err.append(abs(fine - coarse) / 3.0 + 1e-15 * abs(extr))

    cap_scale = max(abs(cap_L[0]), 1e-30)
    _check_monotone(L_sorted, cap_L, mesh_err, cap_scale)
    extrapolants = [(Lb * cb - La * ca) / (Lb - La)
                    for La, Lb, ca, cb in zip(L_sorted[-3:], L_sorted[-2:], cap_L[-3:], cap_L[-2:])]
    cap = max(extrapolants[-1], 0.0)
    err = abs(extrapolants[-1] - extrapolants[0])
    err += sum(mesh_err[-2:]) + 1e-14 * cap_scale
    return CapacityEstimate(cap, err, tuple(rows))


def fem_csv(rows: Sequence[tuple[float, float, float, float]]) -> str:
    """Convergence table as CSV with columns L,h,cap,energy."""
    return reports.csv_table(["L", "h", "cap", "energy"], rows)
