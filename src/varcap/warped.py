"""Closed-form/quadrature capacity for rotationally symmetric condensers.

For g = q^2 ds^2 + f^2 dsigma^2 the radial harmonic potential argument gives

    end resistance   C = integral over the end of q * f^(1-m) ds
    capacity         omega_{m-1} / (gamma_m * C)   per end

so a Euclidean ball of radius r has capacity r^(m-2), and any end with a
non-integrable resistance density (cylinders, slowly growing necks) forces
the capacity of every compact set to zero.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import DegenerateProblemError, DomainError, InconsistencyError, UnsupportedDimensionError
from .profiles import INF, ConstantSegment, WarpProfile


def _check_inner_radii(profile: WarpProfile, s0s: Sequence[float]) -> None:
    """`RadialCondenser`'s rule on each inner radius in turn: inside the
    profile domain, and strictly outside a pole."""
    for s0 in s0s:
        if not (profile.s_min <= s0 < profile.s_max):
            raise DomainError(f"inner radius {s0} outside profile domain [{profile.s_min}, {profile.s_max})")
        if profile.pole_at_origin and s0 <= profile.s_min:
            raise DomainError(f"inner radius {s0} must lie strictly outside the pole")


@dataclass(frozen=True)
class RadialCondenser:
    """Inner set {s <= s0} inside a warp profile.

    ends="one" treats the profile itself as the full manifold; "two_symmetric"
    treats it as one half of an even double (the inner set is {|s| <= s0}).
    """

    profile: WarpProfile
    s0: float
    ends: Literal["one", "two_symmetric"] = "one"

    def __post_init__(self):
        _check_inner_radii(self.profile, [self.s0])
        if self.ends not in ("one", "two_symmetric"):
            raise DomainError(f"unknown ends mode {self.ends!r}")


@dataclass(frozen=True)
class TailQuadrature:
    """End resistance and its quadrature error estimate (0 for a closed form);
    `windows_used` is always 0 and stays because `perfbench/run.py`'s trace hook reads it."""

    value: float
    error_estimate: float
    windows_used: int
    diverged: bool


def _end_resistances(
    profile: WarpProfile, s0s: Sequence[float], rel_tol: float, ends: str | None = None
) -> list[tuple[float, float, float | None]]:
    """(C, error estimate, capacity) from each inner radius of `s0s` in turn: C is
    the resistance of one end, the integral of q*f^(1-m) on [s0, inf), and given
    `ends` the capacity is omega/(gamma*C) of {s <= s0} (doubled for
    "two_symmetric"), else None; a non-integrable end has C = +inf, error 0 and
    capacity 0.  Each radius is checked before the next is integrated, so the
    first faulty radius raises: `InconsistencyError` for a NaN C or an error
    estimate above `rel_tol` of it, `DomainError` for a C that underflows to 0
    or a capacity past the float range."""
    if not profile.is_unbounded:
        raise DomainError("end resistance needs a profile defined out to infinity")
    omega, gamma = profile.dim.omega, profile.dim.gamma  # each read recomputes the sphere area
    per_end = 2.0 if ends == "two_symmetric" else 1.0
    rows = []
    for s0 in s0s:
        C, err = map(float, profile.resistance_between(s0, INF))  # floats: messages print them plainly
        if math.isnan(C):
            raise InconsistencyError(f"end resistance from s0={s0!r} is NaN")
        if C == 0.0:
            raise DomainError(f"end resistance from s0={s0!r} underflows to 0: capacity past the float range")
        if not err <= rel_tol * C and C != INF:
            raise InconsistencyError(f"end resistance {C!r} has error estimate {err:.3e}, above rel_tol={rel_tol:g}")
        cap = None
        if ends is not None:
            # gamma * C underflows to 0 only for a capacity past the float range
            cap = omega / (gamma * C) * per_end if gamma * C else INF
            if cap == INF:
                raise DomainError(f"capacity of {{s <= {s0!r}}} exceeds the float range (end resistance {C!r})")
        rows.append((C, err, cap))
    return rows


def end_resistance_estimate(condenser: RadialCondenser, rel_tol: float = 1e-12) -> TailQuadrature:
    """Resistance of one end and its error estimate, in one call: the one-radius
    case of `_end_resistances`."""
    [(C, err, _)] = _end_resistances(condenser.profile, [condenser.s0], rel_tol)
    return TailQuadrature(C, err, 0, C == INF)


def end_resistance(condenser: RadialCondenser, rel_tol: float = 1e-12) -> float:
    """Resistance C of one end; +inf when the tail is non-integrable."""
    return end_resistance_estimate(condenser, rel_tol).value


def radial_capacities(profile: WarpProfile, s0s: Sequence[float], rel_tol: float = 1e-12) -> np.ndarray:
    """Capacity of {s <= s0} at each inner radius of `s0s`, in one pass: omega/(gamma*C)
    of the profile's one end, 0 where the end resistance diverges.

    Every radius first passes `RadialCondenser`'s rule; then the first faulty
    radius raises as `_end_resistances` says, a capacity past the float range
    with `DomainError`.
    """
    _check_inner_radii(profile, s0s)
    return np.array([cap for _, _, cap in _end_resistances(profile, s0s, rel_tol, "one")])


def radial_capacity(condenser: RadialCondenser, rel_tol: float = 1e-12) -> float:
    """Capacity of {s <= s0}, doubled for the even double: `radial_capacities`
    for one radius, with the condenser's `ends` (`RadialCondenser` has checked s0)."""
    [(_, _, cap)] = _end_resistances(condenser.profile, [condenser.s0], rel_tol, condenser.ends)
    return cap


@dataclass(frozen=True)
class RampEnergy:
    energy: float
    outside_cylinder: bool  # True when [L, 2L] lies in the final constant segment


def truncated_ramp_energy(profile: WarpProfile, L: float) -> RampEnergy:
    """Dirichlet energy of the radial ramp that is 1 up to L and 0 past 2L.

    The ramp has slope -1/L on [L, 2L], so the energy is
    (omega/L^2) * integral_L^2L q f^(m-1) ds.  On a unit-radius cylindrical
    range this is exactly omega/L.
    """
    if L <= 0:
        raise DomainError(f"ramp parameter must be positive, got L={L}")
    if 2.0 * L > profile.s_max:
        raise DomainError(f"ramp support [L, 2L]=[{L}, {2*L}] exceeds the profile domain")
    vol, _ = profile.volume_between(L, 2.0 * L)
    energy = profile.dim.omega * vol / (L * L)
    seg = profile.segments[-1]
    on_cyl = isinstance(seg, ConstantSegment) and L >= seg.lo - 1e-12
    return RampEnergy(energy, on_cyl)


def volumes_and_boundaries(profile: WarpProfile, radii: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """(V, A) of each region {s <= R}, R in `radii`: V = integral of omega f^2 q,
    A = omega f(R)^2, f evaluated in one call at every radius before the first
    outside the profile domain.

    The mass functionals downstream are three-dimensional, so this is
    restricted to m = 3.  The radii are then taken in turn, and the first
    faulty one raises: `DomainError` for one outside the profile domain or a
    volume past the float range, `DegenerateProblemError` for a boundary area
    that is not positive.
    """
    if profile.m != 3:
        raise UnsupportedDimensionError(f"volume_and_boundary requires m=3, got m={profile.m}")
    inside = list(itertools.takewhile(lambda R: profile.s_min <= R <= profile.s_max, radii))
    with np.errstate(over="ignore"):  # as in floats, an f past the float range is inf, refused downstream
        f = profile.f(np.array(inside, dtype=float)).tolist()
    omega, V, A = profile.dim.omega, [], []
    for k, R in enumerate(radii):
        if k == len(inside):  # the first radius outside the domain
            raise DomainError(f"R={R} outside profile domain")
        V.append(omega * profile.volume_between(profile.s_min, R)[0])
        A.append(omega * f[k] * f[k])
        if A[-1] <= 0.0:
            raise DegenerateProblemError(f"boundary area vanishes at R={R}")
    return np.array(V), np.array(A)


def volume_and_boundary(profile: WarpProfile, R: float) -> tuple[float, float]:
    """(V, A) of the region {s <= R}: the one-radius case of `volumes_and_boundaries`."""
    V, A = volumes_and_boundaries(profile, [R])
    return float(V[0]), float(A[0])
