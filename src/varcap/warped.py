"""Closed-form/quadrature capacity for rotationally symmetric condensers.

For g = q^2 ds^2 + f^2 dsigma^2 the radial harmonic potential argument gives

    end resistance   C = integral over the end of q * f^(1-m) ds
    capacity         omega_{m-1} / (gamma_m * C)   per end

so a Euclidean ball of radius r has capacity r^(m-2), and any end with a
non-integrable resistance density (cylinders, slowly growing necks) forces
the capacity of every compact set to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from .errors import DomainError, InconsistencyError
from .profiles import INF, ConstantSegment, WarpProfile


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
        p = self.profile
        if not (p.s_min <= self.s0 < p.s_max):
            raise DomainError(f"inner radius {self.s0} outside profile domain [{p.s_min}, {p.s_max})")
        if p.pole_at_origin and self.s0 <= p.s_min:
            raise DomainError(f"inner radius {self.s0} must lie strictly outside the pole")
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


def end_resistance_estimate(condenser: RadialCondenser, rel_tol: float = 1e-12) -> TailQuadrature:
    """Resistance of one end, the integral of q*f^(1-m) on [s0, inf), in one call:
    +inf for a non-integrable end, `InconsistencyError` for a NaN value or an error
    estimate above `rel_tol` of the value, and `DomainError` when the value
    underflows to 0, as the capacity then passes the float range."""
    if not condenser.profile.is_unbounded:
        raise DomainError("end resistance needs a profile defined out to infinity")
    value, err = condenser.profile.resistance_between(condenser.s0, INF)
    if value == INF:
        return TailQuadrature(INF, 0.0, 0, True)
    if math.isnan(value):
        raise InconsistencyError(f"end resistance from s0={condenser.s0!r} is NaN")
    if value == 0.0:
        raise DomainError(f"end resistance from s0={condenser.s0!r} underflows to 0: capacity past the float range")
    if not err <= rel_tol * value:
        raise InconsistencyError(f"end resistance {value!r} has error estimate {err:.3e}, above rel_tol={rel_tol:g}")
    return TailQuadrature(value, err, 0, False)


def end_resistance(condenser: RadialCondenser, rel_tol: float = 1e-12) -> float:
    """Resistance C of one end; +inf when the tail is non-integrable."""
    return end_resistance_estimate(condenser, rel_tol).value


def radial_capacity(condenser: RadialCondenser, rel_tol: float = 1e-12) -> float:
    """Capacity of {s <= s0}: omega/(gamma*C) per end, doubled for the even double.

    Returns 0 when the end resistance diverges; a capacity past the float
    range raises `DomainError`.
    """
    C = end_resistance(condenser, rel_tol)
    if C == INF:
        return 0.0
    dim = condenser.profile.dim
    per_end = dim.omega / (dim.gamma * C)
    cap = 2.0 * per_end if condenser.ends == "two_symmetric" else per_end
    if cap == INF:
        raise DomainError(f"capacity of {{s <= {condenser.s0!r}}} exceeds the float range (end resistance {C!r})")
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


def volume_and_boundary(profile: WarpProfile, R: float) -> tuple[float, float]:
    """(V, A) of the region {s <= R}: V = integral of omega f^2 q, A = omega f(R)^2.

    The mass functionals downstream are three-dimensional, so this is
    restricted to m = 3.
    """
    from .errors import UnsupportedDimensionError

    if profile.m != 3:
        raise UnsupportedDimensionError(f"volume_and_boundary requires m=3, got m={profile.m}")
    if not (profile.s_min <= R <= profile.s_max):
        raise DomainError(f"R={R} outside profile domain")
    vol, _ = profile.volume_between(profile.s_min, R)
    omega = profile.dim.omega
    fr = profile.f(R)
    return omega * vol, omega * fr * fr
