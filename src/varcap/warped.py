"""Closed-form/quadrature capacity for rotationally symmetric condensers.

For g = q^2 ds^2 + f^2 dsigma^2 the radial harmonic potential argument gives

    end resistance   C = integral over the end of q * f^(1-m) ds
    capacity         omega_{m-1} / (gamma_m * C)   per end

so a Euclidean ball of radius r has capacity r^(m-2), and any end with a
non-integrable resistance density (cylinders, slowly growing necks) forces
the capacity of every compact set to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .errors import DomainError, InconsistencyError
from .profiles import INF, ConstantSegment, WarpProfile

# Divergence detector for the unbounded tail: integrate on doubling windows
# and declare a divergent end once this many consecutive window integrals
# fail to decay geometrically (ratio >= _DIVERGENCE_RATIO).  Misclassifies
# tails with decay exponent in (1, ~1.0145] as divergent; the profiles this
# library ships decay with window ratio <= 1/2 or not at all.
_DIVERGENCE_WINDOWS = 12
_DIVERGENCE_RATIO = 0.99
_MAX_WINDOWS = 400


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
            raise DomainError(f"s0={self.s0} outside profile domain [{p.s_min}, {p.s_max})")
        if p.pole_at_origin and self.s0 <= p.s_min:
            raise DomainError("s0 must lie strictly outside the pole")
        if self.ends not in ("one", "two_symmetric"):
            raise DomainError(f"unknown ends mode {self.ends!r}")


@dataclass(frozen=True)
class TailQuadrature:
    """Windowed tail integral with a conservative error estimate."""

    value: float
    error_estimate: float
    windows_used: int
    diverged: bool


def end_resistance_estimate(condenser: RadialCondenser, rel_tol: float = 1e-12) -> TailQuadrature:
    """Resistance of one end, integral of q*f^(1-m) on [s0, s_max).

    Finite segments integrate exactly or by adaptive quadrature; the final
    unbounded segment is integrated on doubling windows with geometric tail
    extrapolation.  Divergence is declared by the window-ratio detector.
    """
    profile = condenser.profile
    if not profile.is_unbounded:
        raise DomainError("end resistance needs a profile defined out to infinity")
    tail_seg = profile.segments[-1]
    t0 = max(condenser.s0, tail_seg.lo)

    head, head_err = profile.resistance_between(condenser.s0, t0)
    if head == INF:
        return TailQuadrature(INF, 0.0, 0, True)

    total, err = head, head_err
    m = profile.m

    # bootstrap window, then strict doubling
    edges = [t0, max(2.0 * t0, t0 + 1.0)]
    prev = None
    bad_streak = 0
    windows = 0
    tail_est = INF
    while windows < _MAX_WINDOWS:
        a, b = edges[-2], edges[-1]
        val, e = tail_seg.resistance_integral(a, b, m)
        if val == INF:
            return TailQuadrature(INF, 0.0, windows, True)
        total += val
        err += e
        windows += 1
        if prev is not None and prev > 0.0:
            ratio = val / prev
            if ratio >= _DIVERGENCE_RATIO:
                bad_streak += 1
                if bad_streak >= _DIVERGENCE_WINDOWS:
                    return TailQuadrature(INF, 0.0, windows, True)
            else:
                bad_streak = 0
                tail_est = val * ratio / (1.0 - ratio)
                if tail_est < 0.5 * rel_tol * (total + tail_est):
                    total += tail_est
                    err += tail_est
                    return TailQuadrature(total, err + 1e-15 * abs(total), windows, False)
        prev = val
        edges.append(2.0 * edges[-1])
    raise InconsistencyError(
        f"tail integration did not settle after {_MAX_WINDOWS} windows "
        f"(last tail estimate {tail_est:.3e})"
    )


def end_resistance(condenser: RadialCondenser, rel_tol: float = 1e-12) -> float:
    """Resistance C of one end; +inf when the tail is non-integrable."""
    return end_resistance_estimate(condenser, rel_tol).value


def radial_capacity(condenser: RadialCondenser, rel_tol: float = 1e-12) -> float:
    """Capacity of {s <= s0}: omega/(gamma*C) per end, doubled for the even double.

    Returns 0 when the end resistance diverges.
    """
    C = end_resistance(condenser, rel_tol)
    if C == INF:
        return 0.0
    dim = condenser.profile.dim
    per_end = dim.omega / (dim.gamma * C)
    return 2.0 * per_end if condenser.ends == "two_symmetric" else per_end


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
