"""Quasi-local mass functionals on asymptotically flat radial 3-profiles.

Along the centered exhaustion {s <= R} with volume V(R), boundary area A(R)
and capacity cap(R):

    isoperimetric mass   m_iso(R) = (2/A) * [ V - A^(3/2) / (6 sqrt(pi)) ]
    capacity-volume mass m_CV(R)  = (1/(4 pi cap^2)) * [ V - (4 pi/3) cap^3 ]

Both vanish identically on flat space and converge to the total mass on the
Schwarzschild exterior.  A second, literal "volume radius minus capacity"
display

    m_CV_alt(R) = (V / 4 pi)^(1/3) - cap

is computed independently and reported separately: its volume-radius
normalization differs from the primary display by a factor 3^(1/3), so it
does NOT vanish on flat space.  The two are never merged.

The supremum over exhaustions is restricted to centered balls, so the
extrapolated numbers are lower bounds for the exhaustion-sup functionals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import reports
from .errors import DegenerateProblemError, DomainError, NoLimitError, PreconditionError, UnsupportedDimensionError
from .profiles import WarpProfile
from .warped import _check_inner_radii, radial_capacities, volumes_and_boundaries

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class AFProfile:
    """A radial 3-profile with a recorded asymptotic-flatness witness.

    The tail test samples f(s)/s and the arclength derivative of f on
    [s_af, 10 s_af], records the worst deviations from 1 and accepts them
    up to 0.1.
    """

    profile: WarpProfile
    s_af: float
    ratio_eps: float
    deriv_eps: float

    @staticmethod
    def check(profile: WarpProfile, s_af: float | None = None) -> "AFProfile":
        if profile.m != 3:
            raise UnsupportedDimensionError(f"mass functionals need m=3, got m={profile.m}")
        if not profile.is_unbounded:
            raise DomainError("asymptotic flatness needs an unbounded profile")
        if s_af is None:
            s_af = max(10.0 * abs(profile.s_min), 10.0)
        samples = np.geomspace(s_af, 10.0 * s_af, 17)
        ratio = np.atleast_1d(profile.f(samples)) / samples
        deriv = np.atleast_1d(profile.arclength_derivative(samples))
        ratio_eps = float(np.max(np.abs(ratio - 1.0)))
        deriv_eps = float(np.max(np.abs(deriv - 1.0)))
        if ratio_eps > 0.1 or deriv_eps > 0.1:
            raise DomainError(
                f"profile fails the flat-tail test at s_af={s_af}: "
                f"|f/s - 1| <= {ratio_eps:.3e}, |f' - 1| <= {deriv_eps:.3e}"
            )
        return AFProfile(profile, float(s_af), ratio_eps, deriv_eps)


def _check_tail(radii: Sequence[float], tail_points: int | None) -> None:
    """Refuse radii a value + c/R tail fit cannot use: fewer than 4, not
    increasing, repeated (a repeated radius adds no abscissa, so the fit's
    residual understates its error), not spanning a decade, or fewer than
    `tail_points`, itself 3 or more to leave a residual."""
    if len(radii) < 4:
        raise PreconditionError(f"mass extrapolation needs at least 4 radii, got {list(radii)}")
    if sorted(radii) != list(radii):
        raise DomainError(f"radii must be increasing, got {list(radii)}")
    if len(set(radii)) < len(radii):
        raise PreconditionError(f"mass extrapolation needs distinct radii, got {list(radii)}")
    if max(radii) < 10.0 * min(radii):
        raise PreconditionError(f"mass extrapolation needs radii spanning a decade, got {list(radii)}")
    if tail_points is not None and tail_points < 3:
        raise PreconditionError(f"tail_points={tail_points} is below 3, too few for the fit to leave a residual")
    if tail_points is not None and tail_points > len(radii):
        raise PreconditionError(f"tail_points={tail_points} exceeds the number of radii, {len(radii)}")


def _check_exhaustion(profile: WarpProfile, radii: Sequence[float], tail_points: int | None) -> AFProfile:
    """Refuse a mass curve before any volume or capacity: a profile that
    `AFProfile.check` rejects, a radius that is no `RadialCondenser` of it
    (outside its domain or on its pole), or radii that `_check_tail` rejects.
    Returns the profile's `AFProfile`."""
    af = AFProfile.check(profile)
    _check_inner_radii(profile, radii)
    _check_tail(radii, tail_points)
    return af


def _iso_mass(V: np.ndarray, A: np.ndarray) -> np.ndarray:
    return (2.0 / A) * (V - A**1.5 / (6.0 * _SQRT_PI))


def _cv_mass(V: np.ndarray, cap: np.ndarray) -> np.ndarray:
    return (V - (4.0 * math.pi / 3.0) * cap**3) / (4.0 * math.pi * cap**2)


def _cv_mass_alt(V: np.ndarray, cap: np.ndarray) -> np.ndarray:
    return (V / (4.0 * math.pi)) ** (1.0 / 3.0) - cap


@dataclass(frozen=True)
class MassCurve:
    """Geometry and mass values along a centered-ball exhaustion."""

    radii: tuple
    A: tuple
    V: tuple
    cap: tuple
    m_iso: tuple
    m_cv: tuple
    m_cv_alt: tuple

    def rows(self) -> list[tuple]:
        return list(zip(self.radii, self.A, self.V, self.cap, self.m_iso, self.m_cv, self.m_cv_alt))


def evaluate_mass_curve(
    af: AFProfile, radii: Sequence[float], capacity_fn: Callable[[float], float] | None = None,
    rel_tol: float = 1e-12,
) -> MassCurve:
    """Geometry, capacity and every mass display at each of the increasing `radii`.

    `capacity_fn` maps a radius to the capacity of {s <= R}; the default is
    the closed-form/quadrature route, `radial_capacities` at every radius in
    one pass, its end resistances held to `rel_tol`.  Like V and A
    (`volumes_and_boundaries`), it names the first radius that fails a check.
    """
    radii = tuple(float(R) for R in radii)
    if sorted(radii) != list(radii):
        raise DomainError("radii must be increasing")
    V, A = volumes_and_boundaries(af.profile, radii)
    if capacity_fn is None:
        cap = radial_capacities(af.profile, radii, rel_tol=rel_tol)
    else:
        cap = np.array([capacity_fn(R) for R in radii], dtype=float)
    if np.any(cap <= 0.0):
        raise DegenerateProblemError("capacity vanished along the exhaustion (non-flat end?)")
    with np.errstate(over="ignore", invalid="ignore"):
        columns = (A, V, cap, _iso_mass(V, A), _cv_mass(V, cap), _cv_mass_alt(V, cap))
    finite = np.all(np.isfinite(columns), axis=0)
    if not finite.all():
        raise DomainError(f"mass values at R={radii[np.argmin(finite)]} exceed the float range")
    return MassCurve(radii, *(tuple(c.tolist()) for c in columns))


@dataclass(frozen=True)
class MassExtrapolation:
    m_iso: float
    m_cv: float
    error_estimate: float
    residuals: tuple


def _fit_tail(radii: np.ndarray, values: np.ndarray) -> tuple[float, float, float]:
    """Least-squares fit values = m + c/R on the tail; (m, c, rms residual)."""
    X = np.column_stack([np.ones_like(radii), 1.0 / radii])
    coef, *_ = np.linalg.lstsq(X, values, rcond=None)
    resid = values - X @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    return float(coef[0]), float(coef[1]), rms


def extrapolate_mass(curve: MassCurve, tail_points: int | None = None) -> MassExtrapolation:
    """R -> inf limits of both mass curves from a value + c/R tail fit.

    The radii must pass `_check_tail`.  A tail whose residual is out of
    proportion to the fitted constant is rejected as non-convergent.
    """
    _check_tail(curve.radii, tail_points)
    radii = np.asarray(curve.radii, dtype=float)
    if tail_points is None:
        tail_points = max(4, radii.size // 2)
    tail = slice(-tail_points, None)

    results, resids = [], []
    for values in (np.asarray(curve.m_iso), np.asarray(curve.m_cv)):
        m_fit, _, rms = _fit_tail(radii[tail], values[tail])
        spread = float(np.ptp(values[tail]))
        threshold = 0.05 * max(abs(m_fit), spread) + 1e-10
        if rms > threshold:
            raise NoLimitError(
                "mass curve tail does not follow value + c/R",
                diagnostics={"rms_residual": rms, "fitted_value": m_fit, "tail_values": values[tail].tolist()},
            )
        results.append(m_fit)
        resids.append(rms)

    last_gap = max(
        abs(results[0] - curve.m_iso[-1]),
        abs(results[1] - curve.m_cv[-1]),
    )
    err = max(max(resids) * 3.0, 0.1 * last_gap)
    return MassExtrapolation(results[0], results[1], err, tuple(resids))


MASS_COLUMNS = ["R", "A", "V", "cap", "m_iso", "m_cv", "m_cv_alt"]


def mass_csv(curve: MassCurve) -> str:
    return reports.csv_table(MASS_COLUMNS, curve.rows())
