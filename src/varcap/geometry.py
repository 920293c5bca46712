"""Dimensional constants for capacity normalization.

The capacity of a condenser in dimension m is Dirichlet energy divided by
gamma_m, where gamma_m = (m - 2) * omega_{m-1} for m >= 3 and gamma_2 = 2*pi;
omega_{m-1} is the hypersurface area of the unit (m-1)-sphere.  With this
normalization a Euclidean ball of radius r has capacity r**(m-2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


def unit_sphere_area(m: int) -> float:
    """Area omega_{m-1} of the unit (m-1)-sphere in R^m: 2*pi^(m/2)/Gamma(m/2).

    m=2 -> 2*pi (circle length), m=3 -> 4*pi, m=4 -> 2*pi**2.
    """
    if m < 2:
        raise DomainError(f"unit_sphere_area requires m >= 2, got m={m}")
    try:
        return 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)
    except OverflowError:  # Gamma(m/2) passes the float range from m = 344
        raise DomainError(f"unit sphere area for m={m} is outside the float range") from None


@dataclass(frozen=True)
class Dimension:
    """Ambient dimension m with its derived normalization constants."""

    m: int

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 2:
            raise DomainError(f"dimension must be an integer >= 2, got {self.m!r}")
        unit_sphere_area(self.m)  # raises unless omega is a float

    @property
    def omega(self) -> float:
        """Hypersurface area of the unit (m-1)-sphere."""
        return unit_sphere_area(self.m)

    @property
    def gamma(self) -> float:
        """Capacity normalization: (m-2)*omega for m >= 3, 2*pi for m = 2."""
        if self.m == 2:
            return 2.0 * math.pi
        return (self.m - 2) * self.omega
