"""Exception and warning types shared across the library, and the number
check the JSON document readers share."""

import math


class VarcapError(Exception):
    """Base class for all library errors."""


class DomainError(VarcapError, ValueError):
    """Input lies outside an operation's mathematical domain."""


class PreconditionError(VarcapError, ValueError):
    """A documented precondition was violated."""


class ProfileError(VarcapError, ValueError):
    """Warp profile data is malformed (gaps, jumps, nonpositive warp factor)."""


class MetricError(VarcapError, ValueError):
    """Distance data fails the metric axioms."""


class SingularWeightError(VarcapError, ArithmeticError):
    """The warp factor vanishes where a positive element weight is required."""


class InconsistencyError(VarcapError, RuntimeError):
    """Numerical results violate a structural guarantee (signals a bad grid)."""


class UnsupportedDimensionError(DomainError):
    """Operation is only defined for a specific dimension."""


class DegenerateProblemError(VarcapError, ValueError):
    """Problem data makes the requested quantity undefined (zero area, zero capacity, ...)."""


class NoLimitError(VarcapError, RuntimeError):
    """Tail extrapolation could not identify a limit value."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ConfigError(VarcapError, ValueError):
    """Invalid run configuration; collects every offending entry."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class EmptyRegionWarning(UserWarning):
    """A constructed point set came out empty (e.g. a hole swallowed the region)."""


def is_real(value) -> bool:
    """A finite int or float that is not a bool: a number as JSON gives it."""
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an integer past the float range
        return False


def real(value, where: str, error: type[VarcapError]) -> float:
    """`value` as a float; raises `error` naming `where` unless it is a finite number."""
    if not is_real(value):
        raise error(f"{where} must be a finite number, got {value!r}")
    return float(value)
