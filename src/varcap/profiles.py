"""Piecewise warp profiles for rotationally symmetric metrics.

A profile describes a metric of the form

    g = q(s)^2 ds^2 + f(s)^2 dsigma^2

on an interval [s_min, s_max) times a round unit (m-1)-sphere.  Most segments
are given in arclength (q = 1); the Schwarzschild segment uses the areal
radius as coordinate, with q = (1 - 2M/R)^(-1/2).

The three densities every segment exposes (all per unit sphere area):

    resistance density   q * f^(1-m)    -- integrand of the end resistance
    volume density       q * f^(m-1)    -- integrand of the volume
    element weight       f^(m-1) / q    -- 1D Dirichlet-form coefficient

Power and constant segments integrate in closed form, also out to infinity;
splines and the other analytic kinds fall back to adaptive quadrature.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ProfileError, real
from .geometry import Dimension

INF = math.inf

_JUNCTION_RTOL = 1e-12
_QUAD_EPSREL = 1e-12
_POSITIVITY_SAMPLES = 129


def _quad(fun: Callable[[float], float], a: float, b: float, scale: float = 1.0) -> tuple[float, float]:
    """Adaptive quadrature on [a, b], returning (value, abs error); an infinite b goes to
    QUADPACK's QAGI in w = (s - a) / scale, `scale` being the length the integrand varies over."""
    from scipy import integrate

    options = {"epsabs": 0.0, "epsrel": _QUAD_EPSREL, "limit": 200}
    if b == INF:
        return integrate.quad(lambda w: scale * fun(a + scale * w), 0.0, INF, **options)
    return integrate.quad(fun, a, b, **options)


class Segment:
    """One piece of a profile on [lo, hi); hi may be inf."""

    kind = "abstract"
    param_names: tuple[str, ...] = ()  # the attributes `params()` writes and `WarpProfile.from_doc` reads
    optional_params: tuple[str, ...] = ()

    def __init__(self, lo: float, hi: float):
        if not (hi > lo):
            raise ProfileError(f"segment range [{lo}, {hi}) is empty")
        self.lo = float(lo)
        self.hi = float(hi)

    # -- pointwise data ----------------------------------------------------

    def f(self, s):
        raise NotImplementedError

    def lapse(self, s):
        return np.ones_like(np.asarray(s, dtype=float))

    def f_coordinate_derivative(self, s):
        """d f / d(coordinate)."""
        raise NotImplementedError

    def resistance_density(self, s, m: int):
        return self.lapse(s) * self.f(s) ** (-(m - 1))

    def volume_density(self, s, m: int):
        return self.lapse(s) * self.f(s) ** (m - 1)

    def element_weight(self, s, m: int):
        return self.f(s) ** (m - 1) / self.lapse(s)

    # -- integrals ----------------------------------------------------------

    def resistance_integral(self, a: float, b: float, m: int) -> tuple[float, float]:
        return _quad(lambda s: float(self.resistance_density(s, m)), a, b)

    def volume_integral(self, a: float, b: float, m: int) -> tuple[float, float]:
        return _quad(lambda s: float(self.volume_density(s, m)), a, b)

    # -- serialization -------------------------------------------------------

    def params(self) -> dict:
        return {name: getattr(self, name) for name in self.param_names}

    def to_doc(self) -> dict:
        hi = None if self.hi == INF else self.hi
        return {"kind": self.kind, "range": [self.lo, hi], "params": self.params()}


class PowerSegment(Segment):
    """f(s) = a * s**p (arclength parametrization)."""

    kind = "power"
    param_names = ("a", "p")

    def __init__(self, lo, hi, a: float, p: float):
        super().__init__(lo, hi)
        if a <= 0:
            raise ProfileError(f"power segment needs a > 0, got a={a}")
        if lo < 0 and p != round(p):
            raise ProfileError("power segment with non-integer exponent needs s >= 0")
        self.a = float(a)
        self.p = float(p)

    def f(self, s):
        return self.a * np.asarray(s, dtype=float) ** self.p

    def f_coordinate_derivative(self, s):
        s = np.asarray(s, dtype=float)
        if self.p == 0:
            return np.zeros_like(s)
        return self.a * self.p * s ** (self.p - 1.0)

    def _monomial_integral(self, a: float, b: float, coef: float, expo: float) -> float:
        # integral of coef * s**expo on [a, b]; b = inf gives 0 or inf for b**e1
        if expo == -1.0:
            if a <= 0.0:
                return INF
            return coef * math.log(b / a)
        e1 = expo + 1.0
        if a <= 0.0 and e1 <= 0.0:
            return INF
        ta = 0.0 if a == 0.0 else a**e1
        return coef * (b**e1 - ta) / e1

    def resistance_integral(self, a, b, m):
        coef = self.a ** (-(m - 1))
        return self._monomial_integral(a, b, coef, -self.p * (m - 1)), 0.0

    def volume_integral(self, a, b, m):
        coef = self.a ** (m - 1)
        return self._monomial_integral(a, b, coef, self.p * (m - 1)), 0.0


class ConstantSegment(Segment):
    """f(s) = c."""

    kind = "constant"
    param_names = ("c",)

    def __init__(self, lo, hi, c: float):
        super().__init__(lo, hi)
        if c <= 0:
            raise ProfileError(f"constant segment needs c > 0, got c={c}")
        self.c = float(c)

    def f(self, s):
        return np.full_like(np.asarray(s, dtype=float), self.c)

    def f_coordinate_derivative(self, s):
        return np.zeros_like(np.asarray(s, dtype=float))

    def resistance_integral(self, a, b, m):
        return self.c ** (-(m - 1)) * (b - a), 0.0

    def volume_integral(self, a, b, m):
        return self.c ** (m - 1) * (b - a), 0.0


def _pchip_slopes(h: np.ndarray, chord: np.ndarray) -> np.ndarray:
    """Fritsch-Carlson PCHIP node slopes from the interval widths `h` and
    chord slopes `chord`, with Moler's one-sided end rule.

    Interior slopes are the weighted harmonic mean of the neighbouring chord
    slopes, or 0 where those change sign or vanish (Fritsch & Carlson, SIAM
    J. Numer. Anal. 17, 1980); the ends take a shape-guarded three-point
    estimate (Moler, *Numerical Computing with MATLAB*, 3.6).  The operations
    and their order are those of scipy's `PchipInterpolator`, so the slopes
    match scipy's bit for bit.
    """
    if chord.size == 1:
        return np.array([chord[0], chord[0]])
    sign = np.sign(chord)
    flat = (sign[1:] != sign[:-1]) | (chord[1:] == 0) | (chord[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # 1/inf is the right limit
        whmean = (w1 / chord[:-1] + w2 / chord[1:]) / (w1 + w2)
        inner = np.where(flat, 0.0, 1.0 / whmean)
    return np.concatenate(([_end_slope(h[0], h[1], chord[0], chord[1])], inner,
                           [_end_slope(h[-1], h[-2], chord[-1], chord[-2])]))


def _end_slope(h0, h1, m0, m1):
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _finite_table(values, x: np.ndarray, name: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != x.shape:
        raise ProfileError(f"spline {name} must hold one number per x: "
                           f"x has shape {x.shape}, {name} {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ProfileError(f"spline {name} must hold finite numbers only")
    return values


class SplineSegment(Segment):
    """Cubic Hermite interpolant through tabulated samples.

    Monotone PCHIP by default (see `_pchip_slopes`); passing the derivative
    table `dydx` switches to the Hermite cubic with those node slopes.  The
    coefficients and their evaluation repeat scipy's `CubicHermiteSpline`
    and `PPoly` arithmetic one operation at a time, so values and
    derivatives match scipy's bit for bit.
    """

    kind = "spline"
    param_names = ("x", "y", "dydx")
    optional_params = ("dydx",)

    def __init__(self, x: Sequence[float], y: Sequence[float], dydx: Sequence[float] | None = None):
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size < 2 or not np.all(np.isfinite(x)) or np.any(np.diff(x) <= 0):
            raise ProfileError("spline samples need strictly increasing finite x with >= 2 points")
        super().__init__(x[0], x[-1])
        self.x = x
        self.y = _finite_table(y, x, "y")
        self.dydx = None if dydx is None else _finite_table(dydx, x, "dydx")
        dx = np.diff(x)
        chord = np.diff(self.y) / dx
        slopes = _pchip_slopes(dx, chord) if dydx is None else self.dydx
        t = (slopes[:-1] + slopes[1:] - 2 * chord) / dx
        # power-basis rows of s^3, s^2, s, 1 about each interval's left end
        coef = np.stack((t / dx, (chord - slopes[:-1]) / dx - t, slopes[:-1], self.y[:-1]))
        deriv = coef[:-1] * np.array([[3.0], [2.0], [1.0]])
        # scipy's power sum starts from 0.0 + (constant row); adding it once here gives the same floats
        coef[-1] += 0.0
        deriv[-1] += 0.0
        self._coef, self._deriv_coef = coef, deriv
        self._inner = x[1:-1]  # searching these puts x[-1] in the last interval, which is closed

    def _evaluate(self, coef: np.ndarray, s):
        # the clip, interval search, shift and power sum of scipy's PPoly
        # evaluation; the last interval is closed, and a NaN point stays NaN
        s = np.asarray(s, dtype=float)
        shape = s.shape
        s = s.ravel().clip(self.lo, self.hi)
        k = self._inner.searchsorted(s, "right")
        c = coef.take(k, axis=1)
        s = s - self.x[k]
        res = c[-1]
        z = s
        for j in range(len(c) - 2, -1, -1):
            res = res + c[j] * z
            if j:
                z = z * s
        return res.reshape(shape)

    def f(self, s):
        return self._evaluate(self._coef, s)

    def f_coordinate_derivative(self, s):
        return self._evaluate(self._deriv_coef, s)

    def params(self):
        doc = {"x": self.x.tolist(), "y": self.y.tolist()}
        if self.dydx is not None:
            doc["dydx"] = self.dydx.tolist()
        return doc


class SqrtQuadraticSegment(Segment):
    """f(s) = sqrt(a + b*s^2); hyperboloid-style neck for even profiles."""

    kind = "sqrt_quadratic"
    param_names = ("a", "b")

    def __init__(self, lo, hi, a: float, b: float):
        super().__init__(lo, hi)
        if a <= 0 or b <= 0:
            raise ProfileError("sqrt_quadratic needs a > 0 and b > 0")
        self.a = float(a)
        self.b = float(b)

    def f(self, s):
        s = np.asarray(s, dtype=float)
        return np.sqrt(self.a + self.b * s * s)

    def f_coordinate_derivative(self, s):
        s = np.asarray(s, dtype=float)
        return self.b * s / np.sqrt(self.a + self.b * s * s)

    def resistance_integral(self, a, b, m):
        if m == 3:
            # integral of 1/(A + B s^2) = arctan(s sqrt(B/A)) / sqrt(A B)
            root = math.sqrt(self.a * self.b)
            k = math.sqrt(self.b / self.a)
            return (math.atan(k * b) - math.atan(k * a)) / root, 0.0
        if m == 2 and b == INF:  # the density tends to 1/(sqrt(B) s)
            return INF, 0.0
        return _quad(lambda s: float(self.resistance_density(s, m)), a, b, max(abs(a), math.sqrt(self.a / self.b)))

    def volume_integral(self, a, b, m):
        if m == 3:
            return self.a * (b - a) + self.b * (b**3 - a**3) / 3.0, 0.0
        return super().volume_integral(a, b, m)


class SchwarzschildSegment(Segment):
    """Schwarzschild exterior in areal radius: f(R) = R, q(R) = (1-2M/R)^(-1/2).

    Defined for R >= 2M; the horizon R = 2M is the inner boundary.  Quadrature
    substitutes x = sqrt(R - 2M), which removes the q singularity at the
    horizon exactly and maps R = inf to x = inf.
    """

    kind = "schwarzschild"
    param_names = ("mass",)

    def __init__(self, lo, hi, mass: float):
        if mass <= 0:
            raise ProfileError(f"schwarzschild segment needs mass > 0, got {mass}")
        if lo < 2.0 * mass - 1e-12 * mass:
            raise ProfileError(f"schwarzschild segment starts inside the horizon: {lo} < {2*mass}")
        super().__init__(max(lo, 2.0 * mass), hi)
        self.mass = float(mass)

    def f(self, s):
        return np.asarray(s, dtype=float)

    def f_coordinate_derivative(self, s):
        return np.ones_like(np.asarray(s, dtype=float))

    def lapse(self, s):
        s = np.asarray(s, dtype=float)
        arg = np.maximum(1.0 - 2.0 * self.mass / s, 0.0)
        with np.errstate(divide="ignore"):
            return 1.0 / np.sqrt(arg)

    def element_weight(self, s, m):
        s = np.asarray(s, dtype=float)
        return s ** (m - 1) * np.sqrt(np.maximum(1.0 - 2.0 * self.mass / s, 0.0))

    def _subst_quad(self, a: float, b: float, p: float) -> tuple[float, float]:
        # integral of R^p * (1-2M/R)^(-1/2) dR = integral of R^(p+1/2) (R-2M)^(-1/2) dR;
        # with x = sqrt(R-2M) this is 2 * integral of (x^2+2M)^(p+1/2) dx,
        # smooth through the horizon and varying over max(x, sqrt(2M))
        M = self.mass
        math.pow(b, p + 1.0)  # the integral's size: raises OverflowError past the float range, where quad gives nan
        xa = math.sqrt(max(a - 2.0 * M, 0.0))
        xb = math.sqrt(b - 2.0 * M)
        return _quad(lambda x: 2.0 * (x * x + 2.0 * M) ** (p + 0.5), xa, xb, max(xa, math.sqrt(2.0 * M)))

    def resistance_integral(self, a, b, m):
        if m == 3:
            # exact: d/dR [ (1/M) sqrt(1 - 2M/R) ] = R^-2 (1 - 2M/R)^(-1/2); the difference
            # of the two roots, over their sum, is taken without cancellation
            M = self.mass
            fb = math.sqrt(1.0 - 2.0 * M / b)
            fa = math.sqrt(max(1.0 - 2.0 * M / a, 0.0))
            return (2.0 / a - 2.0 / b) / (fb + fa), 0.0
        if m == 2 and b == INF:  # the density tends to 1/R
            return INF, 0.0
        return self._subst_quad(a, b, -(m - 1.0))

    def volume_integral(self, a, b, m):
        if b == INF:
            return INF, 0.0
        return self._subst_quad(a, b, m - 1.0)


_SEGMENT_KINDS = {
    "power": PowerSegment,
    "constant": ConstantSegment,
    "spline": SplineSegment,
    "sqrt_quadratic": SqrtQuadraticSegment,
    "schwarzschild": SchwarzschildSegment,
}


def _reals(value, where: str) -> list[float]:
    if not isinstance(value, list):
        raise ProfileError(f"{where} must be a list of numbers, got {value!r}")
    return [real(v, f"{where}[{j}]", ProfileError) for j, v in enumerate(value)]


def _segment_from_doc(piece, where: str) -> Segment:
    """One `pieces` entry as a segment; a ProfileError names the offending key under `where`."""
    if not isinstance(piece, dict):
        raise ProfileError(f"{where} must be an object, got {piece!r}")
    extra = set(piece) - {"kind", "range", "params"}
    if extra:
        raise ProfileError(f"{where} has unknown keys: {sorted(extra)}")
    kind = piece.get("kind")
    if not isinstance(kind, str) or kind not in _SEGMENT_KINDS:
        raise ProfileError(f"{where}: unknown kind {kind!r} (valid: {sorted(_SEGMENT_KINDS)})")
    bounds = piece.get("range")
    if not isinstance(bounds, list) or len(bounds) != 2:
        raise ProfileError(f"{where}.range must be [lo, hi], got {bounds!r}")
    lo = real(bounds[0], f"{where}.range[0]", ProfileError)
    hi = INF if bounds[1] is None else real(bounds[1], f"{where}.range[1]", ProfileError)
    params = piece.get("params", {})
    if not isinstance(params, dict):
        raise ProfileError(f"{where}.params must be an object, got {params!r}")
    cls = _SEGMENT_KINDS[kind]
    unknown = sorted(set(params) - set(cls.param_names))
    missing = [key for key in cls.param_names if key not in params and key not in cls.optional_params]
    if unknown or missing:
        raise ProfileError(f"{where}.params of a {kind} piece are {list(cls.param_names)}: "
                           f"unknown {unknown}, missing {missing}")
    if cls is SplineSegment:  # its range comes from its sample table
        args, kwargs = (), {key: _reals(val, f"{where}.params.{key}") for key, val in params.items()}
    else:
        args, kwargs = (lo, hi), {key: real(val, f"{where}.params.{key}", ProfileError) for key, val in params.items()}
    try:
        segment = cls(*args, **kwargs)
    except ProfileError as exc:
        raise ProfileError(f"{where}: {exc}") from None
    if cls is SplineSegment and (segment.lo, segment.hi) != (lo, hi):
        raise ProfileError(f"{where}.range of a spline piece must be the ends of its x, "
                           f"[{segment.lo}, {segment.hi}], got {bounds!r}")
    return segment


class WarpProfile:
    """Contiguous list of segments plus the ambient dimension.

    Invariants enforced at construction: segments tile [s_min, s_max) without
    gaps, junction values agree to 1e-12 relative, f > 0 on the interior, and
    f(s_min) = 0 exactly when the profile closes with a pole there.
    """

    def __init__(self, dim: Dimension, segments: Sequence[Segment], pole_at_origin: bool = False):
        if not segments:
            raise ProfileError("profile needs at least one segment")
        self.dim = dim
        self.segments = list(segments)
        self.pole_at_origin = bool(pole_at_origin)
        self._validate()
        self._breaks = np.array([seg.lo for seg in self.segments] + [self.segments[-1].hi])

    # -- construction checks -------------------------------------------------

    def _validate(self):
        segs = self.segments
        for left, right in zip(segs, segs[1:]):
            if left.hi == INF:
                raise ProfileError("only the final segment may be unbounded")
            gap = abs(right.lo - left.hi)
            if gap > _JUNCTION_RTOL * max(1.0, abs(left.hi)):
                raise ProfileError(f"segments not contiguous at s={left.hi} (gap {gap:.3e})")
            fl = float(left.f(left.hi))
            fr = float(right.f(right.lo))
            if abs(fl - fr) > _JUNCTION_RTOL * max(1.0, abs(fl), abs(fr)):
                raise ProfileError(f"profile jumps at s={left.hi}: {fl} vs {fr}")
        for k, seg in enumerate(segs):
            hi = seg.hi if seg.hi != INF else max(2.0 * abs(seg.lo) + 10.0, seg.lo + 10.0)
            samples = np.linspace(seg.lo, hi, _POSITIVITY_SAMPLES)
            if k == 0:
                samples = samples[1:]  # the left endpoint may be a pole
            vals = np.asarray(seg.f(samples), dtype=float)
            if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
                raise ProfileError(f"warp factor must be positive on segment {k} ({seg.kind})")
        f0 = float(segs[0].f(segs[0].lo))
        if self.pole_at_origin and abs(f0) > 1e-10:
            raise ProfileError(f"pole profile must have f(s_min) = 0, got {f0}")
        if not self.pole_at_origin and f0 <= 0.0:
            raise ProfileError("f(s_min) must be positive when there is no pole")

    # -- basic queries --------------------------------------------------------

    @property
    def m(self) -> int:
        return self.dim.m

    @property
    def s_min(self) -> float:
        return self.segments[0].lo

    @property
    def s_max(self) -> float:
        return self.segments[-1].hi

    @property
    def is_unbounded(self) -> bool:
        return self.s_max == INF

    def _segment_index(self, s: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self._breaks, s, side="right") - 1
        return np.clip(idx, 0, len(self.segments) - 1)

    def _eval(self, s, per_segment: Callable[[Segment, np.ndarray], np.ndarray]):
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        if np.any(s < self.s_min - 1e-12) or np.any(s > self.s_max):
            raise DomainError(f"evaluation outside profile domain [{self.s_min}, {self.s_max})")
        out = np.empty_like(s)
        idx = self._segment_index(s)
        for k in np.unique(idx):
            mask = idx == k
            out[mask] = per_segment(self.segments[k], s[mask])
        return float(out[0]) if scalar else out

    def f(self, s):
        return self._eval(s, lambda seg, x: seg.f(x))

    def lapse(self, s):
        return self._eval(s, lambda seg, x: seg.lapse(x))

    def element_weight(self, s):
        return self._eval(s, lambda seg, x: seg.element_weight(x, self.m))

    def arclength_derivative(self, s):
        """df/d(arclength) = (df/dcoord) / q; tends to 1 on asymptotically flat ends."""
        return self._eval(
            s, lambda seg, x: np.asarray(seg.f_coordinate_derivative(x), dtype=float) / seg.lapse(x)
        )

    # -- piecewise integrals ---------------------------------------------------

    def _integrate(self, a: float, b: float, which: str) -> tuple[float, float]:
        if not (self.s_min - 1e-12 <= a <= b <= self.s_max):
            raise DomainError(f"integration range [{a}, {b}] outside domain")
        a = max(a, self.s_min)
        total, err = 0.0, 0.0
        for seg in self.segments:
            lo, hi = max(a, seg.lo), min(b, seg.hi)
            if hi <= lo:
                continue
            fn = seg.resistance_integral if which == "resistance" else seg.volume_integral
            try:
                v, e = fn(lo, hi, self.m)
            except OverflowError:  # a power of the coordinate past the float range
                raise DomainError(f"{which} integral over [{a}, {b}] exceeds the float range") from None
            if v == INF:
                return INF, 0.0
            total += v
            err += e
        return total, err

    def resistance_between(self, a: float, b: float) -> tuple[float, float]:
        """Integral of q * f^(1-m) over [a, b] with an error estimate."""
        return self._integrate(a, b, "resistance")

    def volume_between(self, a: float, b: float) -> tuple[float, float]:
        """Integral of q * f^(m-1) over [a, b] (per unit sphere area)."""
        return self._integrate(a, b, "volume")

    # -- serialization -----------------------------------------------------------

    def to_doc(self) -> dict:
        return {
            "dimension": self.m,
            "pole_at_origin": self.pole_at_origin,
            "pieces": [seg.to_doc() for seg in self.segments],
        }

    @staticmethod
    def from_doc(doc: dict) -> "WarpProfile":
        if not isinstance(doc, dict):
            raise ProfileError(f"profile document must be an object, got {doc!r}")
        allowed = {"dimension", "pole_at_origin", "pieces"}
        unknown = set(doc) - allowed
        if unknown:
            raise ProfileError(f"unknown profile keys: {sorted(unknown)}")
        if "dimension" not in doc or "pieces" not in doc:
            raise ProfileError("profile document needs 'dimension' and 'pieces'")
        dim = Dimension(doc["dimension"])
        pole = doc.get("pole_at_origin", False)
        if not isinstance(pole, bool):
            raise ProfileError(f"pole_at_origin must be true or false, got {pole!r}")
        if not isinstance(doc["pieces"], list):
            raise ProfileError(f"pieces must be a list, got {doc['pieces']!r}")
        segments = [_segment_from_doc(piece, f"pieces[{k}]") for k, piece in enumerate(doc["pieces"])]
        return WarpProfile(dim, segments, pole_at_origin=pole)


# -- stock profiles ---------------------------------------------------------------


def euclidean_profile(m: int = 3) -> WarpProfile:
    """Flat space: f(s) = s on [0, inf)."""
    return WarpProfile(Dimension(m), [PowerSegment(0.0, INF, 1.0, 1.0)], pole_at_origin=True)


def cylinder_transition_profile(i: float, m: int = 3) -> WarpProfile:
    """Euclidean out to s = i, then a monotone neck down to a unit cylinder.

    f(s) = s on [0, i], a cosine-ramp spline bridge through 33 samples from
    i down to 1 on [i, i+1], and f = 1 on [i+1, inf).  The unit cylinder
    radius makes the linear-ramp test energy on the cylindrical range
    exactly omega/L.  An i so large that the 33 samples of [i, i+1] do not
    increase in floats raises `DomainError`.
    """
    i = float(i)
    if i <= 1:
        raise DomainError(f"transition radius must exceed 1, got i={i}")
    x = np.linspace(i, i + 1.0, 33)
    if not np.all(np.diff(x) > 0):
        raise DomainError(f"transition radius i={i:g} leaves the bridge [i, i+1] no room in floats")
    y = 1.0 + (i - 1.0) * (1.0 + np.cos(math.pi * (x - i))) / 2.0
    y[0], y[-1] = i, 1.0
    segments = [
        PowerSegment(0.0, i, 1.0, 1.0),
        SplineSegment(x, y),
        ConstantSegment(i + 1.0, INF, 1.0),
    ]
    return WarpProfile(Dimension(m), segments, pole_at_origin=True)


def hyperboloid_profile(m: int = 3, a: float = 1.0, b: float = 1.0, s_min: float = 0.0) -> WarpProfile:
    """One-sided even-neck profile f(s) = sqrt(a + b s^2) on [s_min, inf)."""
    return WarpProfile(Dimension(m), [SqrtQuadraticSegment(s_min, INF, a, b)])


def capped_even_profile(i: float, m: int = 3, a: float = 1.0, b: float = 1.0) -> WarpProfile:
    """Even-neck profile capped on the left by a pole at s = -2i.

    Agrees with sqrt(a + b s^2) on [-i, inf); on [-2i, -i] a cubic bridge
    rises from f(-2i) = 0 with unit slope (smooth pole) and matches value and
    first derivative at s = -i.
    """
    if i <= 0:
        raise DomainError(f"cap index must be positive, got i={i}")
    s_j = -float(i)
    f_j = math.sqrt(a + b * s_j * s_j)
    df_j = b * s_j / f_j
    bridge = SplineSegment([-2.0 * i, s_j], [0.0, f_j], dydx=[1.0, df_j])
    neck = SqrtQuadraticSegment(s_j, INF, a, b)
    return WarpProfile(Dimension(m), [bridge, neck], pole_at_origin=True)


def schwarzschild_profile(mass: float, m: int = 3) -> WarpProfile:
    """Schwarzschild exterior of the given mass, areal-radius parametrization."""
    return WarpProfile(Dimension(m), [SchwarzschildSegment(2.0 * mass, INF, mass)])
