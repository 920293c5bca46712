import math
import re
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from varcap import profiles
from varcap.errors import DegenerateProblemError, DomainError, InconsistencyError, UnsupportedDimensionError, VarcapError
from varcap.geometry import Dimension
from varcap.profiles import (
    INF,
    PowerSegment,
    SqrtQuadraticSegment,
    WarpProfile,
    cylinder_transition_profile,
    euclidean_profile,
    hyperboloid_profile,
    schwarzschild_profile,
)
from varcap.warped import (
    RadialCondenser,
    TailQuadrature,
    end_resistance,
    end_resistance_estimate,
    radial_capacities,
    radial_capacity,
    truncated_ramp_energy,
    volume_and_boundary,
    volumes_and_boundaries,
)


def random_power_profile(rng, m=3):
    a = float(rng.uniform(0.5, 2.0))
    p = float(rng.uniform(0.8, 2.0))
    return WarpProfile(Dimension(m), [PowerSegment(0.0, INF, a, p)], pole_at_origin=True)


# -- end resistance ---------------------------------------------------------


def test_end_resistance_euclidean():
    C = end_resistance(RadialCondenser(euclidean_profile(3), 1.0))
    assert C == pytest.approx(1.0, rel=1e-12)


def test_end_resistance_divergent_constant_tail():
    for m in (3, 4):
        prof = cylinder_transition_profile(2, m=m)
        est = end_resistance_estimate(RadialCondenser(prof, 1.0))
        assert est.value == INF
        assert est.diverged


def test_end_resistance_arctan():
    C = end_resistance(RadialCondenser(hyperboloid_profile(), 0.0))
    assert C == pytest.approx(math.pi / 2, rel=1e-10)


_ANY_DECADE = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


@settings(max_examples=200, deadline=None)
@given(a=_ANY_DECADE, b=_ANY_DECADE, s0=st.floats(-1e6, 1e6), s1=st.just(INF) | st.floats(-1e6, 1e6))
@example(a=1e-24, b=1e-300, s0=0.0, s1=INF)  # sqrt(a b) underflowed to 0: a ZeroDivisionError
def test_m3_neck_keeps_every_arctan_result_inside_the_normal_range(a, b, s0, s1):
    # the end resistance from 0 is (pi/2)/sqrt(a b) to within rounding, and where a b and b/a are normal
    # floats, every integral is the arctan formula's bit for bit
    neck = SqrtQuadraticSegment(-INF, INF, a, b)
    with localcontext() as ctx:
        ctx.prec = 40
        exact = float(Decimal(math.pi / 2) / (Decimal(a) * Decimal(b)).sqrt())
    assert neck.resistance_integral(0.0, INF, 3)[0] == pytest.approx(exact, rel=1e-15)
    s0, s1 = min(s0, s1), max(s0, s1)
    if sys.float_info.min <= a * b < INF and sys.float_info.min <= b / a < INF:
        k = math.sqrt(b / a)
        formula = (math.atan(k * s1) - math.atan(k * s0)) / math.sqrt(a * b)
        assert neck.resistance_integral(s0, s1, 3)[0] == formula


def test_m3_neck_with_a_subnormal_width_ratio_keeps_its_digits():
    # b/a = 1e-320 is subnormal, and its square root read the integral 5.6e-6 low; atan(x) = x - x^3/3 + ...
    value, _ = SqrtQuadraticSegment(-INF, INF, 1e300, 1e-20).resistance_integral(0.0, 1e150, 3)
    assert value == pytest.approx(1e-150, rel=1e-15)


def test_nan_end_resistance_is_refused_by_name(monkeypatch):
    monkeypatch.setattr(WarpProfile, "resistance_between", lambda self, a, b: (math.nan, 0.0))
    with pytest.raises(InconsistencyError, match="end resistance from s0=0.0 is NaN"):
        end_resistance_estimate(RadialCondenser(hyperboloid_profile(), 0.0))


# per-radius (value, error estimate) of the end resistance; None raises as a value past the float range does
_END_OUTCOMES = {"ok": (2.0, 0.0), "nan": (math.nan, 0.0), "zero": (0.0, 0.0), "loose": (2.0, 1.0),
                 "capacity overflow": (1e-320, 0.0), "diverged": (INF, 0.0), "overflow": None}


def _outcome(compute):
    try:
        return [float(x).hex() for x in compute()]
    except VarcapError as exc:
        return type(exc), str(exc)


def _looped_capacities(profile, s0s, table, rel_tol):
    """The former per-radius route: each radius's end resistance and checks, then the next."""
    dim, caps = profile.dim, []
    for s0 in s0s:
        if table[s0] is None:
            raise DomainError("resistance integral exceeds the float range")
        value, err = table[s0]
        if value == INF:
            caps.append(0.0)
            continue
        if math.isnan(value):
            raise InconsistencyError(f"end resistance from s0={s0!r} is NaN")
        if value == 0.0:
            raise DomainError(f"end resistance from s0={s0!r} underflows to 0: capacity past the float range")
        if not err <= rel_tol * value:
            raise InconsistencyError(f"end resistance {value!r} has error estimate {err:.3e}, above rel_tol={rel_tol:g}")
        cap = dim.omega / (dim.gamma * value)
        if cap == INF:
            raise DomainError(f"capacity of {{s <= {s0!r}}} exceeds the float range (end resistance {value!r})")
        caps.append(cap)
    return caps


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(sorted(_END_OUTCOMES)), min_size=1, max_size=6))
def test_radial_capacities_raise_for_the_first_faulty_radius_as_a_loop_would(kinds):
    profile = hyperboloid_profile()
    s0s = [float(k + 1) for k in range(len(kinds))]
    table = {s0: _END_OUTCOMES[kind] for s0, kind in zip(s0s, kinds)}

    def resistance_between(self, a, b):
        if table[a] is None:
            raise DomainError("resistance integral exceeds the float range")
        return table[a]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(WarpProfile, "resistance_between", resistance_between)
        got = _outcome(lambda: radial_capacities(profile, s0s))
        single = [_outcome(lambda: [radial_capacity(RadialCondenser(profile, s0))]) for s0 in s0s]
    assert got == _outcome(lambda: _looped_capacities(profile, s0s, table, 1e-12))
    assert single == [_outcome(lambda: _looped_capacities(profile, [s0], table, 1e-12)) for s0 in s0s]


# each `_END_OUTCOMES` kind's end resistance at one radius, as the loop checks it before any capacity:
# (value, error estimate, diverged), or the error
_ONE_END = {"ok": (2.0, 0.0, False), "diverged": (INF, 0.0, True), "capacity overflow": (1e-320, 0.0, False),
            "nan": (InconsistencyError, "end resistance from s0=1.0 is NaN"),
            "zero": (DomainError, "end resistance from s0=1.0 underflows to 0: capacity past the float range"),
            "loose": (InconsistencyError, "end resistance 2.0 has error estimate 1.000e+00, above rel_tol=1e-12"),
            "overflow": (DomainError, "resistance integral exceeds the float range")}


@pytest.mark.parametrize("kind", sorted(_END_OUTCOMES))
def test_one_radius_calls_check_as_the_loop_does_and_return_python_scalars(monkeypatch, kind):
    # numpy scalars from the integral: the results and messages still hold plain floats
    def resistance_between(self, a, b):
        if _END_OUTCOMES[kind] is None:
            raise DomainError("resistance integral exceeds the float range")
        return tuple(map(np.float64, _END_OUTCOMES[kind]))

    monkeypatch.setattr(WarpProfile, "resistance_between", resistance_between)
    condenser = RadialCondenser(hyperboloid_profile(), 1.0)

    def outcome(compute):
        try:
            return compute()
        except VarcapError as exc:
            return type(exc), str(exc)

    est, value = outcome(lambda: end_resistance_estimate(condenser)), outcome(lambda: end_resistance(condenser))
    if isinstance(est, TailQuadrature):
        assert (est.value, est.error_estimate, est.diverged) == _ONE_END[kind] and est.windows_used == 0
        assert [type(est.value), type(est.error_estimate), type(est.diverged), type(value)] == [float, float, bool, float]
        assert value == est.value
    else:
        assert est == value == _ONE_END[kind]
    cap = outcome(lambda: radial_capacity(condenser))
    assert type(cap) is float or cap == outcome(lambda: radial_capacities(condenser.profile, [1.0]))


def test_a_resistance_whose_product_with_gamma_underflows_is_a_capacity_past_the_float_range(monkeypatch):
    # gamma is 1.1e-14 at m = 60, so gamma * C rounds to 0 for the least subnormal C
    monkeypatch.setattr(WarpProfile, "resistance_between", lambda self, a, b: (5e-324, 0.0))
    profile = WarpProfile(Dimension(60), [PowerSegment(0.0, INF, 1.0, 1.0)], pole_at_origin=True)
    with pytest.raises(DomainError, match=re.escape("capacity of {s <= 1.0} exceeds the float range")):
        radial_capacity(RadialCondenser(profile, 1.0))


# per-radius (f(R), volume); None raises as a volume past the float range does, and a radius
# below the profile's start stands for one outside its domain
_GEOMETRY_OUTCOMES = {"ok": (2.0, 3.0), "zero area": (0.0, 0.0), "infinite area": (INF, 3.0),
                      "overflow": (2.0, None), "outside": None}


def _looped_geometry(profile, radii, table):
    """The former per-radius route: each radius's domain, volume and area checks, then the next."""
    omega, V, A = profile.dim.omega, [], []
    for R in radii:
        if table[R] is None:
            raise DomainError(f"R={R} outside profile domain")
        fr, vol = table[R]
        if vol is None:
            raise DomainError("volume integral exceeds the float range")
        V.append(omega * vol)
        A.append(omega * fr * fr)
        if A[-1] <= 0.0:
            raise DegenerateProblemError(f"boundary area vanishes at R={R}")
    return V + A


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(sorted(_GEOMETRY_OUTCOMES)), min_size=1, max_size=6))
def test_volumes_and_boundaries_raise_for_the_first_faulty_radius_as_a_loop_would(kinds):
    profile = hyperboloid_profile()
    radii = [float(k + 1) * (-1.0 if kind == "outside" else 1.0) for k, kind in enumerate(kinds)]
    table = {R: _GEOMETRY_OUTCOMES[kind] for R, kind in zip(radii, kinds)}

    def volume_between(self, a, b):
        if table[b][1] is None:
            raise DomainError("volume integral exceeds the float range")
        return table[b][1], 0.0

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(WarpProfile, "f", lambda self, s: np.array([table[R][0] for R in np.asarray(s).tolist()]))
        patch.setattr(WarpProfile, "volume_between", volume_between)
        got = _outcome(lambda: np.concatenate(volumes_and_boundaries(profile, radii)))
    assert got == _outcome(lambda: _looped_geometry(profile, radii, table))


@pytest.mark.parametrize("kind", sorted(_GEOMETRY_OUTCOMES))
def test_volume_and_boundary_is_the_one_radius_case_of_volumes_and_boundaries(monkeypatch, kind):
    R = -1.0 if kind == "outside" else 1.0
    table = {R: _GEOMETRY_OUTCOMES[kind]}

    def volume_between(self, a, b):
        if table[b][1] is None:
            raise DomainError("volume integral exceeds the float range")
        return table[b][1], 0.0

    monkeypatch.setattr(WarpProfile, "f", lambda self, s: np.array([table[R][0] for R in np.asarray(s).tolist()]))
    monkeypatch.setattr(WarpProfile, "volume_between", volume_between)
    profile = hyperboloid_profile()
    single = _outcome(lambda: volume_and_boundary(profile, R))
    assert single == _outcome(lambda: np.concatenate(volumes_and_boundaries(profile, [R])))
    assert single == _outcome(lambda: _looped_geometry(profile, [R], table))
    if isinstance(single, list):
        assert [type(x) for x in volume_and_boundary(profile, R)] == [float, float]


def test_end_resistance_requires_unbounded_profile():
    prof = WarpProfile(Dimension(3), [PowerSegment(0.0, 5.0, 1.0, 1.0)], pole_at_origin=True)
    with pytest.raises(DomainError):
        end_resistance(RadialCondenser(prof, 1.0))


def test_rel_tol_bounds_the_accepted_error_estimate():
    # m = 4 has no closed form: the QUADPACK estimate is positive, and refused above rel_tol
    quadrature = RadialCondenser(hyperboloid_profile(m=4), 0.0)
    est = end_resistance_estimate(quadrature)
    assert 0.0 < est.error_estimate <= 1e-12 * est.value and not est.diverged and est.windows_used == 0
    with pytest.raises(InconsistencyError, match="error estimate"):
        end_resistance_estimate(quadrature, rel_tol=1e-20)
    closed_form = end_resistance_estimate(RadialCondenser(euclidean_profile(4), 1.0), rel_tol=1e-20)
    assert closed_form.error_estimate == 0.0 and closed_form.value == 0.5


# -- calibration against closed forms on [s0, inf) ------------------------------


@settings(max_examples=150, deadline=None)
@given(decay=st.floats(1.0, 4.0, exclude_min=True), m=st.integers(3, 8),
       a=st.floats(0.1, 10.0), s0=st.floats(0.1, 100.0))
@example(decay=1.01, m=3, a=1.0, s0=1.0)  # f = s^0.505: a density s^-1.01, just past the divergent 1/s
@example(decay=1.0 + 2.0**-40, m=5, a=0.5, s0=3.0)
def test_power_tail_resistance_matches_its_closed_form(decay, m, a, s0):
    p = decay / (m - 1)
    d = p * (m - 1)  # the decay the segment integrates, rounded as it rounds it
    assume(d > 1.0)
    prof = WarpProfile(Dimension(m), [PowerSegment(0.0, INF, a, p)], pole_at_origin=True)
    exact = a ** (1 - m) * s0 ** (1.0 - d) / (d - 1.0)
    assert end_resistance(RadialCondenser(prof, s0)) == pytest.approx(exact, rel=1e-12)


_DECADES = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)  # a neck sqrt(a/b) from 1e-6 to 1e6 wide


@settings(max_examples=100, deadline=None)
@given(m=st.integers(4, 8), a=_DECADES, b=_DECADES)
@example(m=5, a=0.01, b=100.0)
def test_sqrt_quadratic_resistance_matches_its_closed_form(m, a, b):
    prof = WarpProfile(Dimension(m), [SqrtQuadraticSegment(0.0, INF, a, b)])
    exact = (math.sqrt(math.pi) * math.gamma((m - 2) / 2)
             / (2.0 * math.sqrt(b) * a ** ((m - 2) / 2) * math.gamma((m - 1) / 2)))
    assert end_resistance(RadialCondenser(prof, 0.0)) == pytest.approx(exact, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(a=_DECADES, b=_DECADES, s0=st.just(0.0) | st.floats(-3.0, 8.0).map(lambda e: 10.0**e))
@example(a=1e3, b=1e-6, s0=1.0)  # flat out to s ~ 3e4, then falling like s^-3
def test_sqrt_quadratic_resistance_at_m4_matches_its_closed_form_from_any_radius(a, b, s0):
    # integral of (a + b s^2)^(-3/2) over [s0, inf), written without cancellation
    root = math.sqrt(a + b * s0 * s0)
    exact = 1.0 / (math.sqrt(b) * root * (root + s0 * math.sqrt(b)))
    prof = WarpProfile(Dimension(4), [SqrtQuadraticSegment(0.0, INF, a, b)])
    assert end_resistance(RadialCondenser(prof, s0)) == pytest.approx(exact, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(a=_DECADES, b=_DECADES, s0=_DECADES.map(lambda e: -e), s1=st.just(INF) | _DECADES)
@example(a=1e-6, b=1e3, s0=-10.0, s1=INF)  # a neck 3e-5 wide, far from s0
def test_sqrt_quadratic_resistance_at_m5_matches_its_closed_form_across_the_neck(a, b, s0, s1):
    # the integral of (a + b s^2)^-2 is s / (2a (a + b s^2)) + atan(s sqrt(b/a)) / (2a sqrt(ab)),
    # whose terms at s1 > 0 and at s0 < 0 add without cancellation
    def antiderivative(s):
        if s == INF:
            return math.pi / (4.0 * a * math.sqrt(a * b))
        return s / (2.0 * a * (a + b * s * s)) + math.atan(s * math.sqrt(b / a)) / (2.0 * a * math.sqrt(a * b))

    prof = WarpProfile(Dimension(5), [SqrtQuadraticSegment(-2e6, INF, a, b)])
    value, _ = prof.resistance_between(s0, s1)
    assert value == pytest.approx(antiderivative(s1) - antiderivative(s0), rel=1e-12)


def test_sqrt_quadratic_end_from_far_below_a_narrow_neck_is_accepted():
    # QUADPACK from s0 = -10 used to miss the peak at s = 0 and return -5.6e-8;
    # the integral of (a + b s^2)^(-3/2) is s / (a sqrt(a + b s^2))
    a, b = 1e-6, 1e3
    prof = WarpProfile(Dimension(4), [SqrtQuadraticSegment(-20.0, INF, a, b)])
    tail = end_resistance_estimate(RadialCondenser(prof, -10.0))
    exact = 1.0 / (a * math.sqrt(b)) + 10.0 / (a * math.sqrt(a + 100.0 * b))  # 63,245.5532...
    assert tail.value == pytest.approx(exact, rel=1e-12) and not tail.diverged


@settings(max_examples=100, deadline=None)
@given(mass=st.floats(1e-3, 1e3), w=st.floats(0.01, 1.0))
def test_schwarzschild_resistance_at_m4_matches_its_closed_form(mass, w):
    s0 = max(2.0 * mass / w, 2.0 * mass)
    with localcontext() as ctx:
        ctx.prec = 40  # the closed form cancels about 1/W^2 of its digits
        M, W = Decimal(mass), 2 * Decimal(mass) / Decimal(s0)
        exact = float((Decimal(4) / 3 - Decimal(2) / 3 * (2 + W) * (1 - W).sqrt()) / (4 * M * M))
    resistance = end_resistance(RadialCondenser(schwarzschild_profile(mass, m=4), s0))
    assert resistance == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("p, cap", [(0.505, 0.01), (0.51, 0.02)])
def test_slowly_decaying_power_tail_has_its_exact_capacity(p, cap):
    prof = WarpProfile(Dimension(3), [PowerSegment(0.0, INF, 1.0, p)], pole_at_origin=True)
    assert radial_capacity(RadialCondenser(prof, 1.0)) == pytest.approx(cap, rel=1e-14)


@pytest.mark.parametrize("prof, s0", [(hyperboloid_profile(m=2), 0.0), (schwarzschild_profile(1.0, m=2), 3.0)],
                         ids=["sqrt_quadratic", "schwarzschild"])
def test_two_dimensional_ends_diverge(prof, s0):
    # the density falls like 1/s, whose integral to infinity diverges
    est = end_resistance_estimate(RadialCondenser(prof, s0))
    assert est.value == INF and est.diverged
    assert radial_capacity(RadialCondenser(prof, s0)) == 0.0


@pytest.mark.parametrize("m, s0, message", [
    (8, 1e60, "underflows to 0"),  # resistance s0^-6 / 6 is below the smallest float
    (4, 1e160, "capacity of {s <= 1e+160} exceeds the float range"),  # resistance subnormal, capacity inf
])
def test_capacity_past_the_float_range_is_a_domain_error(m, s0, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        radial_capacity(RadialCondenser(euclidean_profile(m), s0))


# -- capacity ----------------------------------------------------------------


def test_euclidean_ball_capacity_all_dimensions():
    for m in range(3, 9):
        for r in (0.5, 1.0, 2.0):
            cap = radial_capacity(RadialCondenser(euclidean_profile(m), r))
            assert cap == pytest.approx(r ** (m - 2), rel=1e-10)


@pytest.mark.parametrize("R", [1e6, 1e12, 1e14, 1e15, 1e17, 1e90])
def test_schwarzschild_capacity_at_far_radii(R):
    # 1 / integral over [R, inf) of r^-2 (1 - 2/r)^(-1/2) dr, mass 1; the
    # difference of roots near 1 is taken without cancellation
    cap = radial_capacity(RadialCondenser(schwarzschild_profile(1.0), R))
    assert cap == pytest.approx(R / 2.0 * (1.0 + math.sqrt(1.0 - 2.0 / R)), rel=1e-12)


def test_cylinder_transition_capacity_zero():
    for i in (2, 4):
        cap = radial_capacity(RadialCondenser(cylinder_transition_profile(i), 1.0))
        assert cap == 0.0


@pytest.mark.parametrize("i", [4, 2**17, 2**40])
def test_divergent_end_is_found_before_any_quadrature(monkeypatch, i):
    # QUADPACK on the bridge [i, i+1] warned of roundoff from i = 2^17 on, though the cylinder past it diverges
    monkeypatch.setattr(profiles, "_quad", lambda *args, **kwargs: pytest.fail("a quadrature ran"))
    assert radial_capacity(RadialCondenser(cylinder_transition_profile(i), 1.0)) == 0.0


def test_two_ended_neck_capacity():
    cap = radial_capacity(RadialCondenser(hyperboloid_profile(), 0.0, ends="two_symmetric"))
    assert cap == pytest.approx(4.0 / math.pi, rel=1e-10)


def test_capacity_monotone_in_inner_radius():
    rng = np.random.default_rng(42)
    for _ in range(20):
        prof = random_power_profile(rng)
        s_a = float(rng.uniform(0.2, 3.0))
        s_b = s_a + float(rng.uniform(0.1, 3.0))
        cap_a = radial_capacity(RadialCondenser(prof, s_a))
        cap_b = radial_capacity(RadialCondenser(prof, s_b))
        assert cap_b >= cap_a * (1 - 1e-12)


def test_zero_capacity_iff_infinite_resistance():
    finite = RadialCondenser(euclidean_profile(3), 1.0)
    assert end_resistance(finite) < INF and radial_capacity(finite) > 0
    divergent = RadialCondenser(cylinder_transition_profile(3), 1.0)
    assert end_resistance(divergent) == INF and radial_capacity(divergent) == 0.0


# -- ramp energy ---------------------------------------------------------------


def test_ramp_energy_on_cylinder_matches_omega_over_L():
    omega = Dimension(3).omega
    prof = cylinder_transition_profile(2, m=3)
    ramp = truncated_ramp_energy(prof, 10.0)
    assert ramp.outside_cylinder
    assert ramp.energy == pytest.approx(omega / 10.0, rel=1e-12)
    # independent direct quadrature of the ramp integrand
    direct, _ = integrate.quad(lambda s: prof.f(s) ** 2 * omega / 100.0, 10.0, 20.0)
    assert ramp.energy == pytest.approx(direct, rel=1e-10)


def test_ramp_energy_scaling_on_cylinder():
    prof = cylinder_transition_profile(2, m=3)
    e1 = truncated_ramp_energy(prof, 16.0).energy
    e2 = truncated_ramp_energy(prof, 32.0).energy
    assert e2 == pytest.approx(e1 / 2.0, rel=1e-12)
    assert truncated_ramp_energy(prof, 977.0).energy * 977.0 == pytest.approx(
        Dimension(3).omega, rel=1e-12
    )


def test_ramp_energy_euclidean_region():
    # support inside the Euclidean region: (omega/L^2) * integral of s^2 = (28 pi / 3) L
    prof = cylinder_transition_profile(8, m=3)
    ramp = truncated_ramp_energy(prof, 1.0)
    assert not ramp.outside_cylinder
    assert ramp.energy == pytest.approx(28.0 * math.pi / 3.0, rel=1e-12)


# -- volume and boundary ---------------------------------------------------------


def test_volume_and_boundary_euclidean():
    V, A = volume_and_boundary(euclidean_profile(3), 1.0)
    assert V == pytest.approx(4 * math.pi / 3, rel=1e-13)
    assert A == pytest.approx(4 * math.pi, rel=1e-13)
    V, A = volume_and_boundary(euclidean_profile(3), 2.0)
    assert V == pytest.approx(32 * math.pi / 3, rel=1e-13)
    assert A == pytest.approx(16 * math.pi, rel=1e-13)


def test_volume_and_boundary_schwarzschild_oracle():
    # frozen high-precision quadrature value (mpmath, 30 digits), mass=1, R=10
    V, A = volume_and_boundary(schwarzschild_profile(1.0), 10.0)
    assert V == pytest.approx(5054.9087020011138677, rel=1e-10)
    assert A == pytest.approx(400.0 * math.pi, rel=1e-13)


def test_volume_and_boundary_refuses_the_pole():
    with pytest.raises(DegenerateProblemError, match="boundary area vanishes at R=0.0"):
        volume_and_boundary(euclidean_profile(3), 0.0)


def test_volume_and_boundary_rejects_other_dimensions():
    with pytest.raises(UnsupportedDimensionError):
        volume_and_boundary(euclidean_profile(4), 1.0)


# -- condenser validation ----------------------------------------------------------


def test_condenser_validation():
    with pytest.raises(DomainError):
        RadialCondenser(euclidean_profile(3), 0.0)  # pole boundary
    with pytest.raises(DomainError):
        RadialCondenser(euclidean_profile(3), -1.0)
    with pytest.raises(DomainError):
        RadialCondenser(euclidean_profile(3), 1.0, ends="three")
