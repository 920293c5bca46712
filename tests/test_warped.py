import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from varcap.errors import DomainError, InconsistencyError, UnsupportedDimensionError
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
    end_resistance,
    end_resistance_estimate,
    radial_capacity,
    truncated_ramp_energy,
    volume_and_boundary,
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
