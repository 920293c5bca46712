import math

import numpy as np
import pytest
from scipy import integrate

from varcap.errors import DomainError, UnsupportedDimensionError
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


def test_quadrature_self_consistency():
    # halving the tolerance moves the result by less than the reported error
    for prof, s0 in [(hyperboloid_profile(), 0.0), (schwarzschild_profile(1.0), 2.5)]:
        cond = RadialCondenser(prof, s0)
        coarse = end_resistance_estimate(cond, rel_tol=1e-8)
        fine = end_resistance_estimate(cond, rel_tol=5e-9)
        assert abs(coarse.value - fine.value) <= coarse.error_estimate


# -- capacity ----------------------------------------------------------------


def test_euclidean_ball_capacity_all_dimensions():
    for m in range(3, 9):
        for r in (0.5, 1.0, 2.0):
            cap = radial_capacity(RadialCondenser(euclidean_profile(m), r))
            assert cap == pytest.approx(r ** (m - 2), rel=1e-10)


@pytest.mark.parametrize("R", [1e6, 1e12, 1e14, 1e15, 1e17, 1e90])
def test_schwarzschild_capacity_at_far_radii(R):
    # 1 / integral over [R, inf) of r^-2 (1 - 2/r)^(-1/2) dr, mass 1; each
    # window's difference of roots near 1 is taken without cancellation
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
