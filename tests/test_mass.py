from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import separate_mass_curve
from varcap.errors import DomainError, NoLimitError, PreconditionError
from varcap.mass import AFProfile, MassCurve, evaluate_mass_curve, extrapolate_mass, mass_csv
from varcap.profiles import (
    WarpProfile,
    cylinder_transition_profile,
    euclidean_profile,
    hyperboloid_profile,
    schwarzschild_profile,
)
from varcap.radial_fem import capacity_estimate
from varcap.warped import RadialCondenser


FLAT_RADII = tuple(np.geomspace(1.0, 100.0, 8))


@pytest.fixture(scope="module")
def flat_af():
    return AFProfile.check(euclidean_profile(3))


@pytest.fixture(scope="module")
def schw_af():
    return AFProfile.check(schwarzschild_profile(2.0))


# -- AF witness -----------------------------------------------------------------


def test_af_witness_flat(flat_af):
    assert flat_af.ratio_eps <= 1e-12
    assert flat_af.deriv_eps <= 1e-6


def test_af_witness_schwarzschild(schw_af):
    assert schw_af.ratio_eps <= 1e-12
    assert schw_af.deriv_eps <= 0.1


def test_af_check_rejects_cylinder_end():
    with pytest.raises(DomainError):
        AFProfile.check(cylinder_transition_profile(2))


def test_af_check_rejects_wrong_dimension():
    with pytest.raises(DomainError):
        AFProfile.check(euclidean_profile(4))


# -- flat calibration ---------------------------------------------------------------


def test_flat_masses_vanish(flat_af):
    curve = evaluate_mass_curve(flat_af, FLAT_RADII)
    assert np.max(np.abs(curve.m_iso)) <= 1e-10
    assert np.max(np.abs(curve.m_cv)) <= 1e-10


def test_flat_alternative_display_does_not_vanish(flat_af):
    # the literal volume-radius display misses a factor 3^(1/3): on flat space
    # it equals (3^(-1/3) - 1) * R instead of zero; it is reported, never merged
    alt = evaluate_mass_curve(flat_af, FLAT_RADII).m_cv_alt
    expected = (3.0 ** (-1.0 / 3.0) - 1.0) * np.asarray(FLAT_RADII)
    assert np.allclose(alt, expected, rtol=1e-10)
    assert np.min(np.abs(alt)) > 0.1


def test_flat_extrapolation_is_zero(flat_af):
    curve = evaluate_mass_curve(flat_af, FLAT_RADII)
    ext = extrapolate_mass(curve)
    assert abs(ext.m_iso) <= 1e-10
    assert abs(ext.m_cv) <= 1e-10


# -- Schwarzschild ---------------------------------------------------------------------


def test_schwarzschild_masses_recover_total_mass(schw_af):
    radii = tuple(np.geomspace(20.0, 1000.0, 12))
    curve = evaluate_mass_curve(schw_af, radii)
    ext = extrapolate_mass(curve)
    assert ext.m_iso == pytest.approx(2.0, rel=0.02)
    assert ext.m_cv == pytest.approx(2.0, rel=0.02)


def test_schwarzschild_error_shrinks_with_radius(schw_af):
    iso = evaluate_mass_curve(schw_af, (50.0, 100.0, 200.0, 400.0)).m_iso
    errors = np.abs(np.asarray(iso) - 2.0)
    assert np.all(np.diff(errors) < 0)


def test_capacity_fn_injection(schw_af):
    # FEM capacity route gives the same quasi-local values as the closed form
    def fem_cap(R):
        cond = RadialCondenser(schw_af.profile, R)
        return capacity_estimate(cond).cap

    radii = (50.0, 100.0)
    closed = evaluate_mass_curve(schw_af, radii).m_cv
    fem = evaluate_mass_curve(schw_af, radii, capacity_fn=fem_cap).m_cv
    assert np.allclose(fem, closed, rtol=1e-3, atol=1e-3)


# -- scaling covariance -------------------------------------------------------------


def test_scaling_covariance():
    # f(s) -> lam * f(s / lam) maps sqrt(a + b s^2) to sqrt(lam^2 a + b s^2)
    base = AFProfile.check(hyperboloid_profile())
    radii = np.geomspace(10.0, 400.0, 6)
    curve = evaluate_mass_curve(base, tuple(radii))
    for lam in (2.0, 5.0):
        scaled = AFProfile.check(hyperboloid_profile(a=lam * lam, b=1.0), s_af=20.0 * lam)
        curve_s = evaluate_mass_curve(scaled, tuple(lam * radii))
        assert np.allclose(curve_s.m_iso, lam * np.asarray(curve.m_iso), rtol=1e-9, atol=1e-11)
        assert np.allclose(curve_s.m_cv, lam * np.asarray(curve.m_cv), rtol=1e-9, atol=1e-11)


def test_scaling_covariance_schwarzschild():
    radii = np.geomspace(20.0, 500.0, 5)
    base = evaluate_mass_curve(AFProfile.check(schwarzschild_profile(1.0)), tuple(radii))
    for lam in (2.0, 5.0):
        scaled = evaluate_mass_curve(
            AFProfile.check(schwarzschild_profile(lam)), tuple(lam * radii)
        )
        assert np.allclose(scaled.m_iso, lam * np.asarray(base.m_iso), rtol=1e-9)
        assert np.allclose(scaled.m_cv, lam * np.asarray(base.m_cv), rtol=1e-9)


# -- the two displays stay separate ----------------------------------------------------


def test_displays_reported_independently(schw_af):
    curve = evaluate_mass_curve(schw_af, tuple(np.geomspace(20.0, 200.0, 5)))
    diff = np.asarray(curve.m_cv) - np.asarray(curve.m_cv_alt)
    assert np.all(np.abs(diff) > 1.0)  # genuinely different quantities
    text = mass_csv(curve)
    header = [line for line in text.split("\n") if not line.startswith("#")][0]
    assert header == "R,A,V,cap,m_iso,m_cv,m_cv_alt"


# -- guards ---------------------------------------------------------------------------


def test_extrapolation_preconditions(flat_af):
    curve = evaluate_mass_curve(flat_af, (1.0, 2.0, 4.0))
    with pytest.raises(PreconditionError):
        extrapolate_mass(curve)
    narrow = evaluate_mass_curve(flat_af, (1.0, 2.0, 3.0, 4.0))
    with pytest.raises(PreconditionError):
        extrapolate_mass(narrow)
    wide = evaluate_mass_curve(flat_af, (1.0, 2.0, 5.0, 10.0))
    with pytest.raises(PreconditionError, match="tail_points=5 exceeds the number of radii, 4"):
        extrapolate_mass(wide, tail_points=5)
    # a value + c/R fit through 1 or 2 points leaves no residual to estimate its error by
    for tail_points in (1, 2):
        with pytest.raises(PreconditionError, match=f"tail_points={tail_points} is below 3"):
            extrapolate_mass(wide, tail_points=tail_points)


def test_non_convergent_tail_rejected(flat_af):
    # feed the alternative display through the extrapolator by renaming: the
    # linearly divergent curve must be flagged
    curve = evaluate_mass_curve(flat_af, FLAT_RADII)
    hacked = type(curve)(
        radii=curve.radii,
        A=curve.A,
        V=curve.V,
        cap=curve.cap,
        m_iso=curve.m_cv_alt,
        m_cv=curve.m_cv,
        m_cv_alt=curve.m_cv_alt,
    )
    with pytest.raises(NoLimitError):
        extrapolate_mass(hacked)


def test_radii_must_increase(flat_af):
    with pytest.raises(DomainError):
        evaluate_mass_curve(flat_af, (2.0, 1.0, 3.0))


def test_repeated_radii_are_refused_by_the_tail_fit(schw_af):
    # with two distinct abscissae the value + c/R fit leaves no residual to estimate its error by
    curve = evaluate_mass_curve(schw_af, (10.0, 20.0, 1000.0, 1000.0, 1000.0))
    with pytest.raises(PreconditionError, match="mass extrapolation needs distinct radii"):
        extrapolate_mass(curve)


@pytest.mark.parametrize("profile", [schwarzschild_profile(1.0), hyperboloid_profile(3, 2.0, 1.0)])
@pytest.mark.parametrize("count", [4, 12])
def test_mass_curve_evaluates_f_once(monkeypatch, profile, count):
    af = AFProfile.check(profile)
    calls = []
    original = WarpProfile.f
    monkeypatch.setattr(WarpProfile, "f", lambda self, s: calls.append(s) or original(self, s))
    curve = evaluate_mass_curve(af, tuple(np.geomspace(10.0, 1000.0, count)))
    assert len(calls) == 1 and len(curve.rows()) == count


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["euclidean", "schwarzschild", "sqrt_quadratic"]),
    mass=st.floats(0.1, 3.0),
    start=st.floats(7.0, 50.0),
    growth=st.lists(st.floats(1.01, 3.0), min_size=1, max_size=5),
    scale_cap=st.booleans(),
)
def test_mass_formulas_match_separate_oracles(kind, mass, start, growth, scale_cap):
    # `mass` is the Schwarzschild mass, or the sqrt_quadratic profile's a
    profile = {"euclidean": euclidean_profile(3), "schwarzschild": schwarzschild_profile(mass),
               "sqrt_quadratic": hyperboloid_profile(3, mass, 1.0)}[kind]
    af = AFProfile.check(profile)
    radii = list(start * max(mass, 1.0) * np.cumprod([1.0] + growth))
    # an injected capacity route must be used as given; None takes the default
    fn = (lambda R: 0.5 * R) if scale_cap else None
    got, want = evaluate_mass_curve(af, radii, capacity_fn=fn), separate_mass_curve(af, radii, fn)
    for column in (f.name for f in fields(MassCurve)):
        assert np.asarray(getattr(got, column)).tobytes() == np.asarray(getattr(want, column)).tobytes(), column
