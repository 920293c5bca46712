import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

from varcap.errors import DomainError, ProfileError
from varcap.geometry import Dimension
from varcap.profiles import (
    ConstantSegment,
    PowerSegment,
    SplineSegment,
    WarpProfile,
    capped_even_profile,
    cylinder_transition_profile,
    euclidean_profile,
    hyperboloid_profile,
    schwarzschild_profile,
)

INF = math.inf


def test_euclidean_profile_values():
    prof = euclidean_profile(3)
    s = np.linspace(0.1, 50.0, 40)
    assert np.allclose(prof.f(s), s)
    assert prof.pole_at_origin
    assert prof.is_unbounded


def test_junction_continuity_enforced():
    segs = [PowerSegment(0.0, 1.0, 1.0, 1.0), ConstantSegment(1.0, INF, 2.0)]
    with pytest.raises(ProfileError):
        WarpProfile(Dimension(3), segs, pole_at_origin=True)


def test_gap_between_segments_rejected():
    segs = [PowerSegment(0.0, 1.0, 1.0, 1.0), ConstantSegment(1.5, INF, 1.0)]
    with pytest.raises(ProfileError):
        WarpProfile(Dimension(3), segs, pole_at_origin=True)


def test_pole_flag_must_match_value():
    with pytest.raises(ProfileError):
        WarpProfile(Dimension(3), [PowerSegment(0.0, INF, 1.0, 1.0)], pole_at_origin=False)
    with pytest.raises(ProfileError):
        WarpProfile(Dimension(3), [ConstantSegment(0.0, INF, 1.0)], pole_at_origin=True)


def test_cylinder_transition_shape():
    prof = cylinder_transition_profile(4, m=3)
    assert prof.f(2.0) == pytest.approx(2.0)
    assert prof.f(4.0) == pytest.approx(4.0, rel=1e-12)
    assert prof.f(5.0) == pytest.approx(1.0, rel=1e-12)
    assert prof.f(100.0) == pytest.approx(1.0)
    bridge = np.linspace(4.0, 5.0, 101)
    vals = prof.f(bridge)
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) <= 1e-12)  # monotone neck


def test_capped_even_profile_matches_base_past_junction():
    for i in (1, 2, 5):
        capped = capped_even_profile(i)
        s = np.linspace(-i, 30.0, 60)
        assert np.allclose(capped.f(s), np.sqrt(1 + s * s), rtol=1e-12)
        assert capped.f(capped.s_min) == pytest.approx(0.0, abs=1e-12)
        interior = np.linspace(capped.s_min + 1e-6, -i, 50)
        assert np.all(capped.f(interior) > 0)


def test_sqrt_quadratic_closed_form_integrals():
    prof = hyperboloid_profile()
    val, _ = prof.resistance_between(0.0, 7.0)
    assert val == pytest.approx(math.atan(7.0), rel=1e-13)
    vol, _ = prof.volume_between(0.0, 2.0)
    quad, _ = integrate.quad(lambda s: 1 + s * s, 0.0, 2.0)
    assert vol == pytest.approx(quad, rel=1e-13)


def test_schwarzschild_volume_against_high_precision_oracle():
    # tanh-sinh quadrature at 30 digits (mpmath) for integral of
    # 4 pi R^2 (1-2/R)^(-1/2) over [2, 10], mass 1:
    oracle_V = 5054.9087020011138677 / (4 * math.pi)
    vol, err = schwarzschild_profile(1.0).volume_between(2.0, 10.0)
    assert vol == pytest.approx(oracle_V, rel=1e-12)


def test_schwarzschild_resistance_closed_form():
    prof = schwarzschild_profile(1.0)
    val, _ = prof.resistance_between(2.0, INF)
    assert val == pytest.approx(1.0, rel=1e-14)  # (1/M)(1 - 0) with M=1
    val, _ = prof.resistance_between(4.0, INF)
    assert val == pytest.approx(1.0 - math.sqrt(0.5), rel=1e-14)


def test_serialization_round_trip():
    for prof in (
        euclidean_profile(4),
        cylinder_transition_profile(3),
        hyperboloid_profile(),
        schwarzschild_profile(2.0),
        capped_even_profile(2),
    ):
        clone = WarpProfile.from_doc(json.loads(json.dumps(prof.to_doc())))
        assert clone.m == prof.m
        assert clone.pole_at_origin == prof.pole_at_origin
        hi = 50.0 if prof.s_max == INF else prof.s_max
        s = np.linspace(prof.s_min, hi, 97)
        assert np.allclose(clone.f(s), prof.f(s), rtol=1e-13, atol=1e-13)


def test_from_doc_rejects_unknown_keys():
    doc = euclidean_profile(3).to_doc()
    doc["extra"] = 1
    with pytest.raises(ProfileError, match="unknown profile keys"):
        WarpProfile.from_doc(doc)
    doc = euclidean_profile(3).to_doc()
    doc["pieces"][0]["kind"] = "parabola"
    with pytest.raises(ProfileError, match="unknown kind"):
        WarpProfile.from_doc(doc)


def test_spline_segment_requires_increasing_samples():
    with pytest.raises(ProfileError):
        SplineSegment([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])


@pytest.mark.parametrize("x, y, dydx, message", [
    ([0.0, 1.0, 2.0], [1.0, 2.0], None, "spline y must hold one number per x"),
    ([0.0, 1.0, 2.0], [[1.0], [2.0], [3.0]], None, "spline y must hold one number per x"),
    ([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], [0.0, 1.0], "spline dydx must hold one number per x"),
    ([0.0, 1.0, 2.0], [1.0, math.nan, 3.0], None, "spline y must hold finite numbers"),
    ([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], [0.0, INF, 1.0], "spline dydx must hold finite numbers"),
    ([0.0, 1.0, INF], [1.0, 2.0, 3.0], None, "strictly increasing finite x"),
])
def test_spline_segment_checks_its_tables(x, y, dydx, message):
    with pytest.raises(ProfileError, match=message):
        SplineSegment(x, y, dydx)


# -- the in-house PCHIP against scipy's, bit for bit ------------------------------

_NUMBERS = st.floats(-5.0, 5.0) | st.integers(-3, 3)


@st.composite
def spline_tables(draw):
    """Sample tables of 2-40 points: integer and float entries, flat runs,
    sign changes and repeated values, with or without a derivative table."""
    n = draw(st.integers(2, 40))
    start = draw(st.floats(-10.0, 10.0) | st.integers(-10, 10))
    gaps = draw(st.lists(st.floats(0.01, 3.0) | st.integers(1, 3), min_size=n - 1, max_size=n - 1))
    x = np.cumsum([float(start), *gaps])
    y = draw(st.lists(_NUMBERS, min_size=n, max_size=n))
    if draw(st.booleans()):  # monotone, like a profile's neck
        y = np.cumsum(np.abs(y))
    dydx = draw(st.none() | st.lists(_NUMBERS, min_size=n, max_size=n))
    return x, np.asarray(y, dtype=float), dydx


def _points(x):
    point = (st.sampled_from(list(x)) | st.floats(x[0] - 2.0, x[-1] + 2.0)
             | st.sampled_from([x[0], x[-1], x[0] - 1.0, x[-1] + 1.0, math.nan]))
    return point | st.lists(point, max_size=30).map(np.array) | point.map(np.float64) | point.map(np.asarray)


def _bitwise_equal(ours, theirs):
    return (type(ours) is type(theirs) and ours.dtype == theirs.dtype and ours.shape == theirs.shape
            and np.array_equal(ours, theirs, equal_nan=True)
            and np.array_equal(np.signbit(ours), np.signbit(theirs)))


@settings(max_examples=300, deadline=None)
@given(table=spline_tables(), data=st.data())
def test_spline_matches_scipy_bit_for_bit(table, data):
    x, y, dydx = table
    segment = SplineSegment(x, y, dydx)
    with np.errstate(over="ignore"):  # scipy's slopes divide by chords that overflow; 1/inf is the right limit
        oracle = (PchipInterpolator(x, y, extrapolate=False) if dydx is None
                  else CubicHermiteSpline(x, y, dydx, extrapolate=False))
    derivative = oracle.derivative()
    for _ in range(3):
        s = data.draw(_points(x))
        clipped = np.clip(np.asarray(s, dtype=float), x[0], x[-1])
        assert _bitwise_equal(segment.f(s), oracle(clipped))
        assert _bitwise_equal(segment.f_coordinate_derivative(s), derivative(clipped))


@pytest.mark.parametrize("y, dydx", [([-0.0, -1.0], [-0.5, -1.8]), ([0.0, -1.0], [-0.0, -2.5])])
def test_spline_turns_a_negative_zero_constant_term_positive_like_scipy(y, dydx):
    # every term of the power sum at s = 0 is -0.0 here; scipy's sum starts from 0.0 + (constant term)
    segment = SplineSegment([0.0, 1.0], y, dydx)
    oracle = CubicHermiteSpline([0.0, 1.0], y, dydx, extrapolate=False)
    assert _bitwise_equal(segment.f(0.0), oracle(0.0))
    assert _bitwise_equal(segment.f_coordinate_derivative(0.0), oracle.derivative()(0.0))


def test_evaluation_outside_domain_rejected():
    prof = schwarzschild_profile(1.0)
    with pytest.raises(DomainError):
        prof.f(1.0)
