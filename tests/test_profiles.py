import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

from varcap.errors import DomainError, ProfileError
from varcap.geometry import Dimension
from varcap.profiles import (
    ConstantSegment,
    PowerSegment,
    SchwarzschildSegment,
    SplineSegment,
    SqrtQuadraticSegment,
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


def test_cylinder_transition_works_in_floats_and_refuses_a_collapsed_bridge():
    # an int past int64, such as 2**64, would make numpy's linspace object-dtype;
    # past 2**47 the 33 bridge samples no longer increase, and from 2**53 on i + 1 == i
    big = cylinder_transition_profile(2**40)
    assert big.to_doc() == cylinder_transition_profile(2.0**40).to_doc()
    for i in (2**48, 2**60, 2**64):
        with pytest.raises(DomainError, match="no room in floats"):
            cylinder_transition_profile(i)


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


_DECADE = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None)
@given(M=_DECADE, a_excess=st.one_of(st.just(0.0), st.floats(-12.0, 10.0).map(lambda e: 10.0**e)),
       gap=st.floats(-2.0, 92.0).map(lambda e: 10.0**e))
@example(M=1.0, a_excess=0.0, gap=1e92)  # from the horizon out to 1e90
def test_schwarzschild_volume_closed_form_matches_the_quadrature(M, a_excess, gap):
    # b at least 1% past a: nearer, the quadrature's x = sqrt(R - 2M) keeps too few digits of b - a
    seg = SchwarzschildSegment(2.0 * M, INF, M)
    a = 2.0 * M * (1.0 + a_excess)
    b = min(a * (1.0 + gap), 1e90)
    assume(b > a)
    value, err = seg.integral(a, b, 2)
    quad, _ = seg._subst_quad(a, b, 2.0)
    assert err == 0.0 and value == pytest.approx(quad, rel=1e-13)


# the largest float whose cube is finite: the volume's last radius before the float range runs out
_LAST_CUBABLE = float.fromhex("0x1.428a2f98d728ap+341")


@pytest.mark.parametrize("M", [1.0, 1e50])
def test_schwarzschild_volume_leaves_the_float_range_where_the_quadrature_did(M):
    assert _LAST_CUBABLE**3 < INF
    past = math.nextafter(_LAST_CUBABLE, INF)
    seg = SchwarzschildSegment(2.0 * M, INF, M)
    assert seg.integral(2.0 * M, _LAST_CUBABLE, 2)[0] == pytest.approx(
        seg._subst_quad(2.0 * M, _LAST_CUBABLE, 2.0)[0], rel=1e-13)
    with pytest.raises(OverflowError):
        seg._subst_quad(2.0 * M, past, 2.0)
    prof = schwarzschild_profile(M)
    assert prof.volume_between(2.0 * M, _LAST_CUBABLE)[0] < INF
    with pytest.raises(DomainError, match="exceeds the float range"):
        prof.volume_between(2.0 * M, past)


@pytest.mark.parametrize("i", [2**17, 2**20])
def test_spline_integrals_far_from_the_origin_match_the_bridge_moved_to_2_16(i):
    # the bridge's table at i is the same shape wherever it lies; moved by exactly 2**16 - i it must
    # integrate to the same values, and from i = 2**17 on QUADPACK used to warn of roundoff (an error here)
    profile = cylinder_transition_profile(i)
    bridge = profile.segments[1]
    moved = SplineSegment(bridge.x - i + 2**16, bridge.y)
    resistance, err = profile.resistance_between(i, i + 1)
    assert resistance == pytest.approx(moved.integral(2**16, 2**16 + 1, -2)[0], rel=1e-12)
    assert err <= 1e-12 * resistance
    volume, _ = profile.volume_between(i + 0.25, i + 1)
    assert volume == pytest.approx(moved.integral(2**16 + 0.25, 2**16 + 1, 2)[0], rel=1e-12)


_PARAM = st.floats(0.2, 5.0)


@st.composite
def segment_ranges(draw):
    """A segment of some kind and a range [a, b] inside it; b may be inf where the segment reaches it."""
    kind = draw(st.sampled_from(["power", "power below 0", "constant", "spline", "sqrt_quadratic",
                                 "schwarzschild"]))
    gap = draw(st.floats(0.05, 5.0))
    b_inf = draw(st.booleans())
    if kind == "power":
        segment = PowerSegment(0.0, INF, draw(_PARAM), draw(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])))
        a = draw(st.just(0.0) | st.floats(0.05, 5.0))
    elif kind == "power below 0":  # an integer p lets a piece reach below 0; an even one keeps f > 0
        segment = PowerSegment(-6.0, -0.5, draw(_PARAM), draw(st.sampled_from([0.0, 2.0, 4.0])))
        a, gap, b_inf = draw(st.floats(-6.0, -1.0)), draw(st.floats(0.05, 0.5)), False
    elif kind == "constant":
        segment = ConstantSegment(0.0, INF, draw(_PARAM))
        a = draw(st.floats(0.0, 5.0))
    elif kind == "spline":
        x = np.cumsum([draw(st.floats(-5.0, 5.0)), *draw(st.lists(st.floats(0.1, 2.0), min_size=1, max_size=8))])
        segment = SplineSegment(x, draw(st.lists(_PARAM, min_size=x.size, max_size=x.size)), dydx=[0.0] * x.size)
        a, b_inf = draw(st.floats(x[0], x[-1])), False
        gap = min(gap, x[-1] - a)
    elif kind == "sqrt_quadratic":
        segment = SqrtQuadraticSegment(-INF, INF, draw(_PARAM), draw(_PARAM))
        a = draw(st.floats(-5.0, 5.0))
    else:
        M = draw(st.floats(0.2, 3.0))
        segment = SchwarzschildSegment(2.0 * M, INF, M)
        a = 2.0 * M * (1.0 + draw(st.just(0.0) | st.floats(0.01, 5.0)))
    return segment, a, INF if b_inf else a + gap


@settings(max_examples=300, deadline=None)
@given(case=segment_ranges(), m=st.sampled_from([2, 3, 4]), volume=st.booleans())
def test_integral_of_q_f_to_the_power_matches_quadpack(case, m, volume):
    # the resistance (power 1 - m) and the volume (power m - 1) of every kind against scipy's own
    # QUADPACK integral of lapse * f**power, taken over the range in one go (a spline's knots as breakpoints)
    segment, a, b = case
    assume(b > a)
    power = m - 1 if volume else 1 - m
    value, err = segment.integral(a, b, power)
    assume(value < INF)
    knots = [] if b == INF else [k for k in getattr(segment, "x", []) if a < k < b]
    oracle, _ = integrate.quad(lambda s: float(segment.lapse(s) * segment.f(s) ** power), a, b,
                               epsabs=0.0, epsrel=1e-10, limit=200, **({"points": knots} if knots else {}))
    assert value == pytest.approx(oracle, rel=1e-9)
    assert 0.0 <= err <= 1e-9 * value


@pytest.mark.parametrize("profile, split", [
    (schwarzschild_profile(1.5), lambda: [SchwarzschildSegment(3.0, 7.0, 1.5), SchwarzschildSegment(7.0, INF, 1.5)]),
    (euclidean_profile(4), lambda: [PowerSegment(0.0, 7.0, 1.0, 1.0), PowerSegment(7.0, INF, 1.0, 1.0)]),
    (hyperboloid_profile(3, 2.0, 0.5), lambda: [SqrtQuadraticSegment(0.0, 7.0, 2.0, 0.5),
                                                SqrtQuadraticSegment(7.0, INF, 2.0, 0.5)]),
], ids=["schwarzschild", "power", "sqrt_quadratic"])
def test_one_segment_profile_evaluates_as_its_two_segment_twin(profile, split):
    # a one-segment profile is evaluated without the segment search; its values keep every bit
    twin = WarpProfile(profile.dim, split(), pole_at_origin=profile.pole_at_origin)
    s = np.random.default_rng(5).uniform(profile.s_min, 20.0, 64)
    s[0] = profile.s_min + 1e-3
    for name in ("f", "lapse", "element_weight", "arclength_derivative"):
        one, two = getattr(profile, name), getattr(twin, name)
        values = one(s)
        assert values is not s and np.array_equal(values, two(s)), name
        assert np.array_equal(one(s.reshape(8, 8)), values.reshape(8, 8)), name
        assert type(one(float(s[3]))) is float and one(float(s[3])) == two(float(s[3])), name


_PER_SEGMENT = {
    "f": lambda seg, x, m: seg.f(x),
    "lapse": lambda seg, x, m: seg.lapse(x),
    "element_weight": lambda seg, x, m: seg.element_weight(x, m),
    "arclength_derivative": lambda seg, x, m: seg.f_coordinate_derivative(x) / seg.lapse(x),
}


@pytest.mark.parametrize("profile", [cylinder_transition_profile(4.0), capped_even_profile(2.0)],
                         ids=["cylinder", "capped_neck"])
def test_evaluation_matches_each_segment_alone_whichever_segments_the_points_miss(profile):
    # points in every subset of the segments, the empty one included, shuffled together; a segment's
    # own lower end belongs to it
    rng = np.random.default_rng(11)
    n = len(profile.segments)
    for chosen in itertools.chain.from_iterable(itertools.combinations(range(n), r) for r in range(n + 1)):
        parts = []
        for k in chosen:
            seg = profile.segments[k]
            x = np.sort(rng.uniform(seg.lo, min(seg.hi, seg.lo + 10.0), 6))
            if k:
                x[0] = seg.lo
            parts.append(x)
        s = np.concatenate(parts) if parts else np.empty(0)
        order = rng.permutation(s.size)
        for name, per_segment in _PER_SEGMENT.items():
            values = np.empty_like(s)
            values[order] = getattr(profile, name)(s[order])
            expected = [per_segment(profile.segments[k], x, profile.m) for k, x in zip(chosen, parts)]
            assert np.array_equal(values, np.concatenate(expected) if expected else s), (name, chosen)


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
