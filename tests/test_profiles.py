import json
import math

import numpy as np
import pytest
from scipy import integrate

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


def test_evaluation_outside_domain_rejected():
    prof = schwarzschild_profile(1.0)
    with pytest.raises(DomainError):
        prof.f(1.0)
