import ast
import contextlib
import inspect
import json
import math

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    contract, ex4_limit_condenser, fresh_tree_extension_at, joined_two_sheet_condenser, plane_orbits,
    radial_label_filter, two_sheet_space, unit_disk,
)
from varcap import mms, radial_fem, sequences
from varcap.cli import main
from varcap.errors import DomainError, PreconditionError
from varcap.geometry import Dimension
from varcap.mms import Disk, GraphCondenser, build_planar_sheet, graph_capacity, union_spaces
from varcap.profiles import cylinder_transition_profile, hyperboloid_profile
from varcap.radial_fem import RadialGrid, capacity_estimate, solve_radial
from varcap.regions import DefiningFunction, region_measure
from varcap.sequences import (
    CONSISTENT_EQUAL,
    CONSISTENT_STRICT_JUMP,
    VIOLATED,
    check_semicontinuity,
    experiment_csv,
    experiment_csv_from_payload,
    fit_power_law,
    limit_plane_condenser,
    run_example1,
    run_example2,
    run_example3,
    run_example4,
)
from varcap.warped import RadialCondenser, radial_capacity


# -- verdicts -----------------------------------------------------------------


def test_verdict_classifications():
    assert check_semicontinuity([0, 0, 0], 1.0, 1e-6).classification == CONSISTENT_STRICT_JUMP
    assert check_semicontinuity([1, 1, 1], 1.0, 1e-6).classification == CONSISTENT_EQUAL
    assert check_semicontinuity([1, 1, 1], 0.0, 1e-6).classification == VIOLATED


def test_verdict_uses_tail_half_max():
    v = check_semicontinuity([5.0, 0.2, 0.1, 0.3], 1.0, 1e-6)
    assert v.limsup_estimate == pytest.approx(0.3)  # early transient ignored
    assert v.classification == CONSISTENT_STRICT_JUMP


def test_verdict_needs_three_values():
    with pytest.raises(PreconditionError):
        check_semicontinuity([1.0, 2.0], 0.0)


@pytest.mark.parametrize("caps, limit, tol", [
    ([1.0, math.nan, math.nan], 0.5, 1e-6),
    ([1.0, 1.0, math.inf], 0.5, 1e-6),
    ([1.0, 1.0, 1.0], math.nan, 1e-6),
    ([1.0, 1.0, 1.0], -math.inf, 1e-6),
    ([1.0, 1.0, 1.0], 0.5, math.nan),
], ids=["nan capacity", "infinite capacity", "nan limit", "infinite limit", "nan tolerance"])
def test_verdict_refuses_non_finite_values(caps, limit, tol):
    with pytest.raises(DomainError, match="must be finite"):
        check_semicontinuity(caps, limit, tol)


@pytest.mark.parametrize("tol", [-0.5, -1e-300, -math.inf])
def test_verdict_refuses_a_negative_tolerance(tol):
    # a constant sequence equal to its limit would otherwise read `violated`
    with pytest.raises(DomainError, match="tolerance must be"):
        check_semicontinuity([1.0, 1.0, 1.0], 1.0, tol)


def test_verdict_accepts_a_zero_tolerance():
    assert check_semicontinuity([1.0, 1.0, 1.0], 1.0, 0.0).classification == CONSISTENT_EQUAL


# -- ex1 and ex2 take their capacities from the end resistance ----------------------


@contextlib.contextmanager
def _no_fem():
    """Make any FEM estimate or grid build fail inside the block."""
    def refuse(*args, **kwargs):
        raise AssertionError("the FEM ran")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(radial_fem, "capacity_estimate", refuse)
        patch.setattr(RadialGrid, "geometric", refuse)
        yield


def test_sequences_imports_nothing_from_the_fem():
    imports = [node.module for node in ast.walk(ast.parse(inspect.getsource(sequences)))
               if isinstance(node, ast.ImportFrom)]
    assert "radial_fem" not in imports


def test_ex1_and_ex2_run_at_their_defaults_without_the_fem():
    with _no_fem():
        ex1, ex2 = run_example1(), run_example2()
    assert ex1.capacities == (0.0, 0.0, 0.0) and ex1.limit_capacity == 1.0
    assert ex2.limit_capacity == 2.0 * ex2.capacities[0] and ex2.metadata["ratio_to_limit"] == (0.5, 0.5, 0.5)
    assert ex1.metadata["provenance"] == ex2.metadata["provenance"] == "closed-form"


_DECADES = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)


@settings(max_examples=40, deadline=None)
@given(i_list=st.lists(st.integers(2, 10**6), min_size=3, max_size=4), r_share=st.floats(1e-3, 0.999),
       m=st.integers(2, 6))
@example(i_list=[2, 4, 98], r_share=0.05, m=3)
def test_ex1_capacities_are_each_members_closed_form(i_list, r_share, m):
    # every member ends in the unit cylinder, whose resistance density 1 is not integrable
    r = r_share * min(i_list)
    with _no_fem():
        exp = run_example1(i_list=i_list, r=r, m=m)
    assert exp.capacities == (0.0,) * len(i_list)
    for i in i_list:
        assert radial_capacity(RadialCondenser(cylinder_transition_profile(i, m=m), r)) == 0.0


@settings(max_examples=60, deadline=None)
@given(a=_DECADES, b=_DECADES, m=st.integers(3, 8), i_list=st.lists(st.integers(1, 64), min_size=3, max_size=4))
@example(a=1e-6, b=1e3, m=4, i_list=[1, 2, 4])  # a neck 3e-5 wide, which the FEM read as capacity 0.0
def test_ex2_capacities_are_the_one_ended_closed_form_and_half_the_limit(a, b, m, i_list):
    with _no_fem():
        exp = run_example2(i_list=i_list, a=a, b=b, m=m)
    one_end = radial_capacity(RadialCondenser(hyperboloid_profile(m=m, a=a, b=b), 0.0))
    assert exp.capacities == (one_end,) * len(i_list)
    assert exp.limit_capacity == 2.0 * one_end and exp.metadata["ratio_to_limit"] == (0.5,) * len(i_list)


def test_ex2_narrow_neck_carries_half_its_limit():
    exp = run_example2(a=1e-6, b=1e3, m=4)
    assert exp.capacities == (1.58113883008419e-05,) * 3 and exp.limit_capacity == 3.16227766016838e-05


@pytest.mark.parametrize("a, b", [(1e-300, 1e300), (1e300, 1e-300)])
def test_ex2_neck_whose_width_leaves_the_float_range_runs(a, b):
    # sqrt(b/a) overflowed to inf or underflowed to 0 and the end resistance read NaN
    exp = run_example2(a=a, b=b)
    assert exp.capacities == (2 / math.pi,) * 3 and exp.metadata["end_resistance"] == math.pi / 2


@pytest.mark.parametrize("runner, args, s0", [
    (run_example2, {}, 0.0),
    (run_example1, {"i_list": (2, 4, 8), "r": 1.0}, 1.0),
    (run_example1, {"i_list": (8, 16, 32), "r": 0.1}, 0.1),
], ids=["ex2 neck", "ex1 r=1", "ex1 r=0.1"])
def test_fem_lands_within_its_estimate_of_the_runners_closed_forms(runner, args, s0):
    # the cross-route check the runners no longer make: the first family member's FEM estimate
    exp = runner(**args)
    i = exp.i_list[0]
    profile = hyperboloid_profile() if runner is run_example2 else cylinder_transition_profile(i)
    est = capacity_estimate(RadialCondenser(profile, s0))
    assert abs(est.cap - exp.capacities[0]) <= est.error_estimate


# -- ex1 ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ex1():
    return run_example1(i_list=(2, 4, 8), r=1.0)


def test_ex1_capacities_die_while_limit_stays(ex1):
    assert all(c <= 1e-2 for c in ex1.capacities)
    assert ex1.limit_capacity == pytest.approx(1.0, rel=1e-12)
    assert ex1.verdict.classification == CONSISTENT_STRICT_JUMP


def test_ex1_ramp_energy_matches_closed_form(ex1):
    omega = 4 * math.pi
    assert ex1.metadata["ramp_energy"] == pytest.approx(omega / ex1.metadata["ramp_L"], rel=1e-10)
    assert ex1.metadata["ramp_on_cylinder"] is True


def test_ex1_rejects_ball_outside_euclidean_region():
    with pytest.raises(DomainError):
        run_example1(i_list=(2, 4), r=3.0)


@pytest.mark.parametrize("i_list", [(2, 4, 98), (2, 4, 99), (2, 4, 20000)])
def test_ex1_cylinder_past_any_truncation_radius_has_capacity_zero(i_list):
    # the FEM's default radii {1e2, 1e3, 1e4} stopped short of the cylinder past i = 98,
    # and for i = 20000 extrapolated the Euclidean ball, a capacity of 0.99999994
    with _no_fem():
        exp = run_example1(i_list=i_list)
    assert exp.capacities == (0.0, 0.0, 0.0) and exp.verdict.classification == CONSISTENT_STRICT_JUMP


def _refusal(check, i):
    try:
        check(i)
    except DomainError:
        return True
    return False


_COLLAPSE = 2**48  # from here on the 33 bridge knots of [i, i+1] no longer increase in floats


@settings(max_examples=200, deadline=None)
@given(i=st.one_of(
    st.integers(-3, 40),
    st.floats(-4.0, 1e6, allow_nan=False),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(_COLLAPSE - 2**12, _COLLAPSE + 2**12),
    st.integers(2**40, 2**70),
))
@example(i=1)
@example(i=1.0000000000000002)
@example(i=_COLLAPSE - 1)
@example(i=_COLLAPSE)
@example(i=math.inf)
@example(i=math.nan)
def test_ex1_bridge_check_refuses_exactly_the_members_that_cannot_be_built(i):
    refused = _refusal(cylinder_transition_profile, i)
    assert _refusal(lambda j: sequences._check_bridges([j]), i) == refused
    if isinstance(i, int):  # a float just below 2**48 with a fraction has knots past it
        assert refused == (not 1 < i < _COLLAPSE)


def test_experiment_ex1_builds_one_cylinder_member_a_call(monkeypatch, tmp_path):
    # the CLI rule and the runner check the bridges from their knots; only min(i)'s member is built, for the ramp
    built, build = [], sequences.cylinder_transition_profile

    def count(i, *args, **kwargs):
        built.append(i)
        return build(i, *args, **kwargs)

    monkeypatch.setattr(sequences, "cylinder_transition_profile", count)
    assert main(["experiment", "ex1", "--out", str(tmp_path / "ex1.csv")]) == 0
    assert built == [2]
    inp = tmp_path / "input.json"
    inp.write_text(json.dumps({"i_list": [5, 3, 7, 9]}))
    built.clear()
    assert main(["experiment", "ex1", "--input", str(inp), "--out", str(tmp_path / "ex1b.csv")]) == 0
    assert built == [3]


def test_ex1_estimate_decreases_with_larger_truncation():
    cond = RadialCondenser(cylinder_transition_profile(4), 1.0)
    caps = [
        solve_radial(cond, RadialGrid.geometric(1.0, L, 1.0 / 32)).cap_L
        for L in (200.0, 400.0)
    ]
    assert caps[1] < caps[0]


# -- ex2 ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ex2():
    return run_example2(i_list=(1, 2, 4))


def test_ex2_half_capacity(ex2):
    assert ex2.limit_capacity == pytest.approx(4 / math.pi, abs=1e-3)
    for cap in ex2.capacities:
        assert cap == pytest.approx(2 / math.pi, abs=1e-3)
    assert ex2.metadata["ratio_to_limit"] == (0.5, 0.5, 0.5)
    assert ex2.verdict.classification == CONSISTENT_STRICT_JUMP


def test_ex2_capacity_independent_of_cap_index(ex2):
    caps = ex2.capacities
    assert max(caps) - min(caps) <= 1e-12


def test_ex2_pole_side_carries_no_energy(ex2):
    assert all(e <= 1e-12 for e in ex2.metadata["pole_side_energies"])


def test_ex2_reports_every_capped_index_and_refuses_a_missing_one():
    # the capped side is constant, so a far cap leaves the capacity unchanged
    far = run_example2(i_list=(1, 2, 20000))
    assert far.capacities == (far.capacities[0],) * 3
    with pytest.raises(DomainError, match="cap index must be positive"):
        run_example2(i_list=(1, 0, 2))


# -- ex3 ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ex3():
    return run_example3(h=0.1, i_list=(2, 4, 8))


def test_ex3_zero_capacity_positive_limit(ex3):
    assert ex3.capacities == (0.0, 0.0, 0.0)
    assert ex3.limit_capacity > 0.5
    assert ex3.verdict.classification == CONSISTENT_STRICT_JUMP


def test_ex3_region_measures_exact_at_zero_threshold(ex3):
    for mu in ex3.measures:
        assert mu == ex3.limit_measure
    assert abs(ex3.limit_measure - math.pi) <= 2.0 * 0.1  # lattice disk count, O(h)


def test_ex3_region_measure_converges_linearly():
    # lattice-disk counts wobble (Gauss circle problem), so the O(h) claim is
    # a bounded err/h ratio rather than monotone decay
    for h in (0.1, 0.05, 0.025):
        exp = run_example3(h=h, i_list=(2, 3, 4))
        assert abs(exp.limit_measure - math.pi) <= 0.5 * h


def test_ex3_strip_capacities_decay_like_one_over_i():
    exp = run_example3(h=0.1, i_list=(2, 4, 8, 16), strip_conductance=0.2)
    assert all(c > 0 for c in exp.capacities)
    expo = fit_power_law(exp.i_list, exp.capacities)
    assert abs(expo - 1.0) <= 0.15
    assert exp.verdict.classification == CONSISTENT_STRICT_JUMP


# run_example3(h=0.1, strip_conductance=0.2), recorded when the capacities
# came from the series law; the joined two-sheet solves gave
# (0.013831585764887718, 0.007400273370695394, 0.0038344462596531194)
STRIP_EX3_CAPACITIES = (0.013831585764887713, 0.0074002733706953925, 0.0038344462596531194)


def test_ex3_strip_capacities_pinned():
    assert run_example3(h=0.1, strip_conductance=0.2).capacities == STRIP_EX3_CAPACITIES


@settings(max_examples=6, deadline=None)
@given(
    h=st.sampled_from([0.1, 0.05]),
    i_list=st.lists(st.integers(1, 64), min_size=3, max_size=3),
    s=st.floats(1e-3, 1e3),
    rim=st.floats(1.5, 4.0),
)
@example(h=0.05, i_list=[2, 4, 8], s=1.0, rim=4.0)
def test_ex3_strip_series_law_matches_the_joined_solves(h, i_list, s, rim):
    # the strip edge in series with the sheet's conductance from its foot to
    # the rim: the capacity of a solve of the joined two-sheet space
    exp = run_example3(h=h, i_list=i_list, rim_radius=rim, strip_conductance=s)
    for i, cap in zip(i_list, exp.capacities):
        joined = graph_capacity(joined_two_sheet_condenser(h, i, rim, s / i)).capacity
        assert cap == pytest.approx(joined, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("strip", [None, 0.2])
@pytest.mark.parametrize("i_list", [(2, 4, 8), (2, 4, 8, 16, 32)])
def test_ex3_solves_the_limit_and_at_most_one_point_source(monkeypatch, strip, i_list):
    conds = _runner_condensers(monkeypatch, run_example3, i_list=i_list, strip_conductance=strip)
    # the limit plane, then with a strip the one point source on the sheet
    assert len(conds) == (1 if strip is None else 2)
    assert all(cond.k_idx.size == 1 for cond in conds[1:])


def _no_lattice(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a lattice was built before the inputs were validated")

    monkeypatch.setattr(sequences, "build_planar_sheet", refuse)
    monkeypatch.setattr(sequences, "_plane_quotient", refuse)


@pytest.mark.parametrize("runner", [run_example3, run_example4])
@pytest.mark.parametrize("h", [0.0, -0.0, -0.05, -1e-300])
def test_planar_runners_reject_a_spacing_that_is_not_positive_before_building(monkeypatch, runner, h):
    _no_lattice(monkeypatch)
    with pytest.raises(DomainError, match="lattice spacing must be positive"):
        runner(h=h, i_list=(2, 4, 8))


@pytest.mark.parametrize("runner, h, rim_radius", [
    (run_example3, 1e-300, 4.0),  # bounds numpy refuses: "Maximum allowed size exceeded"
    (run_example4, 0.1, 1e12),  # a 72.8 TiB lattice
    (run_example3, 0.001, 4.0),  # 8,004^2 = 64 million nodes
    (run_example4, 0.0031, 4.0),  # 2,584^2 = 6.7 million nodes
    (run_example3, 0.1, 72.25),  # 1,450^2 nodes, one row and column past the largest plane admitted
], ids=["ex3 h=1e-300", "ex4 rim=1e12", "ex3 h=0.001", "ex4 h=0.0031", "ex3 rim=72.25"])
def test_planar_runners_refuse_a_lattice_past_the_node_budget_before_building(monkeypatch, runner, h, rim_radius):
    _no_lattice(monkeypatch)
    with pytest.raises(DomainError, match="more than the 2,097,152"):
        runner(h=h, i_list=(2, 4, 8), rim_radius=rim_radius)


def test_node_budget_admits_the_finest_ladder_rung():
    # the h = 0.00625 rung at rim 4 is a 1,284 x 1,284 sheet
    assert 2 * sequences._plane_cells(0.00625, 4.0) == 1284.0
    sequences._check_disk_plane(0.00625, 4.0)
    sequences._check_annulus_plane(0.00625, 4.0)
    # the largest plane admitted, 1,448 x 1,448, whose factored strip sheet peaked at 2,660 MB
    assert 2 * sequences._plane_cells(0.1, 72.2) == 1448.0
    sequences._check_disk_plane(0.1, 72.2)


@pytest.mark.parametrize("big", [2**60, 2**64, 2.0**53])
def test_ex1_refuses_an_index_past_float_resolution_before_any_solve(big):
    with _no_fem(), pytest.raises(DomainError, match="no room in floats"):
        run_example1(i_list=(2, 4, big))


def test_ex3_without_indices_still_raises_a_precondition_error():
    # no index, no threshold: the sheet's reach falls back to the unit disk
    with pytest.raises(PreconditionError, match="at least 3"):
        run_example3(h=0.1, i_list=())


@pytest.mark.parametrize("runner", [run_example3, run_example4])
def test_planar_runners_reject_coarse_lattice_before_building(monkeypatch, runner):
    _no_lattice(monkeypatch)
    with pytest.raises(DomainError, match="too coarse"):
        runner(h=0.3, i_list=(2, 3, 4), rim_radius=8.0)


def test_ex3_rejects_rim_too_close_before_building(monkeypatch):
    _no_lattice(monkeypatch)
    with pytest.raises(DomainError, match="disk"):
        run_example3(h=0.1, i_list=(2, 3, 4), rim_radius=1.2)
    with pytest.raises(DomainError, match="disk"):
        run_example3(h=0.05, i_list=(2, 3, 4), rim_radius=1.2)


@pytest.mark.parametrize("runner", [run_example3, run_example4])
@pytest.mark.parametrize("i_list", [(0, 2, 4), (2, -1, 4)])
def test_planar_runners_reject_index_below_one_before_building(monkeypatch, runner, i_list):
    _no_lattice(monkeypatch)
    with pytest.raises(DomainError, match=">= 1"):
        runner(h=0.1, i_list=i_list)


@pytest.mark.parametrize("alphas, message", [
    ((0.0, 0.0), "need one threshold per family index, got 2 for 3"),
    ((0.1, 0.1, 0.1, 5.0), "need one threshold per family index, got 4 for 3"),
], ids=["short", "long"])
def test_ex3_rejects_an_alpha_list_of_another_length_before_building(monkeypatch, alphas, message):
    _no_lattice(monkeypatch)
    with pytest.raises(DomainError, match=message):
        run_example3(h=0.1, i_list=(2, 4, 8), alphas=alphas)


def test_ex3_rejects_alpha_list_with_rule_before_building(monkeypatch):
    _no_lattice(monkeypatch)
    with pytest.raises(DomainError, match="at most one of an alpha list or a c/i rule"):
        run_example3(h=0.1, i_list=(2, 4, 8), alphas=(0.0, 0.0, 0.0), alpha_rule_c=1.0)


@pytest.mark.parametrize("thresholds, message", [
    ({"alphas": (0.0, -1.0, 0.0)}, "thresholds must be nonnegative"),
    ({"alpha_rule_c": -1.0}, "coefficient must be nonnegative"),
], ids=["negative alpha", "negative rule"])
def test_ex3_rejects_negative_thresholds_before_building(monkeypatch, thresholds, message):
    _no_lattice(monkeypatch)
    with pytest.raises(DomainError, match=message):
        run_example3(h=0.1, i_list=(2, 4, 8), **thresholds)


@pytest.mark.parametrize("thresholds, message", [
    ({"alphas": (0.0, math.nan, 0.0)}, "thresholds must be nonnegative and finite"),
    ({"alphas": (math.nan,) * 3}, "thresholds must be nonnegative and finite"),
    ({"alphas": (0.0, 0.0, math.inf)}, "thresholds must be nonnegative and finite"),
    ({"alpha_rule_c": math.nan}, "coefficient must be nonnegative and finite"),
    ({"alpha_rule_c": math.inf}, "coefficient must be nonnegative and finite"),
], ids=["nan alpha", "all nan alphas", "infinite alpha", "nan rule", "infinite rule"])
def test_ex3_rejects_non_finite_thresholds_before_building(monkeypatch, thresholds, message):
    _no_lattice(monkeypatch)
    with pytest.raises(DomainError, match=message):
        run_example3(h=0.1, i_list=(2, 4, 8), **thresholds)


@pytest.mark.parametrize("strip", [-0.2, 0.0, math.nan, math.inf])
def test_ex3_rejects_a_strip_that_is_not_finite_and_positive_before_building(monkeypatch, strip):
    _no_lattice(monkeypatch)
    with pytest.raises(DomainError, match="strip conductance must be finite and positive"):
        run_example3(h=0.1, i_list=(2, 4, 8), strip_conductance=strip)


@pytest.mark.parametrize("runner", [run_example3, run_example4])
@pytest.mark.parametrize("plane", [
    {"h": math.nan}, {"h": -math.inf}, {"rim_radius": math.nan}, {"rim_radius": math.inf},
], ids=["nan h", "infinite h", "nan rim", "infinite rim"])
def test_planar_runners_reject_non_finite_plane_before_building(monkeypatch, runner, plane):
    _no_lattice(monkeypatch)
    with pytest.raises(DomainError, match="must be finite"):
        runner(**{"h": 0.1, "i_list": (2, 4, 8), **plane})


def _assert_regions_cut_from_the_union_spaces(h, rim, i_list, alphas):
    # the region of family space i, cut from the union of the disk and the
    # whole sheet at height 1/i
    exp = run_example3(h=h, i_list=i_list, rim_radius=rim, alphas=alphas)
    limit = limit_plane_condenser(h, rim)
    defining = DefiningFunction.canonical_for(limit.space, limit.k_idx)
    assert exp.limit_measure == region_measure(limit.space, limit.k_idx)
    regions = exp.regions.labels()
    for i, alpha, region, measure in zip(i_list, alphas, regions, exp.measures):
        space = two_sheet_space(h, i, rim)
        mask = defining.extension_on(space, upto=alpha) <= alpha
        assert region == space.labels_at(mask)
        assert measure == region_measure(space, mask)
    assert any(label.startswith("S:") for label in regions[-1])


@settings(max_examples=8, deadline=None)
@given(h=st.sampled_from([0.1, 0.05]), rim=st.floats(2.0, 4.0), data=st.data())
def test_ex3_regions_equal_those_cut_from_the_union_spaces(h, rim, data):
    # the last threshold reaches the sheet, which lies at most 1/i + h from
    # K, or reaches past the rim, where the runner's sheet is the whole sheet
    i_list = data.draw(st.lists(st.integers(1, 32), min_size=3, max_size=5), label="i_list")
    alphas = [data.draw(st.floats(0.0, 3.0 / i), label=f"alpha at {i}") for i in i_list[:-1]]
    near, past_rim = st.floats(1.0 / i_list[-1] + h, 3.0 / i_list[-1] + h), st.floats(rim - 1.0, rim + 1.0)
    alphas.append(data.draw(near | past_rim, label="last alpha"))
    _assert_regions_cut_from_the_union_spaces(h, rim, i_list, alphas)


@pytest.mark.parametrize("kwargs, reaching", [
    ({}, 0), ({"alpha_rule_c": 0.5}, 0), ({"alpha_rule_c": 1.5}, 3), ({"alpha_rule_c": 3.0}, 3),
    ({"alphas": [0.0, 0.3, 0.1]}, 1),
], ids=["defaults", "c=0.5", "c=1.5", "c=3", "alphas"])
def test_ex3_builds_a_kd_tree_only_for_an_index_whose_threshold_reaches_the_sheet(monkeypatch, kwargs, reaching):
    # the sheet of family space i lies 1/i above K, so alpha_i reaches it only
    # at alpha_i >= 1/i: alpha_i = c/i with c > 1, or 0.3 >= 1/4 but not 0.1 < 1/8
    import scipy.spatial

    built = []

    class CountedTree(scipy.spatial.cKDTree):
        def __init__(self, *args, **kwargs):
            built.append(len(args[0]))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(scipy.spatial, "cKDTree", CountedTree)
    exp = run_example3(**kwargs)
    regions = exp.regions.labels()
    assert built == [sum(label.startswith("K:") for label in regions[0])] * reaching
    assert sum(any(label.startswith("S:") for label in region) for region in regions) == reaching
    monkeypatch.setattr(DefiningFunction, "extension_at", fresh_tree_extension_at)
    oracle = run_example3(**kwargs)
    assert (regions, exp.measures, exp.limit_measure) == (oracle.regions.labels(), oracle.measures,
                                                          oracle.limit_measure)


def test_ex3_formats_region_labels_only_for_the_payload(monkeypatch):
    # a library caller or a CSV report reads no label: the regions stay index arrays until `to_payload`
    formatted, format_labels = [], mms._LatticeLabels.format

    def counted(labels, idx=slice(None)):
        formatted.append(labels.prefix[idx].size)
        return format_labels(labels, idx)

    monkeypatch.setattr(mms._LatticeLabels, "format", counted)
    exp = run_example3(h=0.1, i_list=(2, 4, 8), alpha_rule_c=1.5)
    experiment_csv(exp)
    assert formatted == []
    assert all(idx.dtype.kind == "i" for idx in exp.regions.on_sheet)
    regions = exp.to_payload()["regions"]
    assert sum(formatted) == exp.regions.k_idx.size + sum(idx.size for idx in exp.regions.on_sheet)
    assert [len(region) for region in regions] == [exp.regions.k_idx.size + idx.size for idx in exp.regions.on_sheet]


@pytest.mark.parametrize("alphas", [(0.0, 0.3, 1.5), (0.0, 1.5, 1.5 + 1e-9), (4.0, 0.0, 0.25)])
def test_ex3_regions_at_thresholds_that_reach_the_rim(alphas):
    # 1 + alpha at or past the rim 2.5: the sheet is cut at the rim, not past it
    _assert_regions_cut_from_the_union_spaces(0.1, 2.5, (2, 4, 8), alphas)


@settings(max_examples=10, deadline=None)
@given(h=st.floats(0.01, 0.1))
@example(h=0.1)
@example(h=2.0 / math.sqrt(410.0))  # (7h/2)^2 + (19h/2)^2 = 1: a cell centre on the unit circle
def test_ex3_disk_is_the_limit_planes_k(h):
    disk, k_idx = sequences._disk(h)
    limit = limit_plane_condenser(h, 1.0 + 5.0 * h)
    assert disk.coords[k_idx].tobytes() == limit.space.coords[limit.k_idx].tobytes()
    for built, limits in zip(disk.cells, limit.space.cells):
        assert np.array_equal(built[k_idx], limits[limit.k_idx])
    assert set(disk.labels_at(k_idx)) <= {lab for lab in disk.labels if lab.startswith("K:")}


@pytest.mark.parametrize("h", [0.1, 0.07, 0.05, 0.033, 0.025, 2.0 / math.sqrt(410.0)])
def test_ex3_disk_is_the_clipped_unit_disk(h):
    # the disk sheet the runners used to build; the two can differ only at a
    # cell centre less than 1e-9 outside the unit circle, which none of these h has
    disk, k_idx = sequences._disk(h)
    clipped = unit_disk(h)
    assert disk.labels_at(k_idx) == clipped.labels
    assert disk.coords[k_idx].tobytes() == clipped.coords.tobytes()


def test_ex3_alpha_rule_thresholds_by_family_index(ex3):
    # alpha_i = c / i: the same run as the explicit list of those values
    by_rule = run_example3(h=0.1, i_list=(2, 4, 8), alpha_rule_c=1.5)
    by_list = run_example3(h=0.1, i_list=(2, 4, 8), alphas=[0.75, 0.375, 0.1875])
    assert by_rule.capacities == by_list.capacities
    assert by_rule.measures == by_list.measures
    assert by_rule.regions.labels() == by_list.regions.labels()
    assert all(mu > disk for mu, disk in zip(by_rule.measures, ex3.measures))


def test_ex4_rejects_rim_inside_the_annulus_before_building(monkeypatch):
    _no_lattice(monkeypatch)
    with pytest.raises(DomainError, match="annulus"):
        run_example4(h=0.1, i_list=(2, 4, 8), rim_radius=1.05)
    with pytest.raises(DomainError, match="annulus"):
        run_example4(h=0.05, i_list=(2, 4, 8), rim_radius=2.2)


def _runner_condensers(monkeypatch, runner, **overrides):
    seen, solve = [], sequences.graph_capacity

    def record(cond, *args, **kwargs):
        seen.append(cond)
        return solve(cond, *args, **kwargs)

    monkeypatch.setattr(sequences, "graph_capacity", record)
    runner(**{"h": 0.1, "i_list": (2, 4, 8), **overrides})
    return seen


def _refuse_to_assemble(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a condenser with no K-B path went on to pick free nodes, assemble or solve")

    monkeypatch.setattr(mms.FiniteMetricMeasureSpace, "laplacian", refuse)
    monkeypatch.setattr(mms, "_free_mask", refuse)
    monkeypatch.setattr(mms, "_free_system", refuse)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", refuse)


def _assert_exact_zero(cond):
    pot = graph_capacity(cond)
    assert (pot.raw_energy, pot.capacity, pot.n_free) == (0.0, 0.0, 0)
    k_mask = np.zeros(cond.space.n, dtype=bool)
    k_mask[cond.k_idx] = True
    assert np.array_equal(pot.u, k_mask)  # K's sheet or disk meets only K


@pytest.mark.parametrize("i", [2, 4, 8])
def test_ex3_family_returns_zero_before_assembling(monkeypatch, i):
    # what lets run_example3 report 0.0 without a strip and with no solve
    cond = joined_two_sheet_condenser(0.1, i, 4.0)
    _refuse_to_assemble(monkeypatch)
    _assert_exact_zero(cond)


def test_ex4_limit_returns_zero_before_assembling(monkeypatch):
    # what lets run_example4 report the limit 0.0 with no lattice and no solve
    limit = ex4_limit_condenser(0.1, 4.0)
    _refuse_to_assemble(monkeypatch)
    _assert_exact_zero(limit)


@pytest.mark.parametrize("h, rim", [(0.1, 4.0), (0.05, 5.0), (0.033, 2.5)])
def test_ex4_limit_equals_the_solve_of_the_disk_and_far_sheet(h, rim):
    solved = graph_capacity(ex4_limit_condenser(h, rim)).capacity
    assert repr(run_example4(h=h, rim_radius=rim).limit_capacity) == repr(solved) == "0.0"


def test_ex3_index_sets_equal_label_filters(monkeypatch):
    limit, source = _runner_condensers(monkeypatch, run_example3, strip_conductance=0.2)
    pad, rim = 1e-9, 4.0
    assert limit.inner == radial_label_filter(limit.space, 0.0, 1.0 + pad)
    assert limit.outer == radial_label_filter(limit.space, rim - pad, math.inf)
    # the point source is the first sheet node nearest the hole, where the strip lands
    nearest = float(np.min(np.sqrt(source.space.coords[:, 0] ** 2 + source.space.coords[:, 1] ** 2)))
    assert source.inner == radial_label_filter(source.space, 0.0, nearest, prefix="S")[:1]
    assert source.outer == radial_label_filter(source.space, rim - pad, math.inf, prefix="S")


def test_ex4_index_sets_equal_label_filters(monkeypatch):
    (family,) = _runner_condensers(monkeypatch, run_example4)
    limit = ex4_limit_condenser(0.1, 4.0)
    pad, rim = 1e-9, 4.0
    assert family.inner == radial_label_filter(family.space, 0.0, 1.0 + pad, prefix="L")
    assert family.outer == radial_label_filter(family.space, rim - pad, math.inf, prefix="L")
    assert limit.inner == tuple(lab for lab in limit.space.labels if lab.startswith("K:"))
    assert limit.outer == radial_label_filter(limit.space, rim - pad, math.inf, prefix="F")


def _planar_builds(monkeypatch, runner, **kwargs):
    """(label prefix, node count) of every sheet a runner builds, sorted."""
    builds, build = [], sequences.build_planar_sheet

    def count_build(*args, **kw):
        space = build(*args, **kw)
        builds.append((kw["label_prefix"], space.n))
        return space

    monkeypatch.setattr(sequences, "build_planar_sheet", count_build)
    runner(**kwargs)
    return sorted(builds)


@pytest.mark.parametrize("i_list", [(2, 4, 8), (2, 4, 8, 16, 32)])
def test_ex4_builds_no_lattice_and_solves_only_the_plane_quotient(monkeypatch, i_list):
    sizes, solve = [], sequences.graph_capacity

    def count(cond, *args, **kwargs):
        sizes.append(cond.space.n)
        return solve(cond, *args, **kwargs)

    monkeypatch.setattr(sequences, "graph_capacity", count)
    assert _planar_builds(monkeypatch, run_example4, h=0.1, i_list=i_list) == []
    # the plane is solved on its quotient by the 8 lattice symmetries: a
    # 2M x 2M grid of cells has M (M + 1) / 2 orbits; the limit is not solved
    half = math.isqrt(limit_plane_condenser(0.1, 4.0).space.n) // 2
    assert sizes == [half * (half + 1) // 2]
    assert not hasattr(sequences, "union_spaces")


@pytest.mark.parametrize("strip", [None, 0.2])
def test_ex3_builds_the_disk_and_a_sheet_cut_to_the_thresholds_whatever_the_indices(monkeypatch, strip):
    runs = [
        _planar_builds(monkeypatch, run_example3, h=0.1, i_list=i_list, strip_conductance=strip)
        for i_list in ((2, 4, 8), (2, 4, 8, 16, 32))
    ]
    assert runs[0] == runs[1]
    # the 22 x 22 cells about the disk, not the plane's 84 x 84; the holed
    # sheet out to 1 + max alpha + 2h = 1.2 on either axis, and with a strip
    # also the whole sheet
    space = two_sheet_space(0.1, 1, 4.0)
    sheet = np.array([lab.startswith("S:") for lab in space.labels])
    near = np.max(np.abs(space.coords[:, :2]), axis=1) <= 1.2 + 1e-9
    expected = [("K", 22 * 22), ("S", int(np.sum(sheet & near)))]
    assert runs[0] == sorted(expected + ([] if strip is None else [("S", int(np.sum(sheet)))]))
    assert limit_plane_condenser(0.1, 4.0).space.n == 84 * 84


def test_ladder_builds_no_lattice(monkeypatch):
    assert _planar_builds(monkeypatch, sequences.planar_condenser_study, h_list=(0.1, 0.05, 0.025)) == []


@pytest.mark.parametrize("h_list, rim, message", [
    ((0.2, 0.1, 0.05), 4.0, "too coarse"),
    ((0.1, 0.05, 0.025), 1.2, "rim radius sits too close to the disk"),
    ((0.1, 0.05, 0.0), 4.0, "lattice spacing must be positive"),
    ((0.1, -0.05, 0.025), 4.0, "lattice spacing must be positive"),
    ((0.1, math.nan, 0.025), 4.0, "must be finite"),
    ((0.1, 0.05, 0.025), math.inf, "must be finite"),
], ids=["coarse rung", "rim inside 1 + 4h", "zero rung", "negative rung", "nan rung", "infinite rim"])
def test_ladder_checks_every_rung_before_the_first_solve(monkeypatch, h_list, rim, message):
    _no_lattice(monkeypatch)
    with pytest.raises(DomainError, match=message):
        sequences.planar_condenser_study(h_list, rim_radius=rim)


# ulps: the quotient's capacity from the full plane's, the two factorisations rounding apart
@pytest.mark.parametrize("h, ulps", [(0.1, 1), (0.05, 0)])
def test_plane_quotient_is_exact(h, ulps):
    cond = limit_plane_condenser(h, 4.0)
    orbits = plane_orbits(cond.space)
    # the orbits are the classes of nodes with the same unordered pair {|x|, |y|}
    x, y = np.abs(cond.space.coords[:, 0]), np.abs(cond.space.coords[:, 1])
    _, by_coords = np.unique(np.column_stack([np.maximum(x, y), np.minimum(x, y)]), axis=0, return_inverse=True)
    _, by_cells = np.unique(orbits, return_inverse=True)
    assert np.array_equal(by_coords.ravel(), by_cells)

    full = graph_capacity(cond)
    hi, lo = np.full(by_cells.max() + 1, -np.inf), np.full(by_cells.max() + 1, np.inf)
    np.maximum.at(hi, by_cells, full.u)
    np.minimum.at(lo, by_cells, full.u)
    assert np.max(hi - lo) <= 1e-12  # the full potential is constant on orbits

    quotient = contract(cond, orbits)
    assert np.array_equal(quotient.space.indices(quotient.inner), quotient.k_idx)  # labels stay unique
    assert abs(graph_capacity(quotient).capacity - full.capacity) <= ulps * math.ulp(full.capacity)


def _contracted_plane(h, rim):
    plane = limit_plane_condenser(h, rim)
    return contract(plane, plane_orbits(plane.space))


@st.composite
def _planes(draw):
    h = draw(st.floats(0.0125, 0.1))
    return h, draw(st.floats(1.0 + 4.0 * h, 6.0, exclude_min=True))


@settings(max_examples=12, deadline=None)
@given(plane=_planes())
@example(plane=(0.033, 6.0))
@example(plane=(0.0125, 1.0500001))
def test_plane_quotient_equals_the_contracted_plane(plane):
    h, rim = plane
    built, oracle = sequences._plane_quotient(h, rim), _contracted_plane(h, rim)
    assert np.array_equal(built.space.edges, oracle.space.edges)
    assert built.space.conductance.tobytes() == oracle.space.conductance.tobytes()
    assert built.k_idx.tobytes() == oracle.k_idx.tobytes() and built.b_idx.tobytes() == oracle.b_idx.tobytes()
    assert built.space.coords.tobytes() == oracle.space.coords.tobytes()
    assert built.inner == oracle.inner and built.outer == oracle.outer
    # |O| h^2 against the contraction's sum of |O| weights h^2: equal up to rounding
    assert np.allclose(built.space.weight, oracle.space.weight, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("h", [0.1, 0.05, 0.025])
def test_plane_quotient_solve_is_bit_identical_to_the_contracted_plane(h):
    built, oracle = graph_capacity(sequences._plane_quotient(h, 4.0)), graph_capacity(_contracted_plane(h, 4.0))
    assert built.capacity == oracle.capacity and built.n_free == oracle.n_free
    assert built.u.tobytes() == oracle.u.tobytes()


# -- ex4 ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ex4():
    return run_example4(h=0.1, i_list=(2, 4, 8))


def test_ex4_violates_semicontinuity(ex4):
    assert ex4.limit_capacity == 0.0
    assert min(ex4.capacities) > 0.1
    assert ex4.verdict.classification == VIOLATED


def test_ex4_capacity_independent_of_i(ex4):
    caps = ex4.capacities
    assert max(caps) - min(caps) <= 1e-12


def test_ex4_capacities_equal_cold_solves_of_the_family_spaces(ex4):
    # each family space is the plane plus a disjoint annulus at height 1/i;
    # the annulus adds no energy, so its cold solve gives the plane's value,
    # to the 1 ulp by which the full plane's factorisation rounds apart from
    # that of the quotient ex4 solves
    h, rim = 0.1, 4.0
    half = rim + 2 * h
    plane = build_planar_sheet((-half, half, -half, half), h, label_prefix="P", offset=0.5)
    r = np.hypot(plane.coords[:, 0], plane.coords[:, 1])
    inner, outer = np.flatnonzero(r <= 1.0 + 1e-9), np.flatnonzero(r >= rim - 1e-9)
    for i, cap in zip(ex4.i_list, ex4.capacities):
        annulus = build_planar_sheet(
            (-2.0, 2.0, -2.0, 2.0), h, clip=Disk(0.0, 0.0, 2.0), hole=Disk(0.0, 0.0, 1.0), z_offset=1.0 / i,
            label_prefix="A", offset=0.5,
        )
        space = union_spaces(plane, annulus)
        assert abs(graph_capacity(GraphCondenser(space, inner, outer, Dimension(2))).capacity - cap) <= math.ulp(cap)


# -- verdict goldens and reports ---------------------------------------------------


def test_verdict_goldens(ex1, ex2, ex3, ex4):
    verdicts = {
        "ex1": ex1.verdict.classification,
        "ex2": ex2.verdict.classification,
        "ex3": ex3.verdict.classification,
        "ex4": ex4.verdict.classification,
    }
    assert verdicts == {
        "ex1": CONSISTENT_STRICT_JUMP,
        "ex2": CONSISTENT_STRICT_JUMP,
        "ex3": CONSISTENT_STRICT_JUMP,
        "ex4": VIOLATED,
    }


def test_reports_are_deterministic():
    a = experiment_csv(run_example2(i_list=(1, 2, 4)))
    b = experiment_csv(run_example2(i_list=(1, 2, 4)))
    assert a == b


def test_reports_deterministic_through_the_sparse_solver():
    # ex4 factors lattices of thousands of unknowns, as every graph solve
    # does; identical configs must still produce bit-identical reports
    a = experiment_csv(run_example4(h=0.1, i_list=(2, 4, 8)))
    b = experiment_csv(run_example4(h=0.1, i_list=(2, 4, 8)))
    assert a == b


def test_experiment_csv_structure(ex3):
    text = experiment_csv(ex3)
    lines = text.strip().split("\n")
    data_header = [k for k, line in enumerate(lines) if line == "i,capacity,region_measure"]
    assert len(data_header) == 1
    k = data_header[0]
    assert lines[k + 1].startswith("2,")
    assert lines[-2] == "limit_capacity,limsup_estimate,verdict"
    assert lines[-1].endswith(ex3.verdict.classification)


def test_experiment_payload_round_trip(ex2):
    payload = json.loads(json.dumps(ex2.to_payload()))
    regenerated = experiment_csv_from_payload(payload)
    assert regenerated == experiment_csv(ex2)


def test_power_law_fit_recovers_exponent():
    i = np.array([2, 4, 8, 16], dtype=float)
    vals = 3.0 / i**1.1
    assert fit_power_law(i, vals) == pytest.approx(1.1, abs=1e-12)


def test_power_law_fit_rejects_a_single_point():
    with pytest.raises(DomainError, match=">= 2 points"):
        fit_power_law([2.0], [0.5])


def test_power_law_fit_rejects_a_single_distinct_index():
    # a vertical line in log-log has no slope; polyfit would warn and return one
    with pytest.raises(DomainError, match="distinct"):
        fit_power_law([2, 2, 2], [1.0, 2.0, 3.0])
    assert fit_power_law([2, 2, 4], [1.0, 1.0, 0.5]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("i_list, values", [
    ([2, 4, 8], [1.0, math.nan, 0.25]),
    ([2, 4, 8], [math.inf, 0.5, 0.25]),
    ([2, math.inf, 8], [1.0, 0.5, 0.25]),
], ids=["nan value", "infinite value", "infinite index"])
def test_power_law_fit_refuses_non_finite_points(i_list, values):
    with pytest.raises(DomainError, match="finite positive"):
        fit_power_law(i_list, values)
