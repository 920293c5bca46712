import json
import math

import numpy as np
import pytest

from _oracles import radial_label_filter
from varcap import sequences
from varcap.errors import DomainError, PreconditionError
from varcap.geometry import Dimension
from varcap.mms import Disk, GraphCondenser, build_planar_sheet, graph_capacity, union_spaces
from varcap.profiles import cylinder_transition_profile
from varcap.radial_fem import RadialGrid, solve_radial
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
from varcap.warped import RadialCondenser


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
    for ratio in ex2.metadata["ratio_to_limit"]:
        assert ratio == pytest.approx(0.5, abs=1e-3)
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


# run_example3(h=0.1, strip_conductance=0.2), recorded when two_sheet_space
# joined its strip edge by label
STRIP_EX3_CAPACITIES = (0.013831585764887718, 0.007400273370695394, 0.0038344462596531194)


def test_ex3_strip_capacities_unchanged_by_index_join():
    assert run_example3(h=0.1, strip_conductance=0.2).capacities == STRIP_EX3_CAPACITIES


def test_two_sheet_strip_edge_equals_label_form():
    h, i, rim, c = 0.1, 4, 4.0, 0.05
    space, _, _ = sequences.two_sheet_space(h, i, rim, strip_conductance=c)
    disk = sequences._unit_disk(h)
    sheet = build_planar_sheet(
        sequences._plane_bounds(rim, h), h, hole=Disk(0.0, 0.0, 1.0), z_offset=1.0 / i, label_prefix="S",
        offset=sequences.LATTICE_OFFSET,
    )
    rims = disk.labels_at([np.argmax(sequences._radius(disk))]) + sheet.labels_at([np.argmin(sequences._radius(sheet))])
    by_label = union_spaces(disk, sheet, [(*rims, c)])
    assert np.array_equal(space.edges, by_label.edges)
    assert space.conductance.tobytes() == by_label.conductance.tobytes()


def _no_lattice(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a lattice was built before the inputs were validated")

    monkeypatch.setattr(sequences, "build_planar_sheet", refuse)


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


def test_ex3_rejects_short_alpha_list_before_building(monkeypatch):
    _no_lattice(monkeypatch)
    with pytest.raises(DomainError, match="threshold"):
        run_example3(h=0.1, i_list=(2, 4, 8), alphas=(0.0, 0.0))


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


def test_ex3_alpha_rule_thresholds_by_family_index(ex3):
    # alpha_i = c / i: the same run as the explicit list of those values
    by_rule = run_example3(h=0.1, i_list=(2, 4, 8), alpha_rule_c=1.5)
    by_list = run_example3(h=0.1, i_list=(2, 4, 8), alphas=[0.75, 0.375, 0.1875])
    assert by_rule.capacities == by_list.capacities
    assert by_rule.measures == by_list.measures
    assert by_rule.regions == by_list.regions
    assert all(mu > disk for mu, disk in zip(by_rule.measures, ex3.measures))


def test_ex4_rejects_rim_inside_the_annulus_before_building(monkeypatch):
    _no_lattice(monkeypatch)
    with pytest.raises(DomainError, match="annulus"):
        run_example4(h=0.1, i_list=(2, 4, 8), rim_radius=1.05)
    with pytest.raises(DomainError, match="annulus"):
        run_example4(h=0.05, i_list=(2, 4, 8), rim_radius=2.2)


def _runner_condensers(monkeypatch, runner):
    seen, solve = [], sequences.graph_capacity

    def record(cond, *args, **kwargs):
        seen.append(cond)
        return solve(cond, *args, **kwargs)

    monkeypatch.setattr(sequences, "graph_capacity", record)
    runner(h=0.1, i_list=(2, 4, 8))
    return seen


def test_ex3_index_sets_equal_label_filters(monkeypatch):
    limit, *family = _runner_condensers(monkeypatch, run_example3)
    pad, rim = 1e-9, 4.0
    assert limit.inner == radial_label_filter(limit.space, 0.0, 1.0 + pad)
    assert limit.outer == radial_label_filter(limit.space, rim - pad, math.inf)
    assert len(family) == 3
    for cond in family:
        assert cond.inner == tuple(lab for lab in cond.space.labels if lab.startswith("K:"))
        assert cond.outer == radial_label_filter(cond.space, rim - pad, math.inf, prefix="S")


def test_ex4_index_sets_equal_label_filters(monkeypatch):
    family, limit = _runner_condensers(monkeypatch, run_example4)
    pad, rim = 1e-9, 4.0
    assert family.inner == radial_label_filter(family.space, 0.0, 1.0 + pad, prefix="L")
    assert family.outer == radial_label_filter(family.space, rim - pad, math.inf, prefix="L")
    assert limit.inner == tuple(lab for lab in limit.space.labels if lab.startswith("K:"))
    assert limit.outer == radial_label_filter(limit.space, rim - pad, math.inf, prefix="F")


def test_ex4_builds_its_plane_once(monkeypatch):
    calls = []
    build = sequences.build_planar_sheet

    def count(*args, **kwargs):
        calls.append(kwargs["label_prefix"])
        return build(*args, **kwargs)

    monkeypatch.setattr(sequences, "build_planar_sheet", count)
    run_example4(h=0.1, i_list=(2, 4, 8))
    assert sorted(calls) == ["F", "K", "L"]


@pytest.mark.parametrize("i_list", [(2, 4, 8), (2, 4, 8, 16, 32)])
def test_ex4_solves_the_plane_and_the_limit_once(monkeypatch, i_list):
    sizes, solve = [], sequences.graph_capacity

    def count(cond, *args, **kwargs):
        sizes.append(cond.space.n)
        return solve(cond, *args, **kwargs)

    monkeypatch.setattr(sequences, "graph_capacity", count)
    exp = run_example4(h=0.1, i_list=i_list)
    assert sizes == [limit_plane_condenser(0.1, 4.0).space.n, sizes[1]]
    assert len(exp.capacities) == len(i_list)


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
    # the annulus adds no energy, so its cold solve gives the plane's value
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
        assert graph_capacity(GraphCondenser(space, inner, outer, Dimension(2))).capacity == cap


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


def test_reports_deterministic_through_iterative_solver():
    # ex4 solves lattices of thousands of unknowns by conjugate gradients, as
    # every graph solve now is; identical configs must still produce
    # bit-identical reports
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
