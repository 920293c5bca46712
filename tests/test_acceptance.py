"""Acceptance suite: one test per shipped criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from _oracles import dense_graph_energy, random_feasible_extension, random_graph_condenser, random_matrix_space, random_point_space
from varcap.geometry import Dimension
from varcap.mass import AFProfile, evaluate_mass_curve, extrapolate_mass
from varcap.mms import graph_capacity
from varcap.profiles import cylinder_transition_profile, euclidean_profile, schwarzschild_profile
from varcap.radial_fem import capacity_estimate
from varcap.regions import mcshane_extend
from varcap.sequences import (
    CONSISTENT_STRICT_JUMP,
    VIOLATED,
    fit_power_law,
    run_example1,
    run_example2,
    run_example3,
    run_example4,
)
from varcap.warped import RadialCondenser


def report(number: int, ok: bool, detail: str):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def ex1():
    return run_example1(i_list=(2, 4, 8), r=1.0)


@pytest.fixture(scope="module")
def ex2():
    return run_example2(i_list=(1, 2, 4))


@pytest.fixture(scope="module")
def ex3():
    return run_example3(h=0.1, i_list=(2, 4, 8))


@pytest.fixture(scope="module")
def ex3_strip():
    return run_example3(h=0.1, i_list=(2, 4, 8, 16), strip_conductance=0.2)


@pytest.fixture(scope="module")
def ex4():
    return run_example4(h=0.1, i_list=(2, 4, 8))


def test_criterion_1_euclidean_ball_capacity():
    worst_rel, worst_time = 0.0, 0.0
    for r in (0.5, 1.0, 2.0):
        cond = RadialCondenser(euclidean_profile(3), r)
        t0 = time.perf_counter()
        est = capacity_estimate(cond)
        dt = time.perf_counter() - t0
        worst_rel = max(worst_rel, abs(est.cap - r) / r)
        worst_time = max(worst_time, dt)
    ok = worst_rel <= 1e-3 and worst_time < 1.0
    report(1, ok, f"euclidean ball capacity rel err {worst_rel:.2e} (tol 1e-3), "
                  f"max runtime {worst_time:.3f}s (< 1s)")


def test_criterion_2_cylinder_transition(ex1):
    caps_ok = all(c <= 1e-2 for c in ex1.capacities)
    limit_ok = abs(ex1.limit_capacity - 1.0) <= 1e-12
    # ramp bound omega_2 / L checked by direct quadrature on the cylindrical range
    omega = Dimension(3).omega
    L = 1000.0
    prof = cylinder_transition_profile(2, m=3)
    direct, _ = integrate.quad(lambda s: omega * prof.f(s) ** 2 / L**2, L, 2 * L)
    ramp_ok = abs(direct - omega / L) <= 1e-10
    verdict_ok = ex1.verdict.classification == CONSISTENT_STRICT_JUMP
    ok = caps_ok and limit_ok and ramp_ok and verdict_ok
    report(2, ok, f"caps {[f'{c:.1e}' for c in ex1.capacities]} <= 1e-2, limit 1.0, "
                  f"ramp quadrature err {abs(direct - omega/L):.1e} (tol 1e-10), "
                  f"verdict {ex1.verdict.classification}")


def test_criterion_3_capped_neck(ex2):
    cap_errs = [abs(c - 2 / math.pi) for c in ex2.capacities]
    limit_err = abs(ex2.limit_capacity - 4 / math.pi)
    ratio_errs = [abs(rho - 0.5) for rho in ex2.metadata["ratio_to_limit"]]
    ok = max(cap_errs) <= 1e-3 and limit_err <= 1e-3 and max(ratio_errs) <= 1e-3
    report(3, ok, f"cap_i err {max(cap_errs):.1e}, limit err {limit_err:.1e}, "
                  f"ratio err {max(ratio_errs):.1e} (all tol 1e-3)")


def test_criterion_4_two_sheet_family(ex3, ex3_strip, planar_study):
    zero_ok = all(c == 0.0 for c in ex3.capacities)
    errors = planar_study["errors"]
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    order = planar_study["order"]
    order_ok = decreasing and order >= 0.9
    expo = fit_power_law(ex3_strip.i_list, ex3_strip.capacities)
    strip_ok = abs(expo - 1.0) <= 0.15
    measure_ok = True
    for h in (0.1, 0.05, 0.025):
        exp = ex3 if h == 0.1 else run_example3(h=h, i_list=(2, 3, 4))
        same = all(mu == exp.limit_measure for mu in exp.measures)
        measure_ok = measure_ok and same and abs(exp.limit_measure - math.pi) <= 0.5 * h
    ok = zero_ok and order_ok and strip_ok and measure_ok
    report(4, ok, f"cap_i exactly 0: {zero_ok}; condenser errors {[f'{e:.4f}' for e in errors]} "
                  f"order {order:.3f} (>= 0.9); strip exponent {expo:.3f} (1 +- 0.15); "
                  f"region measures O(h): {measure_ok}")


def test_criterion_5_cancellation_family(ex4):
    ok = (
        ex4.verdict.classification == VIOLATED
        and ex4.verdict.limsup_estimate > 0.0
        and ex4.limit_capacity == 0.0
    )
    report(5, ok, f"verdict {ex4.verdict.classification}, limsup "
                  f"{ex4.verdict.limsup_estimate:.4f} > limit {ex4.limit_capacity}")


def test_criterion_6_graph_oracle_equivalence():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(100):
        cond = random_graph_condenser(int(rng.integers(2, 7)), rng)
        pot = graph_capacity(cond)
        oracle, _ = dense_graph_energy(cond.space, cond.inner, cond.outer)
        worst = max(worst, abs(pot.raw_energy - oracle))
    ok = worst <= 1e-10
    report(6, ok, f"100 random graphs <= 6 nodes, worst energy gap {worst:.2e} (tol 1e-10)")


def test_criterion_7_largest_extension_properties():
    rng = np.random.default_rng(707)
    worst_lip, worst_restrict, dominated = 0.0, 0.0, True
    for trial in range(200):
        n = int(rng.integers(3, 13))
        space = random_matrix_space(n, rng) if trial % 2 else random_point_space(n, rng)
        d = space.distance_matrix()
        lip = float(rng.uniform(0.5, 2.0))
        n_anchor = int(rng.integers(1, n))
        anchors = list(rng.choice(n, size=n_anchor, replace=False))
        vals = np.min(
            lip * d[anchors][:, anchors] + rng.uniform(0, 2, size=n_anchor)[:, None], axis=0
        )
        U = mcshane_extend(space, [space.labels[k] for k in anchors], vals, lip=lip)
        worst_restrict = max(worst_restrict, float(np.max(np.abs(U[anchors] - vals))))
        gap = np.abs(U[:, None] - U[None, :]) - lip * d
        worst_lip = max(worst_lip, float(np.max(gap)))
        for _ in range(50):
            ext = random_feasible_extension(d, anchors, vals, lip, rng)
            if not np.all(U >= ext - 1e-10):
                dominated = False
    ok = worst_lip <= 1e-9 and worst_restrict <= 1e-12 and dominated
    report(7, ok, f"200 spaces <= 12 points: Lipschitz slack {worst_lip:.1e}, "
                  f"restriction gap {worst_restrict:.1e}, dominates 50 feasible "
                  f"extensions each: {dominated}")


def test_criterion_8_mass_calibration():
    t0 = time.perf_counter()
    flat = AFProfile.check(euclidean_profile(3))
    radii = tuple(np.geomspace(1.0, 100.0, 8))
    flat_curve = evaluate_mass_curve(flat, radii)
    flat_worst = max(
        max(abs(x) for x in flat_curve.m_iso), max(abs(x) for x in flat_curve.m_cv)
    )
    schw = AFProfile.check(schwarzschild_profile(2.0))
    curve = evaluate_mass_curve(schw, tuple(np.geomspace(20.0, 1000.0, 12)))
    ext = extrapolate_mass(curve)
    dt = time.perf_counter() - t0
    ok = (
        flat_worst <= 1e-10
        and abs(ext.m_iso - 2.0) / 2.0 <= 0.02
        and abs(ext.m_cv - 2.0) / 2.0 <= 0.02
        and dt < 5.0
    )
    report(8, ok, f"flat masses <= {flat_worst:.1e} (tol 1e-10); schwarzschild m_iso "
                  f"{ext.m_iso:.4f}, m_cv {ext.m_cv:.4f} (target 2 +- 2%); runtime {dt:.2f}s (< 5s)")


def test_criterion_9_verdict_suite(ex1, ex2, ex3, ex3_strip, ex4):
    convergent = [ex1, ex2, ex3, ex3_strip]
    no_violation = all(e.verdict.classification != VIOLATED for e in convergent)
    only_ex4 = ex4.verdict.classification == VIOLATED
    ok = no_violation and only_ex4
    names = {e.name: e.verdict.classification for e in convergent + [ex4]}
    report(9, ok, f"verdicts {names}; the only violation is the cancellation family")
