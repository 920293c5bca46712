import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _oracles import (
    exact_minimize_chain,
    resumming_geometric_nodes,
    two_step_capacity_estimate,
    two_step_schedule,
)
from varcap import radial_fem
from varcap.errors import DomainError, InconsistencyError, PreconditionError, SingularWeightError, VarcapError
from varcap.geometry import Dimension
from varcap.profiles import (
    INF,
    ConstantSegment,
    PowerSegment,
    WarpProfile,
    capped_even_profile,
    cylinder_transition_profile,
    euclidean_profile,
    hyperboloid_profile,
    schwarzschild_profile,
)
from varcap.radial_fem import RadialGrid, _minimize_chain, capacity_estimate, fem_csv, solve_radial
from varcap.warped import RadialCondenser


def euclid_cap_L(r, L):
    return 1.0 / (1.0 / r - 1.0 / L)


def constant_profile(c, m=3):
    return WarpProfile(Dimension(m), [ConstantSegment(0.0, INF, c)])


def random_power_profile(rng, m=3):
    a = float(rng.uniform(0.5, 2.0))
    p = float(rng.uniform(0.8, 2.0))
    return WarpProfile(Dimension(m), [PowerSegment(0.0, INF, a, p)], pole_at_origin=True)


def random_grid(rng, s0, L, n_interior):
    interior = np.sort(rng.uniform(s0, L, size=n_interior))
    return RadialGrid(np.concatenate([[s0], interior, [L]]))


# -- grids ---------------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(DomainError):
        RadialGrid(np.array([0.0, 1.0]))  # too few nodes
    with pytest.raises(DomainError):
        RadialGrid(np.array([0.0, 1.0, 1.0]))
    with pytest.raises(DomainError):
        RadialGrid.geometric(1.0, 10.0, 0.1, ratio=1.6)


def test_geometric_grid_hits_endpoints():
    grid = RadialGrid.geometric(1.0, 1000.0, 0.05, ratio=1.05)
    assert grid.nodes[0] == 1.0
    assert grid.nodes[-1] == 1000.0
    h = np.diff(grid.nodes)
    assert np.all(np.diff(h) > 0)  # grading grows toward large s
    ratios = h[1:] / h[:-1]
    assert np.allclose(ratios, 1.05, rtol=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    s0=st.floats(-5.0, 5.0),
    span=st.floats(1e-3, 1e4),
    h0=st.floats(1e-3, 10.0),
    ratio=st.floats(1.0 + 1e-6, 1.5),
)
@example(s0=0.0, span=1e4, h0=1e-3, ratio=1.001)  # the largest grid of ratios past 1.001: 9,216 elements
@example(s0=0.0, span=2.0, h0=1e-3, ratio=1.0 + 1e-6)
@example(s0=-5.0, span=1.0, h0=1e-3, ratio=1.0 + 1e-6)
def test_geometric_grid_matches_resumming_oracle(s0, span, h0, ratio):
    # the oracle re-sums every step, so its cost grows with the square of the elements;
    # 10,000 keeps every grid of ratios past 1.001 (at most 9,216 elements) at about 0.2 s
    assume(radial_fem._geometric_elements(span, h0, ratio) <= 10_000)
    nodes = RadialGrid.geometric(s0, s0 + span, h0, ratio).nodes
    expected = resumming_geometric_nodes(s0, s0 + span, h0, ratio)
    assert nodes.tobytes() == expected.tobytes()


@settings(max_examples=80, deadline=None)
@given(cond=st.lists(st.floats(1e-6, 1e6), min_size=2, max_size=40).map(np.array))
@example(cond=np.array([1.0, 3.0]))
@example(cond=np.array([1e-6, 1e6]))
def test_chain_minimizer_matches_exact_oracle(cond):
    u = _minimize_chain(cond)
    n = cond.size
    exact = exact_minimize_chain(cond, 0)
    assert max(abs(Fraction(float(v)) - e) for v, e in zip(u, exact)) <= 2 * n * np.finfo(float).eps
    assert u[0] == 1.0 and u[n] == 0.0
    assert np.all(np.diff(u) <= 0.0)


def test_refined_grid_is_nested():
    grid = RadialGrid.geometric(1.0, 100.0, 0.5)
    fine = grid.refined()
    assert fine.n_elements == 2 * grid.n_elements
    assert np.allclose(np.intersect1d(fine.nodes, grid.nodes), grid.nodes)


# -- solve_radial ----------------------------------------------------------------


def test_constant_profile_linear_minimizer():
    for m, c, s0, L in [(3, 2.0, 1.0, 5.0), (4, 0.7, 0.5, 3.0)]:
        cond = RadialCondenser(constant_profile(c, m), s0)
        grid = RadialGrid(np.linspace(s0, L, 18))
        sol = solve_radial(cond, grid)
        omega = Dimension(m).omega
        assert sol.energy == pytest.approx(omega * c ** (m - 1) / (L - s0), rel=1e-12)
        expected = (L - grid.nodes) / (L - s0)
        assert np.allclose(sol.u, expected, atol=1e-12)


def test_euclidean_truncated_condenser_order_two():
    cond = RadialCondenser(euclidean_profile(3), 1.0)
    L = 10.0
    exact = euclid_cap_L(1.0, L)
    errors = []
    for n in (20, 40, 80):
        sol = solve_radial(cond, RadialGrid(np.linspace(1.0, L, n + 1)))
        errors.append(abs(sol.cap_L - exact))
    orders = [math.log2(errors[k] / errors[k + 1]) for k in range(2)]
    assert min(orders) >= 1.9


def test_energy_equals_gamma_times_cap():
    cond = RadialCondenser(euclidean_profile(5), 1.0)
    sol = solve_radial(cond, RadialGrid(np.linspace(1.0, 30.0, 51)))
    assert sol.energy == pytest.approx(Dimension(5).gamma * sol.cap_L, rel=1e-14)


def test_series_resistance_identity():
    # independent oracle: on a chain the minimum energy is omega / sum(h/w)
    rng = np.random.default_rng(3)
    cond = RadialCondenser(euclidean_profile(3), 1.0)
    grid = random_grid(rng, 1.0, 20.0, 30)
    sol = solve_radial(cond, grid)
    mids = 0.5 * (grid.nodes[:-1] + grid.nodes[1:])
    resistance = float(np.sum(np.diff(grid.nodes) / mids**2))
    assert sol.energy == pytest.approx(Dimension(3).omega / resistance, rel=1e-12)


def test_upper_bound_property_euclidean():
    # discrete admissible candidates keep the FEM value above the truncated
    # condenser capacity (midpoint weights underestimate the resistance)
    rng = np.random.default_rng(11)
    for _ in range(50):
        r = float(rng.uniform(0.3, 2.0))
        L = r + float(rng.uniform(2.0, 30.0))
        grid = random_grid(rng, r, L, int(rng.integers(3, 40)))
        sol = solve_radial(RadialCondenser(euclidean_profile(3), r), grid)
        assert sol.cap_L >= euclid_cap_L(r, L) * (1 - 1e-12)


def test_nested_refinement_never_increases_energy():
    rng = np.random.default_rng(5)
    for _ in range(10):
        prof = random_power_profile(rng)
        s0 = float(rng.uniform(0.3, 1.5))
        grid = RadialGrid.geometric(s0, s0 + 20.0, 0.5)
        cond = RadialCondenser(prof, s0)
        e_coarse = solve_radial(cond, grid).energy
        e_fine = solve_radial(cond, grid.refined()).energy
        assert e_fine <= e_coarse * (1 + 1e-12)


def test_cap_L_nonincreasing_in_L():
    cond = RadialCondenser(euclidean_profile(3), 1.0)
    caps = []
    for L in (10.0, 20.0, 40.0, 80.0):
        caps.append(solve_radial(cond, RadialGrid.geometric(1.0, L, 0.05)).cap_L)
    assert all(b <= a * (1 + 1e-12) for a, b in zip(caps, caps[1:]))


def test_discrete_maximum_principle():
    rng = np.random.default_rng(9)
    for _ in range(10):
        prof = random_power_profile(rng, m=int(rng.choice([3, 4, 5])))
        s0 = float(rng.uniform(0.2, 1.0))
        grid = random_grid(rng, s0, s0 + 15.0, 25)
        sol = solve_radial(RadialCondenser(prof, s0), grid)
        assert np.all(sol.u >= -1e-12)
        assert np.all(sol.u <= 1.0 + 1e-12)
        assert sol.u[0] == 1.0 and sol.u[-1] == 0.0


def test_singular_weight_detection():
    # profile construction already rejects interior zeros, so exercise the
    # solver guard directly with a stub that slips one through
    from types import SimpleNamespace

    from varcap.radial_fem import _element_conductances

    fake_profile = SimpleNamespace(
        s_min=0.0,
        s_max=10.0,
        f=lambda s: np.maximum(np.asarray(s, dtype=float) - 1.0, 0.0),
        element_weight=lambda s: np.maximum(np.asarray(s, dtype=float) - 1.0, 0.0) ** 2,
    )
    cond = SimpleNamespace(profile=fake_profile, s0=0.0)
    grid = RadialGrid(np.array([0.0, 1.0, 2.0, 3.0]))
    with pytest.raises(SingularWeightError):
        _element_conductances(cond, grid)


def test_grid_must_start_at_s0():
    cond = RadialCondenser(euclidean_profile(3), 1.0)
    with pytest.raises(DomainError):
        solve_radial(cond, RadialGrid(np.linspace(2.0, 10.0, 11)))


def test_chain_past_the_float_range_raises():
    # the s^-2 weight near s = 1e100 gives element resistances past the float range
    profile = WarpProfile(Dimension(3), [PowerSegment(1.0, INF, 1.0, -1.0)], pole_at_origin=False)
    with pytest.raises(DomainError, match="exceeds the float range"):
        solve_radial(RadialCondenser(profile, 1e100), RadialGrid(np.linspace(1e100, 1e103, 17)))


def test_element_weight_past_the_float_range_is_named():
    # f = s^3 near s = 1e100 squares past the float range: the weight is infinite, not nonpositive
    profile = WarpProfile(Dimension(3), [PowerSegment(0.0, INF, 1.0, 3.0)], pole_at_origin=True)
    with pytest.raises(DomainError, match="element weight exceeds the float range at the element midpoint"):
        solve_radial(RadialCondenser(profile, 1e100), RadialGrid(np.linspace(1e100, 1e102, 17)))


# -- capacity_estimate ---------------------------------------------------------------


def test_capacity_estimate_euclidean():
    for r in (0.5, 1.0, 2.0):
        cond = RadialCondenser(euclidean_profile(3), r)
        est = capacity_estimate(cond)
        assert est.cap == pytest.approx(r, rel=1e-3)
        assert abs(est.cap - r) <= max(est.error_estimate, 1e-3 * r)


def test_capacity_estimate_two_ended_neck():
    from varcap.warped import radial_capacity

    cond = RadialCondenser(hyperboloid_profile(), 0.0, ends="two_symmetric")
    est = capacity_estimate(cond)
    assert est.cap == pytest.approx(4.0 / math.pi, rel=1e-3)
    # two-route check: the FEM estimate agrees with the resistance formula
    assert est.cap == pytest.approx(radial_capacity(cond), rel=1e-3)


@pytest.mark.parametrize("options, error", [
    ({"L_values": [100.0, 1000.0]}, PreconditionError),
    ({"L_values": [100.0, 1000.0, 1e4, 1e4]}, PreconditionError),
    ({"L_values": [1e4, 100.0, 1e4]}, PreconditionError),
    ({"levels": 1}, PreconditionError),
    ({"L_values": [1.0, 1000.0, 1e4]}, DomainError),
], ids=["two radii", "repeated radius", "repeated radius unsorted", "one level", "radius at s0"])
def test_capacity_estimate_checks_its_inputs_before_any_solve(monkeypatch, options, error):
    # a repeated radius used to pass and switch off the extrapolation at that
    # L; on a Euclidean ball it moved the cap from 0.99999994 to 1.0000771
    calls = []
    monkeypatch.setattr(radial_fem, "solve_radial", lambda *args: calls.append(args) or solve_radial(*args))
    cond = RadialCondenser(euclidean_profile(3), 1.0)
    with pytest.raises(error):
        capacity_estimate(cond, **options)
    assert calls == []


@pytest.mark.parametrize("options", [
    {"levels": 30},  # 476 MiB for one array of the finest grid
    {"levels": 15},
    {"ratio": 1.0 + 1e-9, "h0": 1e-12},  # the grading loop would run about 1.6e10 times
], ids=["30 levels", "15 levels", "ratio near 1"])
def test_capacity_estimate_refuses_a_schedule_past_the_element_budget_before_any_grid(monkeypatch, options):
    monkeypatch.setattr(RadialGrid, "geometric", lambda *a: pytest.fail("a grid was built"))
    with pytest.raises(DomainError, match="more than 4,194,304"):
        capacity_estimate(RadialCondenser(euclidean_profile(3), 1.0), **options)


def test_check_schedule_fills_in_the_defaults_sorted():
    assert radial_fem._check_schedule(2.0) == ([200.0, 2000.0, 20000.0], 2.0 / 64.0)
    assert radial_fem._check_schedule(-3.0, [5.0, 1.0, 2.0], h0=0.1) == ([1.0, 2.0, 5.0], 0.1)


@pytest.mark.parametrize("levels", [2, 3])
def test_capacity_estimate_refines_each_grid_levels_minus_one_times(monkeypatch, levels):
    refined, refine = [], RadialGrid.refined
    monkeypatch.setattr(RadialGrid, "refined", lambda grid: refined.append(grid) or refine(grid))
    est = capacity_estimate(RadialCondenser(euclidean_profile(3), 1.0), levels=levels)
    assert len(refined) == 3 * (levels - 1) and len(est.rows) == 3 * levels


@pytest.mark.parametrize("cond, L_values, levels, options", [
    (RadialCondenser(euclidean_profile(3), 4.2), [4.200000000000012, 5.2, 6.2], 2, {}),
    (RadialCondenser(euclidean_profile(3), 4.2), [4.200000000000012, 5.2, 6.2], 3, {}),
    (RadialCondenser(euclidean_profile(3), 4.2), [4.200000000000012, 5.2, 6.2], 4, {}),
    (RadialCondenser(euclidean_profile(3), 1.0), [1.0000000000000004, 2.0, 3.0], 2, {}),
    (RadialCondenser(cylinder_transition_profile(2), 4.2), [5.2, 6.2, 4.2 + 1.13e-14], 3, {"ratio": 1.25}),
    (RadialCondenser(euclidean_profile(3), 1e10), None, 2, {"h0": 1e-8}),
], ids=["13 ulps, 2 levels", "13 ulps, 3 levels", "13 ulps, 4 levels", "2 ulps", "cylinder, 13 ulps",
        "h0 under the spacing at s0"])
def test_capacity_estimate_refuses_a_radius_floats_cannot_resolve_before_any_grid(
        monkeypatch, cond, L_values, levels, options):
    # the 13-ulp radius returned cap 0.0 with an error estimate of 6.4e15 at 2
    # and 3 levels, and raised "grid nodes must be strictly increasing" at 4
    monkeypatch.setattr(RadialGrid, "geometric", lambda *a: pytest.fail("a grid was built"))
    with pytest.raises(DomainError, match="under 4 float spacings"):
        capacity_estimate(cond, L_values, levels, **options)


@st.composite
def _tight_schedules(draw):
    """Schedules near the float-spacing rule: spans of 10 to 3e4 float
    spacings past s0, first elements of 10 to 1e4 spacings of s0."""
    s0 = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-3.0, 9.0))
    spacing = math.ulp(s0)
    spans = draw(st.lists(st.floats(1.0, 4.5), min_size=3, max_size=3, unique=True))
    L_values = [s0 + 10.0**e * spacing for e in spans]
    h0 = 10.0 ** draw(st.floats(1.0, 4.0)) * spacing
    ratio = 1.0 + 10.0 ** draw(st.floats(-4.0, math.log10(0.5)))
    return s0, L_values, draw(st.integers(2, 5)), h0, ratio


@settings(max_examples=100, deadline=None)
@given(schedule=_tight_schedules())
@example(schedule=(4.2, [4.2 + 48 * math.ulp(4.2), 5.2, 6.2], 2, 4.2 / 64, 1.05))
def test_every_schedule_the_float_rule_accepts_builds_strictly_increasing_grids(schedule):
    s0, L_values, levels, h0, ratio = schedule
    assume(len(set(L_values)) == 3)
    try:
        L_sorted, _ = radial_fem._check_schedule(s0, L_values, levels, h0, ratio)
    except VarcapError:
        return  # refused: nothing is built
    for L in L_sorted:  # at most about 3e4 / 10 * 2^4 = 50,000 elements
        grid = RadialGrid.geometric(s0, L, h0, ratio)
        for _ in range(levels - 1):
            grid = grid.refined()  # raises unless the nodes stay strictly increasing
        assert grid.nodes[0] == s0 and grid.nodes[-1] == L


def test_element_budget_admits_fourteen_levels_on_the_default_radii():
    radial_fem._check_schedule(1.0, levels=14)
    with pytest.raises(DomainError, match="has more than 4,194,304 elements"):
        RadialGrid.geometric(1.0, 1e4, 1e-12, ratio=1.0 + 1e-9)


@settings(max_examples=60, deadline=None)
@given(span=st.floats(1e-3, 1e4), h0=st.floats(1e-3, 10.0), ratio=st.floats(1.0 + 1e-6, 1.5))
@example(span=1e4, h0=1e-2, ratio=1.0 + 1e-6)
def test_geometric_element_count_is_within_one_of_the_grid(span, h0, ratio):
    count = radial_fem._geometric_elements(span, h0, ratio)
    assume(count <= 2**20)
    assert abs(RadialGrid.geometric(0.0, span, h0, ratio).n_elements - count) <= 1.0


def test_capacity_estimate_detects_inconsistent_schedule():
    # with h0 = 20 the grids at L = 2000 and 4000 start with an element 20
    # wide at a ball of radius 0.5, while the L = 10 grid's first element is
    # 4.75 wide: they overshoot more, so cap_L increases along the ladder,
    # which must be flagged as a bad discretization (as the former two-step
    # route does)
    cond = RadialCondenser(euclidean_profile(3), 0.5)
    options = {"L_values": [10.0, 2000.0, 4000.0], "h0": 20.0, "ratio": 1.01}
    with pytest.raises(InconsistencyError):
        capacity_estimate(cond, **options)
    with pytest.raises(InconsistencyError):
        two_step_capacity_estimate(cond, two_step_schedule(cond, **options))


def _fem_case():
    """A condenser on one of the shipped profile kinds, with s0 inside its domain."""
    unit = st.floats(0.0, 1.0)
    return st.one_of(
        st.tuples(st.floats(0.5, 2.0), st.floats(0.8, 2.0), st.floats(0.1, 3.0)).map(
            lambda t: RadialCondenser(WarpProfile(Dimension(3), [PowerSegment(0.0, INF, t[0], t[1])],
                                                  pole_at_origin=True), t[2])),
        st.tuples(st.integers(2, 6), unit).map(
            lambda t: RadialCondenser(cylinder_transition_profile(t[0]), 0.2 + t[1] * (t[0] + 2.0))),
        st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0), unit, st.sampled_from(["one", "two_symmetric"])).map(
            lambda t: RadialCondenser(hyperboloid_profile(a=t[0], b=t[1]), 3.0 * t[2], ends=t[3])),
        st.tuples(st.floats(0.1, 2.0), unit).map(
            lambda t: RadialCondenser(schwarzschild_profile(t[0]), 2.0 * t[0] + 0.1 + 3.0 * t[1])),
        st.tuples(st.integers(1, 4), unit).map(
            lambda t: RadialCondenser(capped_even_profile(t[0]), -1.9 * t[0] + t[1] * (1.9 * t[0] + 3.0))),
    )


def _outcome(compute):
    try:
        est = compute()
    except VarcapError as exc:
        return type(exc)
    return repr(est.cap), repr(est.error_estimate), repr(est.rows)


def _unresolved(s0, options) -> bool:
    """Whether `_check_schedule` refuses a radius for finest elements under 4 float spacings."""
    try:
        radial_fem._check_schedule(s0, **options)
    except VarcapError as exc:
        return "float spacings" in str(exc)
    return False


@settings(max_examples=72, deadline=None)
@given(
    cond=_fem_case(),
    spans=st.lists(st.floats(-1.0, 2e4), min_size=3, max_size=4, unique=True),
    levels=st.integers(2, 3),
    ratio=st.floats(1.01, 1.3),
    h0=st.none() | st.floats(0.005, 5.0),
    default_radii=st.booleans(),
)
def test_capacity_estimate_matches_the_two_step_route_bit_for_bit(cond, spans, levels, ratio, h0, default_radii):
    # radii come unsorted and may sit at or below s0; a fault must raise the
    # same error class on both routes.  Both routes must accept every radius
    # but those floats cannot resolve, which only the library refuses
    L_values = None if default_radii else [cond.s0 + span for span in spans]
    assume(L_values is None or len(set(L_values)) == len(L_values))
    options = {"L_values": L_values, "levels": levels, "ratio": ratio, "h0": h0}
    assume(not _unresolved(cond.s0, options))
    new = _outcome(lambda: capacity_estimate(cond, **options))
    old = _outcome(lambda: two_step_capacity_estimate(cond, two_step_schedule(cond, **options)))
    assert new == old


def test_fem_csv_columns():
    cond = RadialCondenser(euclidean_profile(3), 1.0)
    est = capacity_estimate(cond)
    text = fem_csv(est.rows)
    lines = text.strip().split("\n")
    assert lines[0] == "L,h,cap,energy"
    assert len(lines) == len(est.rows) + 1
    first = lines[1].split(",")
    assert float(first[0]) == est.rows[0][0]
