import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from _oracles import (
    grid_search_extension_value,
    random_feasible_extension,
    random_matrix_space,
    random_point_space,
)
from varcap.errors import DomainError, PreconditionError
from varcap.mms import Disk, FiniteMetricMeasureSpace, build_planar_sheet, union_spaces
from varcap.regions import (
    DefiningFunction,
    _nearest_distance,
    distance_to_set,
    extend_from_coords,
    mcshane_extend,
    region_measure,
)


def test_single_anchor_extension_is_distance():
    rng = np.random.default_rng(1)
    space = random_point_space(9, rng)
    U = mcshane_extend(space, ["x0"], [0.0], lip=1.0)
    d = np.linalg.norm(space.coords - space.coords[0], axis=1)
    assert np.allclose(U, d, atol=1e-14)


def test_extension_restricts_and_is_lipschitz():
    rng = np.random.default_rng(2)
    for _ in range(25):
        space = random_matrix_space(int(rng.integers(4, 11)), rng)
        d = space.distance_matrix()
        lip = float(rng.uniform(0.5, 2.0))
        anchors = list(rng.choice(space.n, size=int(rng.integers(2, space.n)), replace=False))
        # anchor data built as a lip-Lipschitz function: distance mixture
        base = lip * np.min(d[anchors][:, anchors], axis=0)
        labels = [space.labels[k] for k in anchors]
        U = mcshane_extend(space, labels, base, lip=lip)
        assert np.allclose(U[anchors], base, atol=1e-12)
        gap = np.abs(U[:, None] - U[None, :]) - lip * d
        assert float(np.max(gap)) <= 1e-10


def test_extension_precondition_reports_witness():
    space = random_point_space(4, np.random.default_rng(3))
    values = [0.0, 10.0]
    with pytest.raises(PreconditionError, match="Lipschitz"):
        mcshane_extend(space, ["x0", "x1"], values, lip=1.0)


def test_extension_dominates_grid_search_oracle():
    rng = np.random.default_rng(4)
    space = random_matrix_space(8, rng)
    d = space.distance_matrix()
    anchors = [0, 2, 5]
    vals = np.min(d[anchors][:, anchors], axis=0) + rng.uniform(-0.1, 0.1, size=3)
    # repair to 1-Lipschitz by extending from a single point first
    vals = np.min(vals[:, None] + d[anchors][:, anchors], axis=0)
    U = mcshane_extend(space, [space.labels[k] for k in anchors], vals, lip=1.0)
    for y in range(space.n):
        best = grid_search_extension_value(vals, d[anchors, y], 1.0, resolution=1e-3)
        assert U[y] >= best - 1e-3
        assert abs(U[y] - best) <= 2e-3


def test_extension_dominates_random_feasible_extensions():
    rng = np.random.default_rng(5)
    for _ in range(20):
        space = random_matrix_space(int(rng.integers(4, 10)), rng)
        d = space.distance_matrix()
        n_anchor = int(rng.integers(2, space.n))
        anchors = list(rng.choice(space.n, size=n_anchor, replace=False))
        vals = np.min(d[anchors][:, anchors] + rng.uniform(0, 1, size=n_anchor)[:, None], axis=0)
        U = mcshane_extend(space, [space.labels[k] for k in anchors], vals, lip=1.0)
        for _ in range(20):
            ext = random_feasible_extension(d, anchors, vals, 1.0, rng)
            assert np.all(U >= ext - 1e-10)


def test_idempotence_on_global_lipschitz_function():
    rng = np.random.default_rng(6)
    space = random_matrix_space(9, rng)
    u = DefiningFunction.canonical_for(space, [space.labels[0], space.labels[3]])
    U = mcshane_extend(space, space.labels, u.values, lip=1.0)
    assert np.allclose(U, u.values, atol=1e-14)


# -- defining functions ----------------------------------------------------------


def test_canonical_defining_function():
    rng = np.random.default_rng(7)
    space = random_point_space(10, rng)
    K = [space.labels[1], space.labels[4]]
    u = DefiningFunction.canonical_for(space, K)
    assert set(np.array(space.labels)[u.values <= 0.0]) == set(K)
    d = distance_to_set(space, K)
    outside = [k for k in range(space.n) if space.labels[k] not in K]
    assert np.allclose(u.values[outside], d[outside])


def test_signed_defining_function_accepted():
    # three collinear points, signed distance to the boundary of K = {a, b}
    space = FiniteMetricMeasureSpace(
        ["a", "b", "c"],
        [1, 1, 1],
        coords=np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float),
    )
    values = [-1.0, 0.0, 1.0]
    u = DefiningFunction.from_values(space, values, ["a", "b"])
    assert not u.canonical
    assert np.allclose(u.values, values)


def test_defining_function_rejects_region_mismatch():
    space = FiniteMetricMeasureSpace(
        ["a", "b"], [1, 1], coords=np.array([[0, 0, 0], [1, 0, 0]], dtype=float)
    )
    with pytest.raises(PreconditionError):
        DefiningFunction.from_values(space, [0.5, 1.5], ["a"])


def test_defining_function_rejects_wrong_exterior_values():
    space = FiniteMetricMeasureSpace(
        ["a", "b", "c"],
        [1, 1, 1],
        coords=np.array([[0, 0, 0], [1, 0, 0], [3, 0, 0]], dtype=float),
    )
    with pytest.raises(PreconditionError, match="equal d"):
        DefiningFunction.from_values(space, [0.0, 0.5, 3.0], ["a"])


def test_defining_function_rejects_non_lipschitz():
    space = FiniteMetricMeasureSpace(
        ["a", "b", "c"],
        [1, 1, 1],
        coords=np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float),
    )
    # exterior values match d(., K) but the interior value breaks the bound
    with pytest.raises(PreconditionError, match="Lipschitz"):
        DefiningFunction.from_values(space, [-5.0, 1.0, 2.0], ["a"])


# -- corresponding regions ----------------------------------------------------------


def _two_sheet_fixture(h=0.25, height=0.2):
    disk = build_planar_sheet((-1, 1, -1, 1), h, clip=Disk(0, 0, 1), label_prefix="K", offset=0.5)
    plane = build_planar_sheet(
        (-3, 3, -3, 3), h, hole=Disk(0, 0, 1), z_offset=height, label_prefix="S", offset=0.5
    )
    limit = build_planar_sheet((-3, 3, -3, 3), h, label_prefix="L", offset=0.5)
    r = np.sqrt(limit.coords[:, 0] ** 2 + limit.coords[:, 1] ** 2)
    K = [lab for lab, ri in zip(limit.labels, r) if ri <= 1.0 + 1e-9]
    return limit, K, union_spaces(disk, plane)


def _region(defining, space_i, alpha):
    """Labels of the sublevel region {U <= alpha} of S_i."""
    return space_i.labels_at(defining.extension_on(space_i, upto=alpha) <= alpha)


def test_region_at_zero_threshold_is_exactly_the_disk_sheet():
    limit, K, space_i = _two_sheet_fixture()
    region = _region(DefiningFunction.canonical_for(limit, K), space_i, 0.0)
    assert set(region) == {lab for lab in space_i.labels if lab.startswith("K:")}
    assert region_measure(space_i, region) == pytest.approx(
        region_measure(limit, K), abs=0.0
    )


def test_region_above_range_is_everything():
    limit, K, space_i = _two_sheet_fixture()
    region = _region(DefiningFunction.canonical_for(limit, K), space_i, 100.0)
    assert set(region) == set(space_i.labels)


def test_region_monotone_in_threshold():
    limit, K, space_i = _two_sheet_fixture()
    defining = DefiningFunction.canonical_for(limit, K)
    regions = []
    for alpha in (0.0, 0.21, 0.5, 1.0):
        regions.append(set(_region(defining, space_i, alpha)))
    for small, big in zip(regions, regions[1:]):
        assert small <= big


def test_tubular_containment_and_equality_for_canonical():
    limit, K, space_i = _two_sheet_fixture(height=0.2)
    defining = DefiningFunction.canonical_for(limit, K)
    alpha = 0.3
    region = set(_region(defining, space_i, alpha))
    k_coords = limit.coords[limit.indices(K)]
    diffs = space_i.coords[:, None, :] - k_coords[None, :, :]
    d_to_K = np.min(np.sqrt(np.sum(diffs * diffs, axis=-1)), axis=1)
    inside_tube = {lab for lab, d in zip(space_i.labels, d_to_K) if d <= alpha}
    assert inside_tube <= region
    assert inside_tube == region  # exact for the canonical defining function


def test_bounded_region_search_matches_full_distances():
    limit, K, space_i = _two_sheet_fixture(height=0.2)
    defining = DefiningFunction.canonical_for(limit, K)
    full = defining.extension_on(space_i)
    # thresholds that sit exactly on node distances, between them, and at 0
    levels = [0.0, 0.2, 0.3, 1.0, 100.0] + list(np.quantile(full, [0.1, 0.5, 0.9], method="nearest"))
    for alpha in levels:
        mask = defining.extension_on(space_i, upto=float(alpha)) <= alpha
        assert np.array_equal(mask, full <= alpha), alpha
        assert region_measure(space_i, mask) == region_measure(space_i, space_i.labels_at(mask))


def _signed_defining_function(limit, K):
    """A signed defining function for K: -t on K, with t(x) = min over y off K
    of d(x, y) - d(y, K), the largest depth that keeps it 1-Lipschitz."""
    canonical = DefiningFunction.canonical_for(limit, K)
    values, k_idx = canonical.values.copy(), canonical.region_idx
    off = np.setdiff1d(np.arange(limit.n), k_idx)
    depth = np.min(limit.distance_matrix()[np.ix_(k_idx, off)] - values[off], axis=1)
    values[k_idx] = -depth
    return DefiningFunction.from_values(limit, values, K)


def test_extension_refuses_a_nan_bound():
    limit, K, space_i = _two_sheet_fixture(h=0.5)
    for defining in (DefiningFunction.canonical_for(limit, K), _signed_defining_function(limit, K)):
        with pytest.raises(DomainError, match="upto must be a number, got nan"):
            defining.extension_on(space_i, upto=float("nan"))
        with pytest.raises(DomainError, match="upto must be a number, got nan"):
            defining.extension_at(space_i.coords, np.float64("nan"))


def test_a_negative_bound_holds_no_point_of_the_canonical_extension_and_is_unused_by_a_signed_one():
    limit, K, space_i = _two_sheet_fixture(h=0.5)
    canonical, signed = DefiningFunction.canonical_for(limit, K), _signed_defining_function(limit, K)
    full = signed.extension_on(space_i)
    assert np.min(full) < -0.1
    for upto in (-np.inf, -1.0, -0.1, -1e-3, -1e-12):
        assert not np.any(canonical.extension_on(space_i, upto=upto) <= upto), upto
        assert np.array_equal(signed.extension_on(space_i, upto=upto), full), upto


def test_region_inputs_as_labels_indices_or_mask():
    limit, K, _ = _two_sheet_fixture()
    idx = limit.indices(K)
    mask = np.zeros(limit.n, dtype=bool)
    mask[idx] = True
    by_label = DefiningFunction.canonical_for(limit, K)
    for region in (idx, mask):
        other = DefiningFunction.canonical_for(limit, region)
        assert np.array_equal(other.values, by_label.values)
        assert limit.labels_at(other.region_idx) == K
        assert region_measure(limit, region) == region_measure(limit, K)


def test_region_measure_trivia():
    rng = np.random.default_rng(11)
    space = random_point_space(6, rng, weights=np.arange(1.0, 7.0))
    assert region_measure(space, []) == 0.0
    assert region_measure(space, space.labels) == pytest.approx(21.0)


def _points(most):
    return hnp.arrays(float, st.tuples(st.integers(1, most), st.just(3)), elements=st.floats(-2.0, 2.0))


@settings(max_examples=60, deadline=None)
@given(src=_points(24), target=_points(16), data=st.data())
def test_canonical_fast_path_matches_generic_mcshane(src, target, data):
    # the KD-tree path, the McShane minimum over every anchor and brute-force
    # d(., K) agree on generated point sets, and a bounded search keeps the
    # values at or below its bound
    K = np.array(data.draw(st.lists(st.integers(0, len(src) - 1), min_size=1, unique=True)))
    limit = FiniteMetricMeasureSpace([f"x{k}" for k in range(len(src))], np.ones(len(src)), coords=src)
    target_space = FiniteMetricMeasureSpace([f"y{k}" for k in range(len(target))], np.ones(len(target)), coords=target)
    defining = DefiningFunction.canonical_for(limit, K)
    fast = defining.extension_on(target_space)
    slow = extend_from_coords(limit.coords, defining.values, target_space.coords)
    generic = DefiningFunction(limit, defining.values, defining.region_idx).extension_on(target_space)
    assert np.array_equal(generic, slow)
    diffs = target[:, None, :] - src[K][None, :, :]
    d_K = np.min(np.sqrt(np.sum(diffs * diffs, axis=-1)), axis=1)
    assert np.allclose(fast, slow, rtol=0.0, atol=1e-12)
    assert np.allclose(fast, d_K, rtol=0.0, atol=1e-12)
    alpha = data.draw(st.floats(0.0, 4.0))
    bounded = defining.extension_on(target_space, upto=alpha)
    assert np.array_equal(bounded[fast <= alpha], fast[fast <= alpha])


@settings(max_examples=80, deadline=None)
@given(points=_points(24), queries=_points(40), upto=st.floats(0.0, 3.0), data=st.data())
def test_bounded_nearest_distance_is_exact_up_to_its_bound(points, queries, upto, data):
    # a bounded query skips the points outside K's widened bounding box;
    # one query sits at the bound along an axis from K's extreme point there
    axis, side = data.draw(st.integers(0, 2)), data.draw(st.sampled_from([-1.0, 1.0]))
    edge = points[np.argmax(side * points[:, axis])].copy()
    edge[axis] += side * upto
    queries = np.vstack([queries, edge])
    full, bounded = _nearest_distance(points, queries), _nearest_distance(points, queries, upto)
    near = full <= upto
    assert np.array_equal(bounded[near], full[near])
    assert np.all((bounded[~near] == np.inf) | (bounded[~near] == full[~near]))
    # every query moved past the bound along that axis: the cut leaves none, and none lies within the bound
    past = queries.copy()
    past[:, axis] = side * (np.max(side * points[:, axis]) + 2.0 * upto + 1e-6 + np.abs(queries[:, axis]))
    assert np.all(_nearest_distance(points, past) > upto)
    assert np.array_equal(_nearest_distance(points, past, upto), np.full(len(past), np.inf))
    for bound in (upto, np.inf):
        assert _nearest_distance(points, queries[:0], bound).shape == (0,)
